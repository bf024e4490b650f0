"""The chunked, crash-consistent observation store.

Layout on disk::

    root/
      store.json                  versioned + checksummed store index
      meta__<key>.chunk           store-level meta arrays (e.g. the sky map)
      obs_0000/
        manifest.json             versioned + checksummed, .prev retained
        chunks/<kind>__<key>__w0000.chunk
        quarantine/               damaged chunks moved here by the scrub

Every array is chunked along its sample axis (``chunk_samples`` samples
per chunk), each chunk individually committed via shadow-write + fsync +
rename, and the manifest records the expected generation and payload CRC
of every chunk.  Opening a store runs a scrub that detects torn,
truncated, and bit-flipped chunks, quarantines them, and regenerates them
from the observation's registered producer -- or fails with a diagnostic
naming the exact chunk and failure when no producer exists.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.focalplane import Focalplane
from ..core.observation import Observation
from ..math.intervals import IntervalList
from ..obs import state as obs_state
from ..obs.events import ClockDomain, Event, EventType
from ..resilience import state as res_state
from .format import (
    PENDING_SHADOWS,
    SEEN_ROOTS,
    SHADOW_PREFIX,
    StoreIntegrityError,
    StoreTornWrite,
    HeaderFrame,
    commit_chunk,
    durable_replace,
    read_chunk_header,
    read_payload,
    verify_chunk,
)
from .manifest import MANIFEST_NAME, _sealed, _validate, commit_manifest, load_manifest

__all__ = [
    "ObservationStore",
    "ScrubReport",
    "register_producer",
    "producer_names",
    "leak_report",
    "reset_leak_registry",
]

STORE_INDEX = "store.json"

#: How many commit attempts the spill/regeneration layer makes before
#: giving up -- torn writes are transient (the retry rewrites the shadow).
_COMMIT_ATTEMPTS = 4

#: Registered producers: pure functions that rebuild an observation's
#: arrays from scratch, keyed by the name recorded in the manifest.
_PRODUCERS: Dict[str, Callable[..., Observation]] = {}


def register_producer(name: str, fn: Callable[..., Observation]) -> None:
    """Register a pure observation producer for scrub-time regeneration.

    ``fn(**args)`` must return an :class:`Observation` whose arrays are a
    deterministic function of ``args`` alone -- regeneration re-commits
    only damaged chunks and cross-checks their CRCs against the manifest.
    """
    _PRODUCERS[name] = fn


def producer_names() -> List[str]:
    return sorted(_PRODUCERS)


@dataclass
class ScrubReport:
    """What one scrub pass found and did."""

    chunks_checked: int = 0
    #: Chunk names whose shadow files were found and removed -- exactly
    #: the commits that were in flight when the writer died.
    in_flight: List[str] = field(default_factory=list)
    #: ``{"obs", "chunk", "reason"}`` for every damaged chunk.
    quarantined: List[Dict[str, str]] = field(default_factory=list)
    #: Chunk names rebuilt from their observation's producer.
    regenerated: List[str] = field(default_factory=list)
    #: ``{"obs", "reason"}`` when manifest.json was rejected and .prev used.
    manifest_fallbacks: List[Dict[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.in_flight or self.quarantined or self.manifest_fallbacks)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "chunks_checked": self.chunks_checked,
            "in_flight": list(self.in_flight),
            "quarantined": [dict(q) for q in self.quarantined],
            "regenerated": list(self.regenerated),
            "manifest_fallbacks": [dict(m) for m in self.manifest_fallbacks],
        }


def _note(etype: EventType, name: str, metric: str, amount: float = 1.0, **attrs: Any) -> None:
    tr = obs_state.active
    if tr is not None:
        tr.emit(Event(etype, name, ts=tr.now(), clock=ClockDomain.HOST, attrs=attrs))
        tr.metrics.count(metric, amount)
    ctrl = res_state.active
    if ctrl is not None:
        ctrl.count(metric, int(amount))


def _commit_with_retry(name: str, metric: str, commit: Callable[[], Any], **attrs: Any) -> None:
    """Run ``commit`` until it lands; each torn write is noted and retried."""
    for attempt in range(_COMMIT_ATTEMPTS):
        try:
            commit()
        except StoreTornWrite:
            if attempt == _COMMIT_ATTEMPTS - 1:
                raise
            _note(EventType.STORE_COMMIT, name, "store.commit_retries", retry=attempt + 1)
        else:
            _note(EventType.STORE_COMMIT, name, metric, **attrs)
            return


def _focalplane_meta(fp: Focalplane) -> dict:
    return {
        "sample_rate": fp.sample_rate,
        "detectors": fp.detectors,
        "psi_pol": fp.psi_pol,
        "pol_leakage": fp.pol_leakage,
        "net": fp.net,
        "fknee": fp.fknee,
        "fmin": fp.fmin,
        "alpha": fp.alpha,
    }


def _focalplane_from_meta(meta: dict, quats: np.ndarray) -> Focalplane:
    detectors = list(meta["detectors"])
    return Focalplane(
        sample_rate=float(meta["sample_rate"]),
        detectors=detectors,
        detector_quats={d: quats[i] for i, d in enumerate(detectors)},
        psi_pol={k: float(v) for k, v in meta["psi_pol"].items()},
        pol_leakage={k: float(v) for k, v in meta["pol_leakage"].items()},
        net={k: float(v) for k, v in meta["net"].items()},
        fknee={k: float(v) for k, v in meta["fknee"].items()},
        fmin={k: float(v) for k, v in meta["fmin"].items()},
        alpha={k: float(v) for k, v in meta["alpha"].items()},
    )


def _payload_crc(payload: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(payload).tobytes()) & 0xFFFFFFFF


def _chunk_file(kind: str, key: str, window: int) -> str:
    return f"{kind}__{key}__w{window:04d}.chunk"


class _ChunkRead:
    """One chunk of a read plan: its path, the samples ``[start, stop)``
    it holds, its manifest entry, and its header frame once read."""

    __slots__ = ("path", "start", "stop", "entry", "frame")

    def __init__(self, path: str, entry: Dict[str, Any]):
        self.path = path
        self.start = int(entry["start"])
        self.stop = int(entry["stop"])
        self.entry = entry
        self.frame: Optional[HeaderFrame] = None


class _ReadPlan:
    """What every window of one observation reads.

    Built from the manifest on the observation's first window and reused
    by the rest: the focalplane, the normalized interval lists, and per
    array its manifest key, key, sample axis (0 for shared arrays) and
    chunks (paths as strings, header frames cached on first read).
    """

    __slots__ = ("focalplane", "intervals", "arrays")

    def __init__(self, doc: Dict[str, Any], chunks_dir: str):
        quats = np.array(doc["fp_quats"], dtype=np.float64)
        self.focalplane = _focalplane_from_meta(doc["focalplane"], quats)
        self.intervals = {
            key: IntervalList.from_arrays(starts, stops)
            for key, (starts, stops) in doc["intervals"].items()
        }
        self.arrays = [
            (
                akey,
                entry["key"],
                0 if entry["kind"] == "shared" else 1,
                [_ChunkRead(os.path.join(chunks_dir, c["file"]), c) for c in entry["chunks"]],
            )
            for akey, entry in doc["arrays"].items()
        ]


class ObservationStore:
    """Open/create, spill, scrub, and serve windows as fresh arrays.

    Set up once, stream many: each observation's read plan
    (:class:`_ReadPlan`: focalplane, interval lists, chunk paths) is built
    on its first window and shared by the rest, and each chunk's header
    frame is parsed on its first read and kept in the plan.  A scrub that
    finds damage drops the observation's plan.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.scrub_report: Optional[ScrubReport] = None
        self._index: Dict[str, Any] = {}
        self._manifests: List[Dict[str, Any]] = []
        self._plans: Dict[int, _ReadPlan] = {}
        SEEN_ROOTS.add(self.root)

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, root: Union[str, Path], chunk_samples: int = 1024) -> "ObservationStore":
        if chunk_samples <= 0:
            raise ValueError("chunk_samples must be positive")
        store = cls(root)
        store.root.mkdir(parents=True, exist_ok=True)
        store._index = {"chunk_samples": int(chunk_samples), "observations": [], "meta": {}}
        store._write_index()
        return store

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        scrub: bool = True,
        regenerate: bool = True,
    ) -> "ObservationStore":
        """Open an existing store; by default scrub it first.

        Workers re-opening a store the parent already scrubbed can pass
        ``scrub=False`` to skip the integrity pass.
        """
        store = cls(root)
        index_path = store.root / STORE_INDEX
        if not index_path.exists():
            raise StoreIntegrityError(f"no store at {store.root} (missing {STORE_INDEX})")
        store._index = _validate(index_path.read_bytes(), f"store index {STORE_INDEX!r}")
        for obs_name in store._index["observations"]:
            doc, fallback = load_manifest(store.root / obs_name)
            store._manifests.append(doc)
            if fallback is not None:
                # Heal: rewrite a clean manifest from the validated doc.
                commit_manifest(store.root / obs_name, doc)
                report = store.scrub_report or ScrubReport()
                report.manifest_fallbacks.append({"obs": obs_name, "reason": fallback})
                store.scrub_report = report
        if scrub:
            store.scrub(regenerate=regenerate)
        return store

    def _write_index(self) -> None:
        self._index = _sealed(self._index)
        blob = json.dumps(self._index, sort_keys=True, indent=1).encode("utf-8")
        durable_replace(self.root / STORE_INDEX, blob)

    # -- properties ------------------------------------------------------------

    @property
    def chunk_samples(self) -> int:
        return int(self._index["chunk_samples"])

    @property
    def n_observations(self) -> int:
        return len(self._index["observations"])

    def manifest(self, iobs: int) -> Dict[str, Any]:
        return self._manifests[iobs]

    def _obs_dir(self, iobs: int) -> Path:
        return self.root / self._index["observations"][iobs]

    def bytes_per_sample(self, iobs: int) -> int:
        """On-disk bytes per time sample: sizes the streaming windows."""
        doc = self._manifests[iobs]
        total = 0
        for entry in doc["arrays"].values():
            shape = entry["shape"]
            itemsize = np.dtype(entry["dtype"]).itemsize
            per = itemsize
            axis = 0 if entry["kind"] == "shared" else 1
            for dim, extent in enumerate(shape):
                if dim != axis:
                    per *= extent
            total += per
        return total

    # -- spill -----------------------------------------------------------------

    def spill_observation(
        self, ob: Observation, producer: Optional[Dict[str, Any]] = None
    ) -> int:
        """Chunk one observation's arrays into the store; returns its index.

        ``producer`` is ``{"name": ..., "args": {...}}`` naming a
        registered producer able to rebuild this observation -- the scrub
        uses it to regenerate damaged chunks.
        """
        iobs = self.n_observations
        obs_name = f"obs_{iobs:04d}"
        obs_dir = self.root / obs_name
        chunks_dir = obs_dir / "chunks"
        chunks_dir.mkdir(parents=True, exist_ok=True)

        cs = self.chunk_samples
        arrays: Dict[str, Any] = {}
        for kind, mapping in (("shared", ob.shared), ("detdata", ob.detdata)):
            for key, arr in mapping.items():
                axis = 0 if kind == "shared" else 1
                entries = []
                for widx, start in enumerate(range(0, ob.n_samples, cs)):
                    stop = min(start + cs, ob.n_samples)
                    payload = arr[start:stop] if axis == 0 else arr[:, start:stop]
                    fname = _chunk_file(kind, key, widx)
                    header = {
                        "key": f"{kind}/{key}",
                        "window": widx,
                        "start": start,
                        "stop": stop,
                        "generation": 1,
                    }
                    self._commit_chunk(chunks_dir / fname, header, payload)
                    entries.append(
                        {
                            "file": fname,
                            "start": start,
                            "stop": stop,
                            "generation": 1,
                            "crc32": _payload_crc(payload),
                        }
                    )
                arrays[f"{kind}/{key}"] = {
                    "kind": kind,
                    "key": key,
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                    "chunks": entries,
                }

        doc = {
            "name": ob.name,
            "uid": ob.uid,
            "n_samples": ob.n_samples,
            "chunk_samples": cs,
            "focalplane": _focalplane_meta(ob.focalplane),
            "fp_quats": ob.focalplane.quat_array().tolist(),
            "intervals": {
                key: [list(map(int, s)) for s in ivl.as_arrays()]
                for key, ivl in ob.intervals.items()
            },
            "arrays": arrays,
            "producer": producer,
        }
        _commit_with_retry(
            MANIFEST_NAME, "store.manifests_written", lambda: commit_manifest(obs_dir, doc)
        )
        self._manifests.append(doc)
        self._index["observations"].append(obs_name)
        self._write_index()
        return iobs

    def _commit_chunk(self, path: Path, header: Dict[str, Any], payload) -> None:
        _commit_with_retry(
            path.name,
            "store.chunks_written",
            lambda: commit_chunk(path, header, payload),
            nbytes=int(np.asarray(payload).nbytes),
        )

    # -- store-level meta arrays -----------------------------------------------

    def save_meta(self, key: str, array: np.ndarray) -> None:
        fname = f"meta__{key}.chunk"
        header = {"key": f"meta/{key}", "window": 0, "start": 0, "stop": 0, "generation": 1}
        self._commit_chunk(self.root / fname, header, np.asarray(array))
        self._index["meta"][key] = fname
        self._write_index()

    def load_meta(self, key: str) -> np.ndarray:
        fname = self._index["meta"][key]
        path = self.root / fname
        verify_chunk(path)
        return read_payload(path)[0]

    def meta_keys(self) -> List[str]:
        return sorted(self._index["meta"])

    # -- scrub -----------------------------------------------------------------

    def scrub(self, regenerate: bool = True) -> ScrubReport:
        """Validate every chunk; quarantine and regenerate the damaged.

        Shadow files (in-flight commits at the time of a kill) are removed
        and recorded.  A damaged chunk with no registered producer raises
        :class:`StoreIntegrityError` naming the chunk and the failure.
        """
        report = self.scrub_report or ScrubReport()
        for iobs, doc in enumerate(self._manifests):
            obs_dir = self._obs_dir(iobs)
            chunks_dir = obs_dir / "chunks"
            for shadow in sorted(obs_dir.rglob(f"{SHADOW_PREFIX}*")):
                report.in_flight.append(shadow.name[len(SHADOW_PREFIX):])
                shadow.unlink()
                PENDING_SHADOWS.discard(shadow)
            known = set()
            damaged: List[Tuple[str, Dict[str, Any], str]] = []
            for akey, entry in sorted(doc["arrays"].items()):
                for chunk in entry["chunks"]:
                    known.add(chunk["file"])
                    report.chunks_checked += 1
                    reason = self._check_chunk(chunks_dir / chunk["file"], akey, chunk)
                    if reason is not None:
                        damaged.append((akey, chunk, reason))
            # Chunk files the manifest does not know: quarantine as orphans.
            for stray in sorted(chunks_dir.glob("*.chunk")):
                if stray.name not in known:
                    self._quarantine(obs_dir, stray.name, "not referenced by the manifest")
                    report.quarantined.append(
                        {
                            "obs": obs_dir.name,
                            "chunk": stray.name,
                            "reason": "not referenced by the manifest",
                        }
                    )
            for akey, chunk, reason in damaged:
                self._quarantine(obs_dir, chunk["file"], reason)
                report.quarantined.append(
                    {"obs": obs_dir.name, "chunk": chunk["file"], "reason": reason}
                )
            if damaged:
                self._plans.pop(iobs, None)
                if not regenerate:
                    names = ", ".join(c["file"] for _, c, _ in damaged)
                    raise StoreIntegrityError(
                        f"{obs_dir.name} has damaged chunks ({names}) and "
                        f"regeneration is disabled"
                    )
                self._regenerate(iobs, [(a, c) for a, c, _ in damaged], damaged[0][2])
                report.regenerated.extend(c["file"] for _, c, _ in damaged)
            _note(
                EventType.STORE_SCRUB,
                obs_dir.name,
                "store.chunks_scrubbed",
                amount=float(sum(len(e["chunks"]) for e in doc["arrays"].values())),
                damaged=len(damaged),
            )
        # Store-level shadows (index/meta commits in flight).
        for shadow in sorted(self.root.glob(f"{SHADOW_PREFIX}*")):
            report.in_flight.append(shadow.name[len(SHADOW_PREFIX):])
            shadow.unlink()
            PENDING_SHADOWS.discard(shadow)
        self.scrub_report = report
        return report

    def _check_chunk(self, path: Path, akey: str, entry: Dict[str, Any]) -> Optional[str]:
        """Return a failure description, or ``None`` when the chunk is sound."""
        try:
            header = verify_chunk(path)
        except StoreIntegrityError as err:
            return str(err)
        if header.get("key") != akey:
            return f"chunk holds {header.get('key')!r}, manifest expected {akey!r}"
        if int(header.get("generation", -1)) != int(entry["generation"]):
            return (
                f"generation {header.get('generation')} on disk, manifest "
                f"expected {entry['generation']}"
            )
        if int(header["payload_crc32"]) != int(entry["crc32"]):
            return (
                f"payload CRC {int(header['payload_crc32']):#010x} on disk, "
                f"manifest expected {int(entry['crc32']):#010x}"
            )
        return None

    def _quarantine(self, obs_dir: Path, fname: str, reason: str) -> None:
        qdir = obs_dir / "quarantine"
        qdir.mkdir(exist_ok=True)
        src = obs_dir / "chunks" / fname
        if src.exists():
            os.replace(src, qdir / fname)
        _note(EventType.STORE_QUARANTINE, fname, "store.chunks_quarantined", reason=reason)

    def _regenerate(
        self, iobs: int, damaged: List[Tuple[str, Dict[str, Any]]], reason: str
    ) -> None:
        """Rebuild damaged chunks from the observation's registered producer."""
        doc = self._manifests[iobs]
        obs_dir = self._obs_dir(iobs)
        producer = doc.get("producer")
        names = ", ".join(c["file"] for _, c in damaged)
        if not producer:
            raise StoreIntegrityError(
                f"{obs_dir.name} chunk(s) {names} failed validation "
                f"({reason}) and no producer is registered to regenerate them"
            )
        fn = _PRODUCERS.get(producer["name"])
        if fn is None:
            raise StoreIntegrityError(
                f"{obs_dir.name} chunk(s) {names} failed validation "
                f"({reason}); producer {producer['name']!r} is not registered "
                f"in this process (known: {', '.join(producer_names()) or 'none'})"
            )
        ob = fn(**producer["args"])
        for akey, chunk in damaged:
            kind, key = akey.split("/", 1)
            arr = (ob.shared if kind == "shared" else ob.detdata)[key]
            start, stop = int(chunk["start"]), int(chunk["stop"])
            payload = arr[start:stop] if kind == "shared" else arr[:, start:stop]
            crc = _payload_crc(payload)
            if crc != int(chunk["crc32"]):
                raise StoreIntegrityError(
                    f"producer {producer['name']!r} rebuilt {chunk['file']!r} "
                    f"with CRC {crc:#010x}, manifest expects "
                    f"{int(chunk['crc32']):#010x}: producer is not deterministic"
                )
            widx = int(chunk["file"].rsplit("__w", 1)[1].split(".")[0])
            header = {
                "key": akey,
                "window": widx,
                "start": start,
                "stop": stop,
                "generation": int(chunk["generation"]),
            }
            self._commit_chunk(obs_dir / "chunks" / chunk["file"], header, payload)
            _note(EventType.STORE_REGENERATE, chunk["file"], "store.chunks_regenerated")

    # -- windowed reads --------------------------------------------------------

    def windows(self, iobs: int, window_samples: Optional[int] = None) -> List[Tuple[int, int]]:
        """Chunk-aligned ``(start, stop)`` windows covering the observation."""
        doc = self._manifests[iobs]
        n = int(doc["n_samples"])
        cs = int(doc["chunk_samples"])
        ws = cs if window_samples is None else int(window_samples)
        if ws <= 0:
            raise ValueError("window_samples must be positive")
        w = max(cs, (ws // cs) * cs)
        return [(s, min(s + w, n)) for s in range(0, n, w)]

    def window_observation(self, iobs: int, start: int, stop: int) -> Observation:
        """An :class:`Observation` of samples ``[start, stop)``.

        Every array is freshly read from the underlying chunks, so
        operators may write into it (noise weighting does) without
        reaching the store or any other window.  The focalplane is the
        observation's shared, immutable one.  Intervals are clipped to
        the window and shifted to its origin.
        """
        doc = self._manifests[iobs]
        if not (0 <= start < stop <= int(doc["n_samples"])):
            raise ValueError(
                f"window [{start},{stop}) out of range for "
                f"{doc['n_samples']} samples"
            )
        plan = self._plans.get(iobs)
        if plan is None:
            plan = self._plans[iobs] = _ReadPlan(doc, str(self._obs_dir(iobs) / "chunks"))
        ob = Observation(plan.focalplane, stop - start, name=doc["name"], uid=doc["uid"])
        for akey, key, axis, chunks in plan.arrays:
            arrays = ob.shared if axis == 0 else ob.detdata
            arrays[key] = self._read_window(iobs, akey, axis, chunks, start, stop)
        for key, ivl in plan.intervals.items():
            ob.intervals[key] = ivl.window(start, stop)
        return ob

    def load_observation(self, iobs: int) -> Observation:
        """The whole observation, materialized (for oracles and tests)."""
        doc = self._manifests[iobs]
        return self.window_observation(iobs, 0, int(doc["n_samples"]))

    def _read_window(
        self, iobs: int, akey: str, axis: int, chunks: List[_ChunkRead], start: int, stop: int
    ) -> np.ndarray:
        parts: List[np.ndarray] = []
        for chunk in chunks:
            c0, c1 = chunk.start, chunk.stop
            if c1 <= start or c0 >= stop:
                continue
            payload = self._chunk_payload(iobs, akey, chunk)
            if c0 < start or c1 > stop:
                lo, hi = max(start, c0) - c0, min(stop, c1) - c0
                payload = payload[lo:hi] if axis == 0 else payload[:, lo:hi]
            parts.append(payload)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=axis)

    def _chunk_payload(self, iobs: int, akey: str, chunk: _ChunkRead) -> np.ndarray:
        """One chunk's payload, read into a fresh array.

        The fast path trusts the open-time scrub and skips per-read CRC
        work; it re-checks the cached header frame and the file size on
        every read.  Under an active resilience controller the
        ``store.read`` fault site is polled (BIT_FLIP corrupts a payload
        byte on disk) and the payload is CRC-verified; detection
        quarantines the chunk and regenerates it from the producer before
        re-reading, with the header parsed afresh.
        """
        ctrl = res_state.active
        if ctrl is not None:
            fname = chunk.entry["file"]
            path = Path(chunk.path)
            spec = ctrl.check("store.read", chunk=fname)
            if spec is not None:
                self._flip_byte(path, spec, ctrl)
            try:
                verify_chunk(path)
            except StoreIntegrityError as err:
                self._quarantine(self._obs_dir(iobs), fname, str(err))
                self._regenerate(iobs, [(akey, chunk.entry)], str(err))
                verify_chunk(path)
            chunk.frame = None
        payload, chunk.frame = read_payload(chunk.path, chunk.frame)
        return payload

    @staticmethod
    def _flip_byte(path: Path, spec, ctrl) -> None:
        """Seeded bit rot: XOR one payload byte of the on-disk chunk."""
        header, offset = read_chunk_header(path)
        nbytes = int(header["payload_nbytes"])
        k = spec.offset
        if k is None:
            k = ctrl.rng.randrange(nbytes)
        k = min(int(k), nbytes - 1)
        with open(path, "r+b") as f:
            f.seek(offset + k)
            byte = f.read(1)
            f.seek(offset + k)
            f.write(bytes([byte[0] ^ 0x40]))
            f.flush()
            os.fsync(f.fileno())


def leak_report() -> List[str]:
    """Orphaned store state left behind by this process (for the sentinel).

    Flags shadow files still on disk (commits that never completed or were
    never scrubbed away) and chunk files no manifest references.
    """
    problems: List[str] = []
    for shadow in sorted(PENDING_SHADOWS):
        if shadow.exists():
            problems.append(f"undrained shadow file {shadow}")
    for root in sorted(SEEN_ROOTS):
        if not root.exists():
            continue
        for shadow in sorted(root.rglob(f"{SHADOW_PREFIX}*")):
            problems.append(f"orphaned shadow file {shadow}")
        for obs_dir in sorted(root.glob("obs_*")):
            manifest_path = obs_dir / MANIFEST_NAME
            if not manifest_path.exists():
                continue
            try:
                doc, _ = load_manifest(obs_dir)
            except StoreIntegrityError:
                continue
            known = {
                c["file"] for e in doc["arrays"].values() for c in e["chunks"]
            }
            for stray in sorted((obs_dir / "chunks").glob("*.chunk")):
                if stray.name not in known:
                    problems.append(f"orphaned chunk file {stray}")
    return problems


def reset_leak_registry() -> None:
    """Forget tracked roots/shadows (each test starts from a clean slate)."""
    PENDING_SHADOWS.clear()
    SEEN_ROOTS.clear()
