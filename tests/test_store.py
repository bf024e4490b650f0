"""repro.store: crash consistency, integrity, and streamed parity.

Covers the chunk format's failure diagnostics, the atomic commit
protocol (a torn write can never damage the live generation), manifest
fallback to the retained previous generation, scrub quarantine +
producer regeneration, and the acceptance matrix: streamed runs --
eager, compiled, and elastic with 1 and 4 workers -- bitwise identical
to their all-in-memory oracles for any window size.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import Data, ImplementationType
from repro.core.pipeline import MovementPolicy
from repro.ompshim import OmpTargetRuntime
from repro.parallel import TaskCheckpoint
from repro.parallel.satellite import make_satellite_data_shard
from repro.resilience import named_plan, resilient
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.store import (
    ObservationStore,
    StoreIntegrityError,
    StoreTornWrite,
    StreamConfig,
    commit_chunk,
    commit_manifest,
    plan_windows,
    read_chunk_header,
    stream_pipeline,
    verify_chunk,
)
from repro.store.manifest import MANIFEST_NAME, load_manifest
from repro.workflows.ingest import ingest_satellite_store, run_streamed_elastic
from repro.workflows.products import produce_zmap
from repro.workflows.satellite import (
    SIZES,
    SizeSpec,
    run_satellite_benchmark,
    same_bits,
    satellite_processing_pipeline,
    satellite_sky,
)

pytestmark = pytest.mark.usefixtures("leak_sentinel")

_TINY = SIZES["tiny"]
#: Four observations so the elastic leg genuinely runs four workers.
_PAR_SIZE = SizeSpec("store_par", 4, 2, 512, 16)
#: One small observation for per-example property-test stores.
_PROP_SIZE = SizeSpec("store_prop", 1, 1, 256, 8)


def _ingest(tmp_path, size=_TINY, realization=0, chunk_samples=128):
    return ingest_satellite_store(
        Path(tmp_path) / "store", size, realization, chunk_samples
    )


def _stream_oracle(size, realization=0):
    """Continuous accumulation over the full in-memory dataset."""
    return run_satellite_benchmark(
        size, ImplementationType.NUMPY, mapmaking=False, realization=realization
    )["zmap"]


def _plan(site, kind, **kw):
    return FaultPlan(
        name=f"test-{site}", specs=(FaultSpec(site=site, kind=kind, **kw),), seed=0
    )


# -- chunk format diagnostics --------------------------------------------------


def _write_chunk(directory, payload=None):
    path = Path(directory) / "detdata__signal__w0000.chunk"
    if payload is None:
        payload = np.arange(48, dtype=np.float64).reshape(4, 12)
    commit_chunk(
        path,
        {"key": "detdata/signal", "window": 0, "start": 0, "stop": 12, "generation": 1},
        payload,
    )
    return path, payload


def test_chunk_roundtrip(tmp_path):
    path, payload = _write_chunk(tmp_path)
    header = verify_chunk(path)
    assert header["key"] == "detdata/signal"
    assert header["generation"] == 1
    assert header["dtype"] == "float64"
    assert header["shape"] == [4, 12]


def test_chunk_bad_magic_named(tmp_path):
    path, _ = _write_chunk(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(StoreIntegrityError, match="bad magic"):
        read_chunk_header(path)


def test_chunk_truncation_named(tmp_path):
    path, _ = _write_chunk(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:6])
    with pytest.raises(StoreIntegrityError, match="truncated in header frame"):
        read_chunk_header(path)
    path.write_bytes(blob[:-5])
    with pytest.raises(StoreIntegrityError, match="payload truncated"):
        read_chunk_header(path)


def test_chunk_header_bitflip_named(tmp_path):
    path, _ = _write_chunk(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0x01  # inside the header JSON
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreIntegrityError, match="header CRC mismatch"):
        read_chunk_header(path)


def test_chunk_payload_bitflip_named(tmp_path):
    path, _ = _write_chunk(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x40
    path.write_bytes(bytes(blob))
    read_chunk_header(path)  # framing is still sound
    with pytest.raises(StoreIntegrityError, match="payload CRC mismatch"):
        verify_chunk(path)


def test_chunk_missing_named(tmp_path):
    with pytest.raises(StoreIntegrityError, match="missing"):
        read_chunk_header(Path(tmp_path) / "nope.chunk")


# -- commit atomicity ----------------------------------------------------------


def test_torn_write_never_touches_live_chunk(tmp_path):
    path, payload = _write_chunk(tmp_path)
    before = path.read_bytes()
    with resilient(
        _plan("store.write", FaultKind.TORN_WRITE, nth=(1,), max_fires=1, offset=17)
    ):
        with pytest.raises(StoreTornWrite, match="17 bytes"):
            commit_chunk(
                path,
                {
                    "key": "detdata/signal",
                    "window": 0,
                    "start": 0,
                    "stop": 12,
                    "generation": 2,
                },
                payload * 2.0,
            )
    assert path.read_bytes() == before
    shadow = path.parent / f".shadow-{path.name}"
    assert shadow.exists() and shadow.stat().st_size == 17
    shadow.unlink()


@settings(max_examples=12, deadline=None, database=None)
@given(offset=st.integers(min_value=0, max_value=500_000))
def test_commit_atomicity_property(offset):
    """Kill the writer at any byte offset: the previous generation survives
    and the scrub names exactly the one in-flight chunk."""
    with tempfile.TemporaryDirectory(prefix="repro-store-prop-") as tmp:
        store = _ingest(tmp, size=_PROP_SIZE, chunk_samples=64)
        doc = store.manifest(0)
        akey = sorted(doc["arrays"])[0]
        entry = doc["arrays"][akey]
        chunk = entry["chunks"][0]
        chunks_dir = Path(tmp) / "store" / "obs_0000" / "chunks"
        path = chunks_dir / chunk["file"]
        before = path.read_bytes()

        kind = entry["kind"]
        arr = store.load_observation(0)
        src = (arr.shared if kind == "shared" else arr.detdata)[entry["key"]]
        start, stop = int(chunk["start"]), int(chunk["stop"])
        window = src[start:stop] if kind == "shared" else src[:, start:stop]
        with resilient(
            _plan(
                "store.write",
                FaultKind.TORN_WRITE,
                nth=(1,),
                max_fires=1,
                offset=offset,
            )
        ):
            with pytest.raises(StoreTornWrite):
                commit_chunk(
                    path,
                    {
                        "key": akey,
                        "window": 0,
                        "start": start,
                        "stop": stop,
                        "generation": 2,
                    },
                    np.asarray(window) * 2.0,
                )

        # The live chunk is bitwise intact; reopening scrubs away exactly
        # the one in-flight shadow and nothing is quarantined.
        assert path.read_bytes() == before
        reopened = ObservationStore.open(Path(tmp) / "store")
        report = reopened.scrub_report
        assert report.in_flight == [chunk["file"]]
        assert report.quarantined == [] and report.regenerated == []
        header = verify_chunk(path)
        assert int(header["generation"]) == 1


def _commit_trace(monkeypatch):
    """Record every ``os.fsync`` (by inode) and ``os.replace`` in order."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", _inode(fd)))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", _inode(src), Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def _inode(file):
    st = os.fstat(file) if isinstance(file, int) else os.stat(file)
    return st.st_dev, st.st_ino


def _commit_manifest_twice(root):
    commit_manifest(root, {"name": "first"})
    commit_manifest(root, {"name": "second"})  # this one retains a .prev
    return root / MANIFEST_NAME


def _save_checkpoint(root):
    TaskCheckpoint(root).save(3, np.arange(6.0))
    return root / "task_000003.chunk"


_WRITERS = {
    "chunk": lambda root: _write_chunk(root)[0],
    "manifest": _commit_manifest_twice,
    "index": lambda root: ObservationStore.create(root).root / "store.json",
    "checkpoint": _save_checkpoint,
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writer_fsyncs_shadow_then_renames_then_fsyncs_directory(tmp_path, monkeypatch, writer):
    """Every durable file lands by one protocol: shadow fsync, rename, dir fsync."""
    events = _commit_trace(monkeypatch)
    target = _WRITERS[writer](tmp_path)
    renames = [i for i, e in enumerate(events) if e[0] == "replace" and e[3] == target]
    assert renames, f"{target.name} was never renamed into place"
    at = renames[-1]
    _, shadow_inode, shadow, _ = events[at]
    assert shadow == target.parent / f".shadow-{target.name}"
    assert ("fsync", shadow_inode) in events[:at], "shadow renamed before it was fsynced"
    assert ("fsync", _inode(target.parent)) in events[at + 1 :], (
        "rename not made durable: no directory fsync after it"
    )


def test_spill_retries_torn_writes(tmp_path):
    with resilient(
        _plan("store.write", FaultKind.TORN_WRITE, nth=(3,), max_fires=1)
    ) as ctrl:
        store = _ingest(tmp_path)
        counters = ctrl.report()["counters"]
    assert counters["store.commit_retries"] == 1
    assert counters["faults_injected"] == 1
    assert ObservationStore.open(store.root).scrub_report.clean


# -- manifests -----------------------------------------------------------------


def test_manifest_torn_write_falls_back_to_prev(tmp_path):
    store = _ingest(tmp_path)
    obs_dir = store.root / "obs_0000"
    doc = dict(store.manifest(0))
    with resilient(
        _plan("store.manifest", FaultKind.TORN_WRITE, nth=(1,), max_fires=1)
    ):
        from repro.store import commit_manifest

        with pytest.raises(StoreTornWrite):
            commit_manifest(obs_dir, doc)
    # manifest.json is now truncated garbage; .prev holds the last good one.
    loaded, fallback = load_manifest(obs_dir)
    assert fallback is not None and "not valid JSON" in fallback
    assert loaded["name"] == doc["name"]

    # Open heals: the fallback is recorded and a clean manifest recommitted.
    reopened = ObservationStore.open(store.root)
    fallbacks = reopened.scrub_report.manifest_fallbacks
    assert [f["obs"] for f in fallbacks] == ["obs_0000"]
    doc2, fallback2 = load_manifest(obs_dir)
    assert fallback2 is None and doc2["name"] == doc["name"]


def test_manifest_version_rejected(tmp_path):
    store = _ingest(tmp_path)
    obs_dir = store.root / "obs_0000"
    import json

    raw = json.loads((obs_dir / MANIFEST_NAME).read_text())
    raw["format"] = 99
    (obs_dir / MANIFEST_NAME).write_text(json.dumps(raw))
    (obs_dir / f"{MANIFEST_NAME}.prev").unlink(missing_ok=True)
    with pytest.raises(StoreIntegrityError, match="format version 99"):
        ObservationStore.open(store.root)


# -- scrub ---------------------------------------------------------------------


def test_scrub_clean_store(tmp_path):
    store = _ingest(tmp_path)
    report = ObservationStore.open(store.root).scrub_report
    assert report.clean
    assert report.chunks_checked > 0


def test_scrub_quarantines_orphan_chunk(tmp_path):
    store = _ingest(tmp_path)
    chunks_dir = store.root / "obs_0000" / "chunks"
    stray = chunks_dir / "detdata__ghost__w0000.chunk"
    commit_chunk(
        stray,
        {"key": "detdata/ghost", "window": 0, "start": 0, "stop": 4, "generation": 1},
        np.zeros(4),
    )
    report = ObservationStore.open(store.root).scrub_report
    assert [q["chunk"] for q in report.quarantined] == [stray.name]
    assert not stray.exists()
    assert (store.root / "obs_0000" / "quarantine" / stray.name).exists()


def test_scrub_regenerates_bitrot_from_producer(tmp_path):
    store = _ingest(tmp_path)
    doc = store.manifest(0)
    chunk = doc["arrays"]["detdata/signal"]["chunks"][1]
    path = store.root / "obs_0000" / "chunks" / chunk["file"]
    blob = bytearray(path.read_bytes())
    blob[-9] ^= 0x40
    path.write_bytes(bytes(blob))

    reopened = ObservationStore.open(store.root)
    report = reopened.scrub_report
    assert [q["chunk"] for q in report.quarantined] == [chunk["file"]]
    assert report.regenerated == [chunk["file"]]
    assert verify_chunk(path)["key"] == "detdata/signal"
    # The regenerated bytes match the originals exactly.
    ref = make_satellite_data_shard(_TINY, [0]).obs[0]
    got = reopened.load_observation(0)
    assert np.array_equal(got.detdata["signal"], ref.detdata["signal"])


def test_scrub_without_producer_names_chunk(tmp_path):
    store = ObservationStore.create(tmp_path / "bare", chunk_samples=128)
    ob = make_satellite_data_shard(_TINY, [0]).obs[0]
    store.spill_observation(ob)  # no producer registered in the manifest
    doc = store.manifest(0)
    chunk = doc["arrays"]["detdata/signal"]["chunks"][0]
    path = store.root / "obs_0000" / "chunks" / chunk["file"]
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(
        StoreIntegrityError,
        match=r"obs_0000 chunk\(s\) .*no producer is registered",
    ):
        ObservationStore.open(store.root)


def test_scrub_unknown_producer_names_known(tmp_path):
    store = ObservationStore.create(tmp_path / "bare", chunk_samples=128)
    ob = make_satellite_data_shard(_TINY, [0]).obs[0]
    store.spill_observation(ob, producer={"name": "who-dis", "args": {}})
    doc = store.manifest(0)
    chunk = doc["arrays"]["detdata/signal"]["chunks"][0]
    path = store.root / "obs_0000" / "chunks" / chunk["file"]
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(
        StoreIntegrityError, match=r"'who-dis' is not registered"
    ):
        ObservationStore.open(store.root)


def test_store_index_version_rejected(tmp_path):
    store = _ingest(tmp_path)
    import json

    raw = json.loads((store.root / "store.json").read_text())
    raw["format"] = 41
    (store.root / "store.json").write_text(json.dumps(raw))
    with pytest.raises(StoreIntegrityError, match="format version 41"):
        ObservationStore.open(store.root)


# -- roundtrip and windows -----------------------------------------------------


def test_load_observation_roundtrip(tmp_path):
    store = _ingest(tmp_path)
    ref = make_satellite_data_shard(_TINY, [0, 1])
    for iobs in range(2):
        got = store.load_observation(iobs)
        want = ref.obs[iobs]
        assert (got.name, got.uid, got.n_samples) == (want.name, want.uid, want.n_samples)
        for kind in ("shared", "detdata"):
            arrays, wanted = getattr(got, kind), getattr(want, kind)
            assert sorted(arrays) == sorted(wanted)
            for key in wanted:
                assert same_bits(arrays[key], wanted[key]), f"{kind}/{key}"
        assert sorted(got.intervals) == sorted(want.intervals)
        for key, ivl in want.intervals.items():
            starts, stops = got.intervals[key].as_arrays()
            want_starts, want_stops = ivl.as_arrays()
            assert same_bits(starts, want_starts) and same_bits(stops, want_stops), key
        fp, want_fp = got.focalplane, want.focalplane
        assert fp.detectors == want_fp.detectors
        assert fp.sample_rate == want_fp.sample_rate
        assert same_bits(fp.quat_array(), want_fp.quat_array())
        for attr in ("psi_pol", "pol_leakage", "net", "fknee", "fmin", "alpha"):
            assert getattr(fp, attr) == getattr(want_fp, attr), attr


def test_ingest_saves_the_sky(tmp_path):
    store = ObservationStore.open(_ingest(tmp_path).root)
    assert store.meta_keys() == ["sky_map"]
    assert same_bits(store.load_meta("sky_map"), satellite_sky(_TINY, 0))


def test_windows_are_chunk_aligned(tmp_path):
    store = _ingest(tmp_path, chunk_samples=128)
    assert store.windows(0, 128) == [(s, s + 128) for s in range(0, 1024, 128)]
    # Rounded down to whole chunks, never below one chunk.
    assert store.windows(0, 300) == [(0, 256), (256, 512), (512, 768), (768, 1024)]
    assert store.windows(0, 5) == store.windows(0, 128)
    assert store.windows(0) == store.windows(0, 128)


@pytest.mark.parametrize("window_samples", [0, -7])
def test_windows_reject_non_positive_length(tmp_path, window_samples):
    store = _ingest(tmp_path, chunk_samples=128)
    with pytest.raises(ValueError, match="window_samples must be positive"):
        store.windows(0, window_samples)


def test_window_views_are_copy_on_write(tmp_path):
    store = _ingest(tmp_path)
    ob = store.window_observation(0, 0, 256)
    want = ob.detdata["signal"].copy()
    before = store.root.joinpath(
        "obs_0000", "chunks", "detdata__signal__w0000.chunk"
    ).read_bytes()
    ob.detdata["signal"][:] = -1.0
    after = store.root.joinpath(
        "obs_0000", "chunks", "detdata__signal__w0000.chunk"
    ).read_bytes()
    assert before == after
    # No window's writes reach the next read of the same samples.
    again = store.window_observation(0, 0, 256)
    assert again.detdata["signal"].tobytes() == want.tobytes()


def _stream_once(store, pipe, window_samples=128):
    return stream_pipeline(
        store,
        pipe,
        meta={"sky_map": satellite_sky(_TINY)},
        config=StreamConfig(window_samples=window_samples),
    )


def test_back_to_back_streams_bitwise(tmp_path):
    """Units share one store (and its caches) and one pipeline; noise
    weighting writes into every window's signal, and none of it may reach
    the next unit or the chunk files."""
    store = _ingest(tmp_path)
    chunk_files = sorted(store.root.rglob("*.chunk"))
    before = [p.read_bytes() for p in chunk_files]
    oracle = _stream_oracle(_TINY)
    pipe = satellite_processing_pipeline(
        _TINY.nside, implementation=ImplementationType.NUMPY
    )
    for _ in range(3):
        assert _stream_once(store, pipe)["zmap"].tobytes() == oracle.tobytes()
    assert sorted(store.root.rglob("*.chunk")) == chunk_files
    assert [p.read_bytes() for p in chunk_files] == before


def test_warm_stream_parses_no_headers(tmp_path, monkeypatch):
    import repro.store.format as store_format
    import repro.store.store as store_module

    store = _ingest(tmp_path)
    parses = []
    real = store_format.read_chunk_header

    def counting(path):
        parses.append(Path(path).name)
        return real(path)

    for module in (store_format, store_module):
        monkeypatch.setattr(module, "read_chunk_header", counting, raising=False)
    pipe = satellite_processing_pipeline(
        _TINY.nside, implementation=ImplementationType.NUMPY
    )
    n_chunks = sum(
        len(entry["chunks"])
        for iobs in range(store.n_observations)
        for entry in store.manifest(iobs)["arrays"].values()
    )
    _stream_once(store, pipe)
    assert len(parses) == n_chunks  # the cold unit parses every header once
    _stream_once(store, pipe)
    assert len(parses) == n_chunks  # the warm unit parses none


def _flip_header_byte(path):
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0x01  # inside the header JSON
    path.write_bytes(bytes(blob))


#: Damage applied to a chunk after its header was cached, and the
#: diagnostic the next read must raise.
_CORRUPTIONS = {
    "append-byte": (lambda p: p.write_bytes(p.read_bytes() + b"\0"), "payload truncated"),
    "truncate-payload": (lambda p: p.write_bytes(p.read_bytes()[:-5]), "payload truncated"),
    "flip-header-byte": (_flip_header_byte, "header CRC mismatch"),
    "break-magic": (lambda p: p.write_bytes(b"XXXX" + p.read_bytes()[4:]), "bad magic"),
    "delete": (lambda p: p.unlink(), "is missing"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_cached_read_keeps_every_check(tmp_path, corruption):
    store = _ingest(tmp_path)
    store.window_observation(0, 0, 128)  # caches the window's headers
    chunk = store.manifest(0)["arrays"]["detdata/signal"]["chunks"][0]
    path = store.root / "obs_0000" / "chunks" / chunk["file"]
    damage, message = _CORRUPTIONS[corruption]
    damage(path)
    with pytest.raises(StoreIntegrityError, match=message) as got:
        store.window_observation(0, 0, 128)
    with pytest.raises(StoreIntegrityError) as uncached:
        read_chunk_header(path)
    assert str(got.value) == str(uncached.value)


def test_cached_read_follows_a_recommitted_chunk(tmp_path):
    store = _ingest(tmp_path)
    old = store.window_observation(0, 0, 128).detdata["signal"]
    chunk = store.manifest(0)["arrays"]["detdata/signal"]["chunks"][0]
    path = store.root / "obs_0000" / "chunks" / chunk["file"]
    header = {
        "key": "detdata/signal",
        "window": 0,
        "start": 0,
        "stop": 128,
        "generation": 2,
    }
    commit_chunk(path, header, old * 2.0)
    new = store.window_observation(0, 0, 128).detdata["signal"]
    assert new.tobytes() == (old * 2.0).tobytes()


def _window_bytes(ob):
    return {
        f"{kind}/{key}": arr.tobytes()
        for kind, arrays in (("shared", ob.shared), ("detdata", ob.detdata))
        for key, arr in arrays.items()
    }


def test_regenerated_chunk_reads_back_on_the_fast_path(tmp_path):
    store = _ingest(tmp_path)
    earlier = store.window_observation(0, 0, 128)  # caches the window's headers
    want = _window_bytes(earlier)
    with resilient(named_plan("store-bitrot", seed=0)) as ctrl:
        store.window_observation(0, 0, 128)
        counters = ctrl.report()["counters"]
    assert counters["store.chunks_regenerated"] == 1
    [rotten] = (store.root / "obs_0000" / "quarantine").iterdir()
    fresh = store.root / "obs_0000" / "chunks" / rotten.name
    assert fresh.read_bytes() != rotten.read_bytes()
    # The bit flip hit the file in place; a window read before it is
    # its own array and keeps its bytes.
    assert _window_bytes(earlier) == want

    got = _window_bytes(store.window_observation(0, 0, 128))  # fast path
    header, offset = read_chunk_header(fresh)
    assert got[header["key"]] == fresh.read_bytes()[offset:]
    assert got == want


def test_stream_config_validation():
    with pytest.raises(ValueError, match="host_budget_bytes"):
        StreamConfig(host_budget_bytes=0)
    with pytest.raises(ValueError, match="window_samples"):
        StreamConfig(window_samples=-1)
    with pytest.raises(ValueError, match="offset"):
        FaultSpec(site="store.write", kind=FaultKind.TORN_WRITE, nth=(1,), offset=-1)


# -- streamed parity: the acceptance matrix ------------------------------------


@pytest.mark.parametrize("window_samples", [128, 256, 1024, None])
def test_streamed_eager_bitwise_parity(tmp_path, window_samples):
    store = _ingest(tmp_path)
    oracle = _stream_oracle(_TINY)
    pipe = satellite_processing_pipeline(
        _TINY.nside, implementation=ImplementationType.NUMPY
    )
    out = stream_pipeline(
        store,
        pipe,
        meta={"sky_map": satellite_sky(_TINY)},
        config=StreamConfig(window_samples=window_samples),
    )
    assert same_bits(out["zmap"], oracle)
    if window_samples == 128:
        assert out.stream_windows == 16


def test_streamed_budget_bitwise_parity(tmp_path):
    store = _ingest(tmp_path)
    budget = store.bytes_per_sample(0) * _TINY.n_samples // 4
    pipe = satellite_processing_pipeline(
        _TINY.nside, implementation=ImplementationType.NUMPY
    )
    out = stream_pipeline(
        store,
        pipe,
        meta={"sky_map": satellite_sky(_TINY)},
        config=StreamConfig(host_budget_bytes=budget),
    )
    assert out.stream_windows >= 8
    assert same_bits(out["zmap"], _stream_oracle(_TINY))


def test_streamed_compiled_bitwise_parity(tmp_path):
    store = _ingest(tmp_path)

    def compiled_pipe():
        accel = OmpTargetRuntime()
        p = satellite_processing_pipeline(
            _TINY.nside,
            implementation=ImplementationType.OMP_TARGET,
            accel=accel,
            policy=MovementPolicy.HYBRID,
            plan="compiled",
        )
        return p, accel

    data = make_satellite_data_shard(_TINY, [0, 1])
    cp, caccel = compiled_pipe()
    cp.exec(data, use_accel=True, accel=caccel)

    sp, saccel = compiled_pipe()
    out = stream_pipeline(
        store,
        sp,
        meta={"sky_map": satellite_sky(_TINY)},
        config=StreamConfig(window_samples=256),
        use_accel=True,
        accel=saccel,
    )
    assert same_bits(out["zmap"], data["zmap"])


@pytest.mark.parametrize("n_procs", [1, 4])
def test_streamed_elastic_bitwise_parity(tmp_path, n_procs):
    store = _ingest(tmp_path, size=_PAR_SIZE, chunk_samples=128)
    # The elastic oracle: per-observation partials summed in fixed order.
    oracle = produce_zmap(_PAR_SIZE, ImplementationType.NUMPY, 0)

    config = StreamConfig(window_samples=128)
    out = run_streamed_elastic(store.root, n_procs=n_procs, config=config, scrub=True)
    assert out["n_workers"] == n_procs
    assert same_bits(out["zmap"], oracle)
    # Each task windows its observation as plan_windows does.
    assert out["stream_windows"] == sum(
        len(plan_windows(store, i, config)) for i in range(store.n_observations)
    )
    assert out["stream_windows"] > store.n_observations


def test_streamed_bitrot_recovers_bitwise(tmp_path):
    store = _ingest(tmp_path)
    oracle = _stream_oracle(_TINY)
    with resilient(
        _plan("store.read", FaultKind.BIT_FLIP, nth=(2,), max_fires=1)
    ) as ctrl:
        pipe = satellite_processing_pipeline(
            _TINY.nside, implementation=ImplementationType.NUMPY
        )
        out = stream_pipeline(
            store,
            pipe,
            meta={"sky_map": satellite_sky(_TINY)},
            config=StreamConfig(window_samples=256),
        )
        counters = ctrl.report()["counters"]
    assert counters["faults_injected"] == 1
    assert counters["store.chunks_quarantined"] == 1
    assert counters["store.chunks_regenerated"] == 1
    assert same_bits(out["zmap"], oracle)


def test_store_events_and_metrics(tmp_path):
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        store = _ingest(tmp_path)
        ObservationStore.open(store.root)
    kinds = {e.type for e in tracer.events}
    from repro.obs.events import EventType

    assert EventType.STORE_COMMIT in kinds
    assert EventType.STORE_SCRUB in kinds
    assert tracer.metrics.counters["store.chunks_written"].value > 0
    assert tracer.metrics.counters["store.chunks_scrubbed"].value > 0
