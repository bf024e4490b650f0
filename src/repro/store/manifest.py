"""Versioned, checksummed per-observation manifests.

The manifest is the store's source of truth for one observation: array
layout, chunk list with expected generations and CRCs, intervals,
focalplane metadata, and the registered producer.  It is itself protected
the same way the chunks are: a format version, a CRC32 over its canonical
JSON, and an atomic commit that first retains the previous manifest as
``manifest.json.prev`` -- so a torn manifest write is detected at load and
recovery falls back to the retained previous generation.

The ``store.manifest`` fault site lives here: a TORN_WRITE spec truncates
``manifest.json`` after the previous manifest was retained, modeling a
kill mid-overwrite on a filesystem without atomic-rename guarantees.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..resilience import state as res_state
from .format import StoreIntegrityError, StoreTornWrite, durable_replace

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_NAME",
    "commit_manifest",
    "load_manifest",
]

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


def _canonical(doc: Dict[str, object]) -> bytes:
    body = {k: v for k, v in doc.items() if k != "crc32"}
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _sealed(doc: Dict[str, object]) -> Dict[str, object]:
    out = dict(doc)
    out["format"] = MANIFEST_VERSION
    out["crc32"] = zlib.crc32(_canonical(out)) & 0xFFFFFFFF
    return out


def _validate(raw: bytes, source: str) -> Dict[str, object]:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise StoreIntegrityError(f"{source} is not valid JSON: {err}") from None
    version = doc.get("format")
    if version != MANIFEST_VERSION:
        raise StoreIntegrityError(
            f"{source} has format version {version!r}; this build reads "
            f"version {MANIFEST_VERSION}"
        )
    want = doc.get("crc32")
    got = zlib.crc32(_canonical(doc)) & 0xFFFFFFFF
    if want != got:
        raise StoreIntegrityError(
            f"{source} CRC mismatch (stored {want!r}, computed {got:#010x})"
        )
    return doc


def commit_manifest(obs_dir: Path, doc: Dict[str, object]) -> Dict[str, object]:
    """Atomically replace the observation manifest, retaining the old one.

    Protocol: seal (version + CRC), then :func:`durable_replace` with the
    live manifest moved to ``manifest.json.prev`` between the shadow's
    fsync and its rename.  A crash between the two renames leaves no
    ``manifest.json`` but an intact ``.prev`` -- which
    :func:`load_manifest` falls back to.
    """
    obs_dir = Path(obs_dir)
    path = obs_dir / MANIFEST_NAME
    prev = obs_dir / f"{MANIFEST_NAME}.prev"
    sealed = _sealed(doc)
    blob = json.dumps(sealed, sort_keys=True, indent=1).encode("utf-8")

    ctrl = res_state.active
    spec = None if ctrl is None else ctrl.check("store.manifest", obs=obs_dir.name)
    if spec is None:
        durable_replace(path, blob, prev=prev)
        return sealed
    # Model a kill mid-overwrite: a truncated manifest lands while the
    # retained .prev still holds the previous generation.
    torn_at = spec.offset
    if torn_at is None:
        torn_at = ctrl.rng.randrange(1, max(2, len(blob)))
    torn_at = min(int(torn_at), len(blob))
    if path.exists():
        os.replace(path, prev)
    path.write_bytes(blob[:torn_at])
    raise StoreTornWrite(
        f"writer killed {torn_at} bytes into manifest for {obs_dir.name!r}; "
        f"previous manifest retained as {prev.name!r}"
    )


def load_manifest(obs_dir: Path) -> Tuple[Dict[str, object], Optional[str]]:
    """Load and validate the manifest; returns ``(doc, fallback_reason)``.

    ``fallback_reason`` is ``None`` on the happy path, or a description of
    why ``manifest.json`` was rejected and ``manifest.json.prev`` used
    instead.  Raises :class:`StoreIntegrityError` when neither validates.
    """
    obs_dir = Path(obs_dir)
    path = obs_dir / MANIFEST_NAME
    prev = obs_dir / f"{MANIFEST_NAME}.prev"
    primary_error: Optional[str] = None
    if path.exists():
        try:
            return _validate(path.read_bytes(), f"manifest for {obs_dir.name!r}"), None
        except StoreIntegrityError as err:
            primary_error = str(err)
    else:
        primary_error = f"manifest for {obs_dir.name!r} is missing"
    if prev.exists():
        doc = _validate(prev.read_bytes(), f"previous manifest for {obs_dir.name!r}")
        return doc, primary_error
    raise StoreIntegrityError(
        f"{primary_error}; no previous manifest retained to fall back to"
    )
