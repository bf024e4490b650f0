"""Chunk binary format and the crash-consistent commit protocol.

One chunk holds one sample-window of one array.  On-disk layout::

    MAGIC (4 bytes) | u32 header_len | header JSON | u32 header_crc | payload

The header carries the array key, window bounds, generation number, dtype,
shape, and the payload's CRC32 -- enough to detect truncation, torn
writes, and bit flips without any other file.

Every file the store and the task checkpoints write -- chunks, manifests,
the store index -- commits through :func:`durable_replace`: the bytes go
to a same-directory shadow file, flushed and fsynced, which is then
renamed over the destination (never overwriting a live file's bytes in
place), and the directory is fsynced so the rename itself is durable.  A
crash at any point leaves either the old generation or the new one --
plus possibly a shadow file, which the open-time scrub removes.

The ``store.write`` fault site lives here: a TORN_WRITE spec makes the
commit write only a prefix of the shadow and raise
:class:`StoreTornWrite`, modeling a kill mid-write.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Set, Tuple, Union

import numpy as np

from ..resilience import state as res_state

__all__ = [
    "CHUNK_MAGIC",
    "SHADOW_PREFIX",
    "StoreError",
    "StoreTornWrite",
    "StoreIntegrityError",
    "encode_chunk",
    "durable_replace",
    "commit_chunk",
    "read_chunk_header",
    "verify_chunk",
    "read_payload",
]

CHUNK_MAGIC = b"RSC1"
SHADOW_PREFIX = ".shadow-"

#: Shadow files created but not yet renamed (or cleaned) by this process;
#: the test-suite leak sentinel checks this drains back to empty.
PENDING_SHADOWS: Set[Path] = set()

#: Every store root this process has touched; the leak sentinel sweeps
#: these for orphaned shadow files after each test.
SEEN_ROOTS: Set[Path] = set()


class StoreError(RuntimeError):
    """Base class for observation-store failures."""


class StoreTornWrite(StoreError):
    """The writer died mid-commit; only a prefix of the shadow landed."""


class StoreIntegrityError(StoreError):
    """A chunk or manifest failed validation; the message says exactly how."""


def encode_chunk(header: Dict[str, object], payload: np.ndarray) -> bytes:
    """Serialize a chunk: magic, framed header, header CRC, raw payload."""
    payload = np.ascontiguousarray(payload)
    body = payload.tobytes()
    full_header = dict(header)
    full_header["dtype"] = str(payload.dtype)
    full_header["shape"] = list(payload.shape)
    full_header["payload_nbytes"] = len(body)
    full_header["payload_crc32"] = zlib.crc32(body) & 0xFFFFFFFF
    hdr = json.dumps(full_header, sort_keys=True).encode("utf-8")
    hdr_crc = zlib.crc32(hdr) & 0xFFFFFFFF
    return b"".join(
        [
            CHUNK_MAGIC,
            np.uint32(len(hdr)).tobytes(),
            hdr,
            np.uint32(hdr_crc).tobytes(),
            body,
        ]
    )


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_replace(
    path: Path,
    blob: bytes,
    torn_at: Optional[int] = None,
    prev: Optional[Path] = None,
) -> None:
    """Replace ``path`` with ``blob``: shadow write + fsync + rename + dir fsync.

    The shadow (``.shadow-<name>`` beside ``path``) is tracked in
    :data:`PENDING_SHADOWS` until its rename.  ``prev`` retains the live
    file under that name just before the rename.  ``torn_at`` models a
    writer killed mid-write: only that prefix of the shadow lands, and
    :class:`StoreTornWrite` is raised with the shadow left on disk for
    the scrub to find, exactly as a real kill would leave it.
    """
    shadow = path.parent / f"{SHADOW_PREFIX}{path.name}"
    PENDING_SHADOWS.add(shadow)
    with open(shadow, "wb") as f:
        f.write(blob if torn_at is None else blob[:torn_at])
        f.flush()
        os.fsync(f.fileno())
    if torn_at is not None:
        raise StoreTornWrite(
            f"writer killed {torn_at} bytes into the shadow for "
            f"{path.name!r}; live file untouched"
        )
    if prev is not None and path.exists():
        os.replace(path, prev)
    os.replace(shadow, path)
    PENDING_SHADOWS.discard(shadow)
    _fsync_dir(path.parent)


def commit_chunk(path: Path, header: Dict[str, object], payload: np.ndarray) -> None:
    """Atomically commit one chunk through :func:`durable_replace`.

    The live chunk at ``path`` (if any) is never opened for writing; a
    kill at any byte of this function leaves it bitwise intact.  Raises
    :class:`StoreTornWrite` when a TORN_WRITE fault fires at
    ``store.write``.
    """
    path = Path(path)
    blob = encode_chunk(header, payload)
    torn_at = None
    ctrl = res_state.active
    if ctrl is not None:
        spec = ctrl.check("store.write", chunk=path.name)
        if spec is not None:
            torn_at = spec.offset
            if torn_at is None:
                torn_at = ctrl.rng.randrange(1, max(2, len(blob)))
            torn_at = min(int(torn_at), len(blob))
    durable_replace(path, blob, torn_at=torn_at)


def read_chunk_header(path: Path) -> Tuple[Dict[str, object], int]:
    """Validate framing and return ``(header, payload_offset)``.

    Checks magic, header length, and header CRC; payload bytes are not
    read.  Raises :class:`StoreIntegrityError` naming the exact failure.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        raise StoreIntegrityError(f"chunk {path.name!r} is missing") from None
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHUNK_MAGIC:
            raise StoreIntegrityError(
                f"chunk {path.name!r} has bad magic {magic!r} "
                f"(expected {CHUNK_MAGIC!r})"
            )
        raw_len = f.read(4)
        if len(raw_len) < 4:
            raise StoreIntegrityError(f"chunk {path.name!r} truncated in header frame")
        hdr_len = int(np.frombuffer(raw_len, dtype=np.uint32)[0])
        hdr = f.read(hdr_len)
        raw_crc = f.read(4)
        if len(hdr) < hdr_len or len(raw_crc) < 4:
            raise StoreIntegrityError(f"chunk {path.name!r} truncated in header frame")
        want_crc = int(np.frombuffer(raw_crc, dtype=np.uint32)[0])
        got_crc = zlib.crc32(hdr) & 0xFFFFFFFF
        if got_crc != want_crc:
            raise StoreIntegrityError(
                f"chunk {path.name!r} header CRC mismatch "
                f"(stored {want_crc:#010x}, computed {got_crc:#010x})"
            )
        header = json.loads(hdr.decode("utf-8"))
        payload_offset = 4 + 4 + hdr_len + 4
    _check_size(path.name, size, payload_offset + int(header["payload_nbytes"]))
    return header, payload_offset


def _check_size(name: str, size: int, expected: int) -> None:
    if size != expected:
        raise StoreIntegrityError(
            f"chunk {name!r} payload truncated: file is {size} bytes, "
            f"header promises {expected}"
        )


def verify_chunk(path: Path) -> Dict[str, object]:
    """Full validation including the payload CRC; returns the header."""
    header, offset = read_chunk_header(path)
    with open(path, "rb") as f:
        f.seek(offset)
        body = f.read()
    got = zlib.crc32(body) & 0xFFFFFFFF
    want = int(header["payload_crc32"])
    if got != want:
        raise StoreIntegrityError(
            f"chunk {path.name!r} payload CRC mismatch "
            f"(stored {want:#010x}, computed {got:#010x}): bit rot or torn write"
        )
    return header


class HeaderFrame(NamedTuple):
    """What :func:`read_payload` keeps of a validated header: the file's
    first bytes up to the payload (magic, length, header JSON with its
    generation and payload CRC, header CRC) and the payload's shape, dtype
    and size, parsed once."""

    frame: bytes
    shape: Tuple[int, ...]
    dtype: np.dtype
    nbytes: int


def read_payload(
    path: Union[str, Path], known: Optional[HeaderFrame] = None
) -> Tuple[np.ndarray, HeaderFrame]:
    """Read one chunk's payload into a fresh, writable array.

    Returns ``(array, frame)``; pass ``frame`` back as ``known`` on the
    next read of the same path to skip parsing the header.  One ``readv``
    fills a copy of the frame and the payload; the copy must still equal
    ``known.frame`` -- on any mismatch the header is re-parsed through
    :func:`read_chunk_header`, which raises its usual diagnostics.  Either
    way the file size must match the header and the payload must arrive in
    that one read.  The payload CRC is not checked here (see
    :func:`verify_chunk`).
    """
    path = os.fspath(path)
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        raise StoreIntegrityError(f"chunk {os.path.basename(path)!r} is missing") from None
    try:
        if known is not None:
            frame = bytearray(len(known.frame))
            out = np.empty(known.shape, known.dtype)
            got = os.readv(fd, (frame, out))
            if got < len(frame) or frame != known.frame:
                known = None
        if known is None:
            header, offset = read_chunk_header(path)
            os.lseek(fd, 0, os.SEEK_SET)
            frame = bytearray(offset)
            out = np.empty(tuple(header["shape"]), dtype=np.dtype(header["dtype"]))
            got = os.readv(fd, (frame, out))
            known = HeaderFrame(bytes(frame), out.shape, out.dtype, int(header["payload_nbytes"]))
        offset = len(known.frame)
        _check_size(os.path.basename(path), os.fstat(fd).st_size, offset + known.nbytes)
    finally:
        os.close(fd)
    if got != offset + known.nbytes:
        raise StoreIntegrityError(
            f"chunk {os.path.basename(path)!r} short read: got {got - offset} "
            f"of {known.nbytes} payload bytes"
        )
    return out, known
