"""Map export to ``.npz`` volumes.

A map volume holds the pixelized map with its HEALPix metadata (nside and
pixel ordering).  Observations are stored and loaded through
:class:`~repro.store.ObservationStore`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

__all__ = ["save_map", "load_map"]


def save_map(map_data: np.ndarray, path: Union[str, Path], nside: int, nest: bool = True) -> Path:
    """Write a pixelized map with its HEALPix metadata."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    np.savez_compressed(
        path,
        map=np.asarray(map_data),
        nside=np.int64(nside),
        nest=np.bool_(nest),
    )
    return path


def load_map(path: Union[str, Path]) -> tuple[np.ndarray, int, bool]:
    """Read a map volume; returns ``(map, nside, nest)``."""
    with np.load(Path(path)) as volume:
        return np.array(volume["map"]), int(volume["nside"]), bool(volume["nest"])
