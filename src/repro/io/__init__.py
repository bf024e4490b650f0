"""Data export.

The paper's reported runtimes include "everything from the time needed to
load the data to the time needed to export the outputs".  Loading goes
through :mod:`repro.store` (observations spilled into, and streamed back
from, an :class:`~repro.store.ObservationStore`); this package exports
the output maps as compressed ``.npz`` volumes (the dependency-free
stand-in for TOAST's HDF5 format).
"""

from .volumes import load_map, save_map

__all__ = ["save_map", "load_map"]
