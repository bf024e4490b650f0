"""The present table: host <-> device association with OpenMP semantics.

OpenMP's device data environment tracks which host storage is mapped to
device storage, with reference counting so nested ``target data`` regions
compose: mapping an already-present array bumps the count; data moves only
on the 0 -> 1 and 1 -> 0 transitions (``to`` on entry, ``from`` on exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

import numpy as np

from ..accel import DeviceBuffer, SimulatedDevice
from ..obs import state as obs_state
from ..obs.events import EventType
from .errors import MappingError, NotPresentError

__all__ = ["MapClause", "PresentTable", "Association"]


class MapClause(Enum):
    """The map-type of a clause, as in ``map(to: x)``."""

    TO = "to"  # copy host->device on entry
    FROM = "from"  # copy device->host on exit
    TOFROM = "tofrom"  # both
    ALLOC = "alloc"  # allocate only, no copies
    DELETE = "delete"  # force removal on exit


@dataclass
class Association:
    """One present-table entry."""

    host: np.ndarray
    buffer: DeviceBuffer
    refcount: int
    copy_back: bool  # any enclosing clause requested from/tofrom


class PresentTable:
    """Host-array to device-buffer association with reference counts."""

    def __init__(self, device: SimulatedDevice):
        self.device = device
        self._table: Dict[int, Association] = {}

    def __len__(self) -> int:
        return len(self._table)

    def is_present(self, host: np.ndarray) -> bool:
        return id(host) in self._table

    def lookup(self, host: np.ndarray) -> Association:
        try:
            return self._table[id(host)]
        except KeyError:
            raise NotPresentError(f"array of shape {np.shape(host)}") from None

    def enter(
        self, host: np.ndarray, clause: MapClause, label: str | None = None
    ) -> Association:
        """Map an array in (the entry half of a data region).

        ``label`` names the owning kernel/field; it is threaded down to the
        device allocation so its trace event identifies the buffer.
        """
        if clause in (MapClause.FROM, MapClause.DELETE):
            # from-only still allocates on entry (OpenMP alloc-on-entry).
            entry_clause = MapClause.ALLOC if clause is MapClause.FROM else clause
        else:
            entry_clause = clause
        if entry_clause is MapClause.DELETE:
            raise MappingError("map(delete:) is only meaningful on region exit")
        if not isinstance(host, np.ndarray):
            raise MappingError(
                f"only ndarrays can be mapped, got {type(host).__name__}"
            )
        if not host.flags["C_CONTIGUOUS"]:
            raise MappingError("only contiguous arrays can be mapped to the device")

        key = id(host)
        assoc = self._table.get(key)
        fresh = assoc is None
        if assoc is not None:
            if assoc.host.nbytes != host.nbytes:
                raise MappingError("present array remapped with a different size")
            assoc.refcount += 1
        else:
            buf = self.device.alloc(max(1, host.nbytes), label=label)
            assoc = Association(host=host, buffer=buf, refcount=1, copy_back=False)
            self._table[key] = assoc
            if entry_clause in (MapClause.TO, MapClause.TOFROM):
                self.device.update_device(buf, host)
        if clause in (MapClause.FROM, MapClause.TOFROM):
            assoc.copy_back = True
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.TARGET_REGION,
                "datamap.enter",
                ts=self.device.clock.now,
                clause=clause.value,
                nbytes=host.nbytes,
                refcount=assoc.refcount,
                mapped=fresh,
            )
        return assoc

    def exit(self, host: np.ndarray, clause: MapClause) -> None:
        """Unmap an array (the exit half of a data region)."""
        assoc = self.lookup(host)
        if clause is MapClause.DELETE:
            assoc.refcount = 0
        else:
            assoc.refcount -= 1
        if assoc.refcount < 0:
            raise MappingError("present-table refcount underflow (unbalanced exit)")
        unmapped = assoc.refcount == 0
        if unmapped:
            if clause in (MapClause.FROM, MapClause.TOFROM) or (
                assoc.copy_back and clause is not MapClause.DELETE
            ):
                self.device.update_host(assoc.buffer, assoc.host)
            self.device.free(assoc.buffer)
            del self._table[id(host)]
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.TARGET_REGION,
                "datamap.exit",
                ts=self.device.clock.now,
                clause=clause.value,
                nbytes=assoc.host.nbytes,
                refcount=assoc.refcount,
                unmapped=unmapped,
            )

    def update_to(self, host: np.ndarray) -> None:
        """``target update to(x)``: refresh the device copy."""
        assoc = self.lookup(host)
        self.device.update_device(assoc.buffer, host)

    def update_from(self, host: np.ndarray) -> None:
        """``target update from(x)``: refresh the host copy."""
        assoc = self.lookup(host)
        self.device.update_host(assoc.buffer, host)

    def device_view(self, host: np.ndarray) -> np.ndarray:
        """The device-side typed array for a mapped host array.

        This is what a target region sees when it dereferences the mapped
        pointer; mutating it mutates device memory only.
        """
        assoc = self.lookup(host)
        return assoc.buffer.array(host.dtype, host.shape)

    def clear(self) -> None:
        """Drop every association without copying back (device reset)."""
        for assoc in list(self._table.values()):
            self.device.free(assoc.buffer)
        self._table.clear()

    def invalidate(self) -> None:
        """Forget every association without touching the device.

        Used after device loss: the buffers hold garbage and the pool is
        about to be rebuilt, so neither copy-back nor free is meaningful.
        Host arrays keep whatever data they last had.
        """
        self._table.clear()
