"""The offload runtime object kernels are written against.

One :class:`OmpTargetRuntime` wraps one simulated device and exposes the
OpenMP device API (``omp_target_alloc``/``free``/``memcpy``), the data
environment (``target_data``, ``target_enter_data``/``exit_data``,
``target_update_*``), and the collapsed-loop kernel launcher.
:func:`collapse3` is that launcher's iteration space, shared with the
host fallback launcher.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..accel import DeviceBuffer, SimulatedDevice
from ..obs import state as obs_state
from ..obs.events import EventType
from ..resilience import state as res_state
from .datamap import MapClause, PresentTable
from .errors import MappingError, TargetRegionError

__all__ = ["OmpTargetRuntime", "collapse3"]


def collapse3(grid: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The iterations of a collapse(3) loop nest over ``grid``, in loop order.

    Returns the index vectors ``(i, j, k)``: entry ``n`` is the ``n``-th
    iteration of ``for i: for j: for k:`` -- ``i`` outermost, ``k``
    innermost -- exactly ``np.indices(grid).reshape(3, -1)``.  A loop body
    receives all three at once; in-body scatters (``np.add.at``) then add
    in the order the nested loop would.  Raises ``ValueError`` on a
    negative extent.
    """
    n_outer, n_middle, n_inner = (int(g) for g in grid)
    if min(n_outer, n_middle, n_inner) < 0:
        raise ValueError(f"negative grid {grid}")
    i, j, k = np.indices((n_outer, n_middle, n_inner)).reshape(3, -1)
    return i, j, k


class OmpTargetRuntime:
    """OpenMP Target Offload over a simulated device.

    Parameters
    ----------
    device:
        The accelerator; defaults to a fresh A100-like device.
    default_teams / default_threads:
        The launch geometry used for cost modeling when a kernel does not
        override it (A100: 108 SMs, 1024 threads is a typical pick).
    """

    def __init__(
        self,
        device: Optional[SimulatedDevice] = None,
        default_teams: int = 108,
        default_threads: int = 1024,
    ):
        self.device = device if device is not None else SimulatedDevice()
        self.present = PresentTable(self.device)
        self.default_teams = default_teams
        self.default_threads = default_threads

    def _region_event(self, name: str, **attrs) -> None:
        """A TARGET_REGION instant on the device timeline.

        Callers guard with ``obs_state.active is not None`` so disabled
        tracing never pays the call.
        """
        tr = obs_state.active
        if tr is not None:
            tr.device_event(
                EventType.TARGET_REGION, name, ts=self.device.clock.now, **attrs
            )

    # -- the omp_target_* device API -------------------------------------------

    def omp_get_num_devices(self) -> int:
        return 1

    def omp_target_alloc(self, nbytes: int) -> DeviceBuffer:
        """Raw device allocation (backed by the memory pool)."""
        return self.device.alloc(nbytes)

    def omp_target_free(self, buf: DeviceBuffer) -> None:
        self.device.free(buf)

    def omp_target_memcpy(
        self, dst, src, nbytes: int, direction: str
    ) -> None:
        """Copy ``nbytes`` between host arrays and device buffers.

        ``direction`` is "h2d" or "d2h"; mirrors ``omp_target_memcpy``'s
        explicit device/host operand roles.
        """
        if direction == "h2d":
            if not isinstance(dst, DeviceBuffer) or not isinstance(src, np.ndarray):
                raise MappingError("h2d copy needs (DeviceBuffer, ndarray)")
            if src.nbytes < nbytes or dst.nbytes < nbytes:
                raise MappingError("memcpy size exceeds an operand")
            self.device.update_device(dst, src.view(np.uint8).reshape(-1)[:nbytes])
        elif direction == "d2h":
            if not isinstance(dst, np.ndarray) or not isinstance(src, DeviceBuffer):
                raise MappingError("d2h copy needs (ndarray, DeviceBuffer)")
            if dst.nbytes < nbytes or src.nbytes < nbytes:
                raise MappingError("memcpy size exceeds an operand")
            self.device.update_host(src, dst.view(np.uint8).reshape(-1)[:nbytes])
        else:
            raise MappingError(f"unknown memcpy direction {direction!r}")

    # -- data environment ---------------------------------------------------------

    def target_enter_data(
        self,
        to: Iterable[np.ndarray] = (),
        alloc: Iterable[np.ndarray] = (),
        labels: Optional[dict] = None,
    ) -> None:
        """Map arrays in.  ``labels`` (id(array) -> name) tags the device
        allocations with their owning kernel/field for pool diagnostics."""
        to, alloc = list(to), list(alloc)
        labels = labels or {}
        if obs_state.active is not None:
            self._region_event("target_enter_data", n_to=len(to), n_alloc=len(alloc))
        for arr in to:
            self.present.enter(arr, MapClause.TO, label=labels.get(id(arr)))
        for arr in alloc:
            self.present.enter(arr, MapClause.ALLOC, label=labels.get(id(arr)))

    def target_exit_data(
        self,
        from_: Iterable[np.ndarray] = (),
        release: Iterable[np.ndarray] = (),
        delete: Iterable[np.ndarray] = (),
    ) -> None:
        from_, release, delete = list(from_), list(release), list(delete)
        if obs_state.active is not None:
            self._region_event(
                "target_exit_data",
                n_from=len(from_),
                n_release=len(release),
                n_delete=len(delete),
            )
        for arr in from_:
            self.present.exit(arr, MapClause.FROM)
        for arr in release:
            self.present.exit(arr, MapClause.ALLOC)
        for arr in delete:
            self.present.exit(arr, MapClause.DELETE)

    @contextmanager
    def target_data(
        self,
        to: Iterable[np.ndarray] = (),
        from_: Iterable[np.ndarray] = (),
        tofrom: Iterable[np.ndarray] = (),
        alloc: Iterable[np.ndarray] = (),
    ) -> Iterator["OmpTargetRuntime"]:
        """``#pragma omp target data map(...)`` as a context manager."""
        to, from_, tofrom, alloc = map(list, (to, from_, tofrom, alloc))
        if obs_state.active is not None:
            self._region_event(
                "target_data.enter",
                n_to=len(to),
                n_from=len(from_),
                n_tofrom=len(tofrom),
                n_alloc=len(alloc),
            )
        for arr in to:
            self.present.enter(arr, MapClause.TO)
        for arr in tofrom:
            self.present.enter(arr, MapClause.TOFROM)
        for arr in from_:
            self.present.enter(arr, MapClause.FROM)
        for arr in alloc:
            self.present.enter(arr, MapClause.ALLOC)
        try:
            yield self
        finally:
            if obs_state.active is not None:
                self._region_event(
                    "target_data.exit",
                    n_to=len(to),
                    n_from=len(from_),
                    n_tofrom=len(tofrom),
                    n_alloc=len(alloc),
                )
            for arr in alloc:
                self.present.exit(arr, MapClause.ALLOC)
            for arr in from_:
                self.present.exit(arr, MapClause.FROM)
            for arr in tofrom:
                self.present.exit(arr, MapClause.TOFROM)
            for arr in to:
                self.present.exit(arr, MapClause.ALLOC)  # no copy-back for to:

    def target_update_to(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            self.present.update_to(arr)

    def target_update_from(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            self.present.update_from(arr)

    def device_view(self, host: np.ndarray) -> np.ndarray:
        """Dereference a mapped pointer inside a target region."""
        return self.present.device_view(host)

    def is_present(self, host: np.ndarray) -> bool:
        return self.present.is_present(host)

    # -- kernel launch ---------------------------------------------------------------

    def target_teams_distribute_parallel_for(
        self,
        name: str,
        grid: Tuple[int, int, int],
        body: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
        flops_per_iteration: float = 10.0,
        bytes_per_iteration: float = 24.0,
        nowait: bool = False,
    ) -> None:
        """``#pragma omp target teams distribute parallel for collapse(3)``.

        The collapsed iteration space is ``grid = (n_outer, n_middle,
        n_inner)`` -- for TOAST kernels (detectors, intervals, padded
        samples).  Teams map onto the two outer axes and the inner axis is
        the thread/SIMD dimension; a GPU runs every iteration of the region
        concurrently, and so does this shim: ``body(i, j, k)`` is called
        once per launch with the index vectors of :func:`collapse3`, one
        entry per iteration, in loop order.  A grid with no iterations
        never calls ``body``.

        The guard against out-of-interval lanes (the paper's "test to cut
        work", §3.1.2) belongs inside ``body``: a boolean mask computed
        from all three vectors and applied to each of them.

        The launch charges the device roofline cost for the whole grid.
        With ``nowait=True`` the submission returns immediately (the
        ``nowait`` clause): device time accrues on the device timeline and
        the host must :meth:`taskwait` (or touch mapped data, which syncs)
        before consuming results.
        """
        i, j, k = collapse3(grid)
        ctrl = res_state.active
        if ctrl is not None:
            spec_fault = ctrl.check(
                "ompshim.target_region", clock=self.device.clock, kernel=name
            )
            if spec_fault is not None:
                # TARGET_FAIL: the offload itself failed before any work or
                # data motion; transient, so dispatch-level retry re-enters.
                raise TargetRegionError(name)
        total = len(k)
        spec = self.device.spec
        seconds = max(
            total * flops_per_iteration / spec.peak_fp64_flops,
            total * bytes_per_iteration / spec.memory_bandwidth_bps,
        )
        if obs_state.active is not None:
            self._region_event(
                "target_teams." + name,
                grid=[int(g) for g in grid],
                teams=self.default_teams,
                threads=self.default_threads,
                nowait=nowait,
            )
        if nowait:
            self.device.launch_async(name, seconds, n_launches=1)
        else:
            self.device.launch(name, seconds, n_launches=1)
        if total:
            body(i, j, k)

    def taskwait(self) -> None:
        """``#pragma omp taskwait``: block until async target work finishes."""
        self.device.synchronize()

    # -- lifecycle ---------------------------------------------------------------------

    def recover_device(self) -> None:
        """Recover from device loss: forget mappings, revive the device.

        Device-resident data is gone (the loss scrambled it), so the
        present table is invalidated without copy-back and the device comes
        back with a fresh, empty pool.  Callers then re-stage what they
        need from host copies -- the pipeline does this from its last
        per-stage checkpoint.
        """
        self.present.invalidate()
        self.device.revive()

    def reset(self) -> None:
        """Drop all mappings and device accounting (test isolation)."""
        self.present.clear()
        self.device.reset_all()
