"""Host spans at each layer's public boundary, and the per-layer metrics.

The wrappers live here, outside the program: :meth:`Instrumentation.install`
replaces each layer's entry points with wrappers that open a span, call the
original and close the span, and :meth:`Instrumentation.uninstall` puts
every original back.  Spans stay in memory in a :class:`SpanRecorder`
until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .metrics import span_table

__all__ = [
    "SIM_OPERATORS",
    "PIPELINE_KERNELS",
    "SpanRecorder",
    "Instrumentation",
    "unit_layer_metrics",
    "setup_layer_metrics",
    "median_metrics",
]

#: Operators that simulate the inputs; their exec time is ``ops.sim_s``.
SIM_OPERATORS = ("SimSatellite", "SimNoise", "DefaultNoiseModel")

#: The six kernels of the satellite processing pipeline.
PIPELINE_KERNELS = (
    "pointing_detector",
    "pixels_healpix",
    "stokes_weights_IQU",
    "scan_map",
    "noise_weight",
    "build_noise_weighted",
)

#: Span name of bookkeeping the wrappers do outside the wrapped call; a
#: span of its own keeps it out of its parent's self time.
BOOKKEEPING = "trace.bookkeeping"


class SpanRecorder:
    """In-memory host spans (name, start, end, parent) plus counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.names)

    def table(self, lo: int = 0, hi: int = -1) -> Dict[str, Dict[str, float]]:
        """Count, busy and self time per span name over spans ``[lo, hi)``."""
        return span_table(self.names, self.starts, self.ends, self.parents, lo, hi)

    def as_json(self) -> Dict[str, Any]:
        """Compact dump: a name table and ``[name, start, end, parent]`` rows."""
        index: Dict[str, int] = {}
        rows = [
            [index.setdefault(n, len(index)), s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        return {"names": list(index), "spans": rows, "counters": dict(self.counters)}


def _spanned(
    rec: SpanRecorder,
    name: str,
    fn: Callable,
    after: Optional[Callable[[tuple, dict, Any], None]] = None,
) -> Callable:
    """``fn`` inside a span; ``after(args, kwargs, result)`` runs outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            b = rec.open(BOOKKEEPING)
            after(args, kwargs, out)
            rec.close(b)
        return out

    return wrapper


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Instrumentation:
    """Installs and removes the layer-boundary wrappers."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[Any, str, Any]] = []
        self._kernel_wrappers: Dict[Tuple[str, int, bool], Callable] = {}
        self._tracing_depth = 0

    # -- patching helpers ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, _spanned(self.rec, name, cls.__dict__[attr], after))

    def _function(self, module: Any, attr: str, name: str) -> None:
        """Wrap a module function in every ``repro`` module that bound it."""
        original = getattr(module, attr)
        wrapper = _spanned(self.rec, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)

    def _kernel(self, name: str, fn: Callable, stacked: bool) -> Callable:
        """A registered implementation timed as ``kernels.<name>``."""
        key = (name, id(fn), stacked)
        wrapper = self._kernel_wrappers.get(key)
        if wrapper is not None:
            return wrapper
        from repro.core.dispatch import kernel_registry

        rec = self.rec
        spec = kernel_registry.spec(name)

        def after(args, kwargs, _out):
            # Computed from the spec's argument intents, not measured.
            read, written = spec.bytes_moved(args, kwargs)
            rec.count("kernels.bytes_moved", read + written)
            if stacked:
                rec.count("megabatch.stacked_launches")

        wrapper = _spanned(rec, f"kernels.{name}", fn, after if spec is not None else None)
        # The key holds id(fn); keep fn alive alongside its wrapper.
        wrapper.__perfbench_target__ = fn
        self._kernel_wrappers[key] = wrapper
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        import repro.kernels  # noqa: F401  (registers every kernel)
        from repro.accel.device import SimulatedDevice
        from repro.compilepipe import lifetime, planner
        from repro.compilepipe.executor import CompiledRun
        from repro.core import dispatch
        from repro.core.dispatch import BoundKernel, KernelRegistry
        from repro.core.operator import Operator
        from repro.core.pipeline import Pipeline
        from repro.core.timing import GlobalTimers
        from repro.jaxshim.api import JitFunction
        from repro.jaxshim.compile import CompiledFunction
        from repro.kernels.megabatch import MegabatchCollector
        from repro.ompshim import OmpTargetRuntime
        from repro.store import ObservationStore

        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        rec = self.rec
        count = rec.count

        # core.pipeline and ops
        self._method(Pipeline, "exec", "pipeline.exec")
        for cls in _subclasses(Operator):
            if cls is not Pipeline and "exec" in cls.__dict__:
                kind = "ops.sim" if cls.__name__ in SIM_OPERATORS else "ops.exec"
                self._method(cls, "exec", kind)

        # core.dispatch, core.timing, kernels
        self._function(dispatch, "get_kernel", "dispatch.get_kernel")
        self._method(BoundKernel, "__call__", "dispatch.call")
        self._method(GlobalTimers, "record", "timing.record")
        resolve = KernelRegistry.__dict__["resolve"]
        megabatch_impl = KernelRegistry.__dict__["megabatch_impl"]

        def timed_resolve(registry, name, impl, allow_fallback=True):
            fn, won = resolve(registry, name, impl, allow_fallback)
            return self._kernel(name, fn, False), won

        def timed_megabatch_impl(registry, name, impl):
            fn = megabatch_impl(registry, name, impl)
            return None if fn is None else self._kernel(name, fn, True)

        self._set(KernelRegistry, "resolve", timed_resolve)
        self._set(KernelRegistry, "megabatch_impl", timed_megabatch_impl)

        # ompshim: the collapse(3) launcher (its loop bodies are kernel
        # code, timed apart so launch self time is launcher overhead) and
        # the data-mapping directives.
        launch = OmpTargetRuntime.__dict__["target_teams_distribute_parallel_for"]

        @functools.wraps(launch)
        def timed_launch(runtime, name, grid, body, *args, **kwargs):
            def timed_body(i, j, k_vec):
                idx = rec.open("kernels.body")
                try:
                    return body(i, j, k_vec)
                finally:
                    rec.close(idx)

            idx = rec.open("ompshim.launch")
            try:
                return launch(runtime, name, grid, timed_body, *args, **kwargs)
            finally:
                rec.close(idx)

        self._set(OmpTargetRuntime, "target_teams_distribute_parallel_for", timed_launch)
        for attr in ("target_enter_data", "target_exit_data", "target_update_to", "target_update_from"):
            self._method(OmpTargetRuntime, attr, "ompshim.map")

        # accel: the simulated device
        def copied(direction):
            def after(args, kwargs, _out):
                count(f"accel.{direction}_bytes", _arg(args, kwargs, 2, "host").nbytes)

            return after

        for attr, direction in (
            ("update_device", "h2d"),
            ("update_device_async", "h2d"),
            ("update_host", "d2h"),
            ("update_host_async", "d2h"),
        ):
            self._method(SimulatedDevice, attr, f"accel.{direction}", copied(direction))
        self._method(SimulatedDevice, "alloc", "accel.alloc")
        self._method(SimulatedDevice, "free", "accel.free")

        def launched(args, kwargs, _out):
            n = args[3] if len(args) > 3 else kwargs.get("n_launches", 1)
            count("accel.launches", n)

        self._method(SimulatedDevice, "launch", "accel.launch", launched)
        self._method(SimulatedDevice, "launch_async", "accel.launch", launched)

        # jaxshim: jit calls (cache hits unless they trace), tracing, and
        # compiled-graph execution.
        jit_call = JitFunction.__dict__["__call__"]
        jit_trace = JitFunction.__dict__["_trace"]

        @functools.wraps(jit_call)
        def timed_jit_call(fn, *args, **kwargs):
            # Calls made while tracing are inlined into the outer graph.
            count("jaxshim.inline_calls" if self._tracing_depth else "jaxshim.calls")
            idx = rec.open("jaxshim.call")
            try:
                return jit_call(fn, *args, **kwargs)
            finally:
                rec.close(idx)

        @functools.wraps(jit_trace)
        def timed_jit_trace(fn, *args, **kwargs):
            self._tracing_depth += 1
            idx = rec.open("jaxshim.trace")
            try:
                return jit_trace(fn, *args, **kwargs)
            finally:
                rec.close(idx)
                self._tracing_depth -= 1

        self._set(JitFunction, "__call__", timed_jit_call)
        self._set(JitFunction, "_trace", timed_jit_trace)
        self._method(CompiledFunction, "__call__", "jaxshim.execute")

        # kernels.megabatch
        self._method(MegabatchCollector, "offer", "megabatch.offer")
        self._method(MegabatchCollector, "flush", "megabatch.flush")

        # compilepipe: planning and the plan's execution
        self._function(lifetime, "lower_workflow", "compilepipe.plan")
        self._function(planner, "build_plan", "compilepipe.plan")

        def executed(args, _kwargs, _out):
            run = args[0]
            count("compilepipe.transfers_elided", run.transfers_elided)
            count("compilepipe.launches_elided", run.launches_elided)

        self._method(CompiledRun, "execute", "compilepipe.execute", executed)

        # store
        def window_read(_args, _kwargs, ob):
            nbytes = sum(a.nbytes for a in ob.shared.values())
            nbytes += sum(a.nbytes for a in ob.detdata.values())
            count("store.bytes_read", nbytes)

        def spilled(args, _kwargs, iobs):
            doc = args[0].manifest(iobs)
            count("store.chunks_written", sum(len(a["chunks"]) for a in doc["arrays"].values()))

        self._method(ObservationStore, "window_observation", "store.window", window_read)
        self._method(ObservationStore, "spill_observation", "store.spill", spilled)
        store_open = ObservationStore.__dict__["open"].__func__
        self._set(ObservationStore, "open", classmethod(_spanned(rec, "store.open", store_open)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- per-layer metrics ---------------------------------------------------------


def _getter(table: Dict[str, Dict[str, float]]):
    def get(field: str, *names: str) -> float:
        return sum(table[n][field] for n in names if n in table)

    return get


def unit_layer_metrics(
    table: Dict[str, Dict[str, float]], counters: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced unit."""
    get = _getter(table)
    c = counters.get
    jit_calls = c("jaxshim.calls", 0)
    traces = get("count", "jaxshim.trace")
    m = {
        "pipeline.busy_s": get("busy_s", "pipeline.exec"),
        "pipeline.self_s": get("self_s", "pipeline.exec"),
        "ops.busy_s": get("busy_s", "ops.exec"),
        "ops.calls": get("count", "ops.exec"),
        "dispatch.resolves": get("count", "dispatch.get_kernel"),
        "dispatch.kernel_calls": get("count", "dispatch.call"),
        "dispatch.self_s": get("self_s", "dispatch.get_kernel", "dispatch.call"),
        "timing.records": get("count", "timing.record"),
        "timing.self_s": get("self_s", "timing.record"),
        "kernels.calls": get("count", *(f"kernels.{k}" for k in _kernel_names(table))),
        "kernels.bytes_moved": c("kernels.bytes_moved", 0),
        "ompshim.launches": get("count", "ompshim.launch"),
        "ompshim.launch_self_s": get("self_s", "ompshim.launch"),
        "ompshim.map_calls": get("count", "ompshim.map"),
        "ompshim.map_s": get("busy_s", "ompshim.map"),
        "accel.h2d_copies": get("count", "accel.h2d"),
        "accel.d2h_copies": get("count", "accel.d2h"),
        "accel.h2d_bytes": c("accel.h2d_bytes", 0),
        "accel.d2h_bytes": c("accel.d2h_bytes", 0),
        "accel.allocs": get("count", "accel.alloc"),
        "accel.launches": c("accel.launches", 0),
        "accel.copy_s": get("busy_s", "accel.h2d", "accel.d2h"),
        "jaxshim.cache_hit_ratio": (jit_calls - traces) / jit_calls if jit_calls else 0.0,
        "jaxshim.execute_s": get("busy_s", "jaxshim.execute"),
        "megabatch.offers": get("count", "megabatch.offer"),
        "megabatch.stacked_launches": c("megabatch.stacked_launches", 0),
        "megabatch.flush_self_s": get("self_s", "megabatch.flush"),
        "compilepipe.plan_s": get("busy_s", "compilepipe.plan"),
        "compilepipe.execute_self_s": get("self_s", "compilepipe.execute"),
        "compilepipe.transfers_elided": c("compilepipe.transfers_elided", 0),
        "compilepipe.launches_elided": c("compilepipe.launches_elided", 0),
        "store.windows": get("count", "store.window"),
        "store.read_s": get("busy_s", "store.window"),
        "store.bytes_read": c("store.bytes_read", 0),
    }
    for k in PIPELINE_KERNELS:
        m[f"kernels.{k}.busy_s"] = get("busy_s", f"kernels.{k}")
    return m


def _kernel_names(table: Dict[str, Dict[str, float]]) -> List[str]:
    return [n[len("kernels."):] for n in table if n.startswith("kernels.") and n != "kernels.body"]


def setup_layer_metrics(
    table: Dict[str, Dict[str, float]], counters: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics measured over the traced set-up instead of per unit."""
    get = _getter(table)
    return {
        "ops.sim_s": get("busy_s", "ops.sim"),
        "jaxshim.traces": get("count", "jaxshim.trace"),
        "jaxshim.trace_s": get("busy_s", "jaxshim.trace"),
        "store.write_s": get("busy_s", "store.spill"),
        "store.chunks_written": counters.get("store.chunks_written", 0),
        "store.open_s": get("busy_s", "store.open"),
    }


def median_metrics(per_unit: Sequence[Dict[str, float]]) -> Tuple[Dict[str, float], bool]:
    """Median of each metric over units, and whether every count repeated.

    A metric counts as a count when its name does not end in ``_s`` or
    ``_ratio``; those must read the same in every unit.
    """
    keys = per_unit[0].keys()
    out = {k: statistics.median(u[k] for u in per_unit) for k in keys}
    counts = [k for k in keys if not k.endswith(("_s", "_ratio"))]
    repeat = all(u[k] == per_unit[0][k] for u in per_unit for k in counts)
    return out, repeat
