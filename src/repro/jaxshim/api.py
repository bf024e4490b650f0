"""The transformation API: :func:`jit` and :func:`vmap`.

These are the two transformations the TOAST port uses (paper §3.1.3: loops
become ``vmap`` calls and the resulting functions are ``jax.jit``-compiled
with static arguments such as the maximum interval size, and with output
memory donated for reuse).
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from ..obs import state as obs_state
from ..obs.events import ClockDomain as ObsClockDomain
from ..obs.events import Event as ObsEvent
from ..obs.events import EventType as ObsEventType
from . import primitives as P
from .batching import BatchTrace, BatchTracer
from .compile import CompiledFunction, estimate_compile_time
from .config import config
from .core import ShapedArray, Tracer, bind, new_trace
from .devices import current_device
from .errors import JaxshimError
from .pytree import TreeDef, tree_flatten, tree_map, tree_unflatten
from .tracer import JitTrace

__all__ = ["jit", "vmap", "make_graph", "grad_not_supported"]


def make_graph(fn: Callable, static_argnums: Sequence[int] = ()) -> Callable:
    """Return a function that traces ``fn`` and returns its optimized graph
    (the shim's ``jax.make_jaxpr``): the "HLO" the compiler would consume.

    >>> print(make_graph(lambda x: (x * 2 + 1).sum())(np.zeros(4)))
    graph(%0:float64[4]):
      ...
    """

    def traced(*args):
        jf = JitFunction(fn, tuple(static_argnums))
        key, dyn_leaves, spans = jf._signature(args)
        exe, _ = jf._trace(args, dyn_leaves, spans)
        return exe.graph

    return traced


def grad_not_supported(fn: Callable) -> Callable:
    """Placeholder for ``jax.grad``.

    The paper uses JAX purely as a numerical kernel compiler; automatic
    differentiation is outside the reproduced scope, and asking for it
    should fail loudly rather than silently return garbage.
    """

    def raiser(*args, **kwargs):
        raise NotImplementedError(
            "automatic differentiation is not part of this reproduction: "
            "the paper evaluates JAX as a kernel compiler (jit + vmap), "
            "not as an autodiff system"
        )

    return raiser


def _canonicalize_leaf(leaf: Any) -> np.ndarray:
    arr = np.asarray(leaf)
    if arr.dtype == object:
        raise TypeError(
            f"jit arguments must be arrays or numbers, got {type(leaf).__name__}; "
            "mark non-array arguments static with static_argnums"
        )
    return arr.astype(config.canonical_dtype(arr.dtype), copy=False)


def _static_key(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class JitFunction:
    """A traced-and-cached function (the object ``jit`` returns).

    Tracing happens once per signature -- the pytree structure, shapes and
    dtypes of dynamic arguments plus the values of static ones (paper
    §2.3.1: "subsequent runs will reuse the compiled function").
    """

    def __init__(
        self,
        fn: Callable,
        static_argnums: Tuple[int, ...] = (),
        donate_argnums: Tuple[int, ...] = (),
        name: Optional[str] = None,
    ):
        self.fn = fn
        self.static_argnums = tuple(sorted(set(int(i) for i in static_argnums)))
        self.donate_argnums = tuple(sorted(set(int(i) for i in donate_argnums)))
        overlap = set(self.static_argnums) & set(self.donate_argnums)
        if overlap:
            raise ValueError(f"arguments {sorted(overlap)} cannot be both static and donated")
        self.name = name or getattr(fn, "__name__", "jit_fn")
        #: Signature -> executable, in recency order (LRU at the front).
        self._cache: OrderedDict[Any, Tuple[CompiledFunction, TreeDef]] = OrderedDict()
        self.n_traces = 0
        self.cache_evictions = 0
        functools.update_wrapper(self, fn)

    # -- introspection --------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def compiled_for(self, *args) -> Optional[CompiledFunction]:
        """The executable cached for this call signature, if any."""
        key, _, _ = self._signature(args)
        entry = self._cache.get(key)
        return entry[0] if entry else None

    # -- call -------------------------------------------------------------------

    def _signature(self, args):
        statics = []
        dyn_leaves: list[np.ndarray] = []
        dyn_tds: list[TreeDef] = []
        arg_leaf_spans: list[Tuple[int, int]] = []  # (first, count) per arg; (-1,0)=static
        for i, a in enumerate(args):
            if i in self.static_argnums:
                statics.append((i, _static_key(a)))
                arg_leaf_spans.append((-1, 0))
            else:
                leaves, td = tree_flatten(a)
                first = len(dyn_leaves)
                dyn_leaves.extend(_canonicalize_leaf(l) for l in leaves)
                dyn_tds.append(td)
                arg_leaf_spans.append((first, len(leaves)))
        key = (
            len(args),
            tuple(statics),
            tuple(dyn_tds),
            tuple((l.shape, str(l.dtype)) for l in dyn_leaves),
            config.enable_x64,
        )
        return key, dyn_leaves, arg_leaf_spans

    def _trace(self, args, dyn_leaves, arg_leaf_spans):
        self.n_traces += 1
        trace = JitTrace(self.name)
        with new_trace(trace):
            tracers = [trace.new_arg(ShapedArray(l.shape, l.dtype)) for l in dyn_leaves]
            call_args = []
            cursor = 0
            for i, a in enumerate(args):
                first, count = arg_leaf_spans[i]
                if first < 0:
                    call_args.append(a)
                else:
                    _, td = tree_flatten(a)
                    call_args.append(tree_unflatten(td, tracers[first : first + count]))
                    cursor += count
            out = self.fn(*call_args)
            out_leaves, out_tree = tree_flatten(out)
            graph = trace.finalize(out_leaves)

        from .fusion import optimize

        graph = optimize(graph)

        donated: set[int] = set()
        for argnum in self.donate_argnums:
            if argnum >= len(args):
                continue
            first, count = arg_leaf_spans[argnum]
            donated.update(range(first, first + count))

        exe = CompiledFunction(graph, name=self.name, donated_in_idx=donated)
        device = current_device()
        if device is not None:
            device.clock.charge("jit_compile", estimate_compile_time(graph.n_eqns))
        return exe, out_tree

    def __call__(self, *args, **kwargs):
        if kwargs:
            raise TypeError(
                f"{self.name}: pass arguments positionally to jit-compiled "
                "functions (keyword support is not implemented in the shim)"
            )
        # Called under an outer trace: inline, letting the outer trace record.
        flat_all, _ = tree_flatten(list(args))
        if builtins_any(isinstance(l, Tracer) for l in flat_all):
            return self.fn(*args)

        key, dyn_leaves, arg_leaf_spans = self._signature(args)
        entry = self._cache.get(key)
        obs_tr = obs_state.active
        if entry is None:
            if obs_tr is not None:
                t0 = obs_tr.now()
                entry = self._trace(args, dyn_leaves, arg_leaf_spans)
                obs_tr.emit(
                    ObsEvent(
                        ObsEventType.COMPILE,
                        self.name,
                        ts=t0,
                        dur=obs_tr.now() - t0,
                        clock=ObsClockDomain.HOST,
                        attrs={
                            "cache_hit": False,
                            "n_eqns": entry[0].n_eqns,
                            "n_kernels": entry[0].n_kernels,
                            "cache_size": len(self._cache) + 1,
                        },
                    )
                )
                obs_tr.metrics.count("jit.cache_misses")
            else:
                entry = self._trace(args, dyn_leaves, arg_leaf_spans)
            self._cache[key] = entry
            self._trim_cache(obs_tr)
        elif obs_tr is not None:
            obs_tr.emit(
                ObsEvent(
                    ObsEventType.COMPILE,
                    self.name,
                    ts=obs_tr.now(),
                    clock=ObsClockDomain.HOST,
                    attrs={"cache_hit": True, "cache_size": len(self._cache)},
                )
            )
            obs_tr.metrics.count("jit.cache_hits")
        if self._cache:
            self._cache.move_to_end(key)
        exe, out_tree = entry
        out_leaves = exe(*dyn_leaves)
        return tree_unflatten(out_tree, list(out_leaves))

    def _trim_cache(self, obs_tr) -> None:
        """Drop least-recently-used signatures beyond the configured bound."""
        limit = config.jit_cache_max_size
        if limit is None:
            return
        while len(self._cache) > max(1, int(limit)):
            self._cache.popitem(last=False)
            self.cache_evictions += 1
            if obs_tr is not None:
                obs_tr.metrics.count("jit.cache_evictions")


def jit(
    fn: Optional[Callable] = None,
    *,
    static_argnums: Sequence[int] = (),
    donate_argnums: Sequence[int] = (),
) -> Callable:
    """Trace-and-compile a pure function of arrays.

    Usable as ``@jit`` or ``jit(fn, static_argnums=(2,))``.  Static
    arguments become part of the cache key (e.g. the maximum interval size
    in the TOAST kernels); donated arguments release their buffers to the
    runtime for reuse as outputs.
    """
    if fn is None:
        return lambda f: JitFunction(f, tuple(static_argnums), tuple(donate_argnums))
    return JitFunction(fn, tuple(static_argnums), tuple(donate_argnums))


# --------------------------------------------------------------------------- #
# vmap
# --------------------------------------------------------------------------- #

import builtins

builtins_any = builtins.any


def _leaf_batch_size(leaf: Any, axis: int) -> int:
    shape = tuple(getattr(leaf, "shape", np.shape(leaf)))
    ax = axis + len(shape) if axis < 0 else axis
    if not 0 <= ax < len(shape):
        raise ValueError(f"vmap in_axis {axis} out of range for shape {shape}")
    return shape[ax]


def vmap(fn: Callable, in_axes: Any = 0, out_axes: int = 0) -> Callable:
    """Vectorize ``fn`` over one axis of its (batched) arguments.

    ``in_axes`` is an int applied to every argument, or a tuple with one
    entry per positional argument (ints or None for unbatched).  This is
    the transformation the port applies to the detector/interval loops
    (paper §3.1.3).
    """

    def wrapped(*args):
        if isinstance(in_axes, (tuple, list)):
            axes = tuple(in_axes)
            if len(axes) != len(args):
                raise ValueError(
                    f"vmap in_axes has {len(axes)} entries for {len(args)} arguments"
                )
        else:
            axes = (in_axes,) * len(args)

        batch_size: Optional[int] = None
        for a, ax in zip(args, axes):
            if ax is None:
                continue
            leaves, _ = tree_flatten(a)
            for leaf in leaves:
                b = _leaf_batch_size(leaf, ax)
                if batch_size is None:
                    batch_size = b
                elif b != batch_size:
                    raise ValueError(
                        f"inconsistent vmap batch sizes: {batch_size} vs {b}"
                    )
        if batch_size is None:
            raise ValueError("vmap needs at least one batched argument (in_axes not all None)")

        from .numpy_api import moveaxis

        trace = BatchTrace(batch_size)
        with new_trace(trace):
            in_vals = []
            for a, ax in zip(args, axes):
                if ax is None:
                    in_vals.append(a)
                else:
                    in_vals.append(
                        tree_map(
                            lambda l: BatchTracer(
                                trace, moveaxis(l, ax, 0) if ax != 0 else l
                            ),
                            a,
                        )
                    )
            out = fn(*in_vals)

            def unwrap(o):
                if isinstance(o, BatchTracer) and o._trace is trace:
                    payload = o.payload
                elif isinstance(o, Tracer) or isinstance(o, np.ndarray) or np.isscalar(o):
                    shape = tuple(getattr(o, "shape", np.shape(o)))
                    payload = bind(P.broadcast_to_p, o, shape=(batch_size,) + shape)
                else:
                    return o
                if out_axes != 0:
                    payload = moveaxis(payload, 0, out_axes)
                return payload

            result = tree_map(unwrap, out)
        return result

    functools.update_wrapper(wrapped, fn)
    return wrapped
