"""Runtime kernel dispatch (paper §3.2.1).

"We designed a runtime dispatch system over kernels, enabling the selection
of specific implementations for the entire code, individual pipelines, or
kernels."  Kernels register one function per
:class:`ImplementationType`; resolution walks call-site override ->
pipeline override -> global default, and can fall back from an accelerated
implementation to the compiled CPU one when a kernel has no GPU port.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..obs import state as obs_state
from ..obs.events import ClockDomain, Event, EventType
from ..resilience import state as res_state

__all__ = [
    "ImplementationType",
    "KernelRegistry",
    "kernel_registry",
    "kernel",
    "get_kernel",
    "use_implementation",
    "default_implementation",
    "FALLBACK_ORDER",
    "fallback_chain",
    "BoundKernel",
    "validate_kernel_calls",
    "kernel_call_validation_active",
    "active_megabatch_collector",
    "megabatch_collection",
]


class ImplementationType(Enum):
    """The four kernel variants the study compares."""

    #: Readable pure-Python loops: the correctness oracle (stands in for
    #: unoptimized reference code).
    PYTHON = "python"
    #: Vectorized NumPy: the "compiled CPU" baseline (the paper's original
    #: OpenMP C++ kernels).
    NUMPY = "numpy"
    #: The jaxshim port: pure/jit/vmap, CPU or simulated GPU.
    JAX = "jax"
    #: The OpenMP Target Offload port over the simulated device.
    OMP_TARGET = "omp_target"


#: Implementations that run on the (simulated) accelerator.
ACCEL_IMPLEMENTATIONS = (ImplementationType.JAX, ImplementationType.OMP_TARGET)

#: Resolution order the recovery plane walks when a kernel keeps failing:
#: fastest accelerated path first, interpreter-speed oracle last.
FALLBACK_ORDER = (
    ImplementationType.JAX,
    ImplementationType.OMP_TARGET,
    ImplementationType.NUMPY,
    ImplementationType.PYTHON,
)


def fallback_chain(
    name: str,
    requested: ImplementationType,
    registry: Optional["KernelRegistry"] = None,
) -> List[ImplementationType]:
    """The implementations to try for ``name``, starting at ``requested``.

    The chain is the requested implementation followed by the remaining
    :data:`FALLBACK_ORDER` entries, filtered to implementations the kernel
    actually registers.

    Kernels whose :class:`~repro.kernels.spec.KernelSpec` declares
    ``fallback_eligible=False`` never fall past the requested
    implementation -- the chain is at most ``[requested]``.
    """
    reg = registry if registry is not None else kernel_registry
    spec = reg.spec(name)
    if spec is not None and not spec.fallback_eligible:
        return [requested] if reg.has(name, requested) else []
    chain = [requested] + [i for i in FALLBACK_ORDER if i is not requested]
    return [i for i in chain if reg.has(name, i)]


class KernelRegistry:
    """Maps (kernel name, implementation) to the callable.

    With ``require_specs`` (the default, and how the process-wide
    registry is built), every kernel must declare a
    :class:`~repro.kernels.spec.KernelSpec` via :meth:`register_spec`
    *before* any implementation registers, and each implementation's
    signature is validated against the spec at registration time -- the
    four backends cannot drift apart silently.

    Kernels whose spec declares ``megabatch=True`` also get a stacked
    (observation-leading) entry per backend, derived from the
    per-observation implementation by the backend's stacker (see
    :meth:`set_stacker`) -- no kernel registers one by hand.
    """

    def __init__(self, require_specs: bool = True) -> None:
        self._impls: Dict[str, Dict[ImplementationType, Callable]] = {}
        self._megabatch: Dict[str, Dict[ImplementationType, Callable]] = {}
        self._stackers: Dict[ImplementationType, Callable] = {}
        self._specs: Dict[str, Any] = {}
        self.require_specs = require_specs

    # -- specs ---------------------------------------------------------------

    def register_spec(self, spec: Any) -> Any:
        """Register the declarative contract for one kernel name.

        Must happen before any implementation of that kernel registers,
        so that every implementation is validated.
        """
        name = getattr(spec, "name", None)
        if not isinstance(name, str) or not hasattr(spec, "validate_impl"):
            raise TypeError(f"expected a KernelSpec, got {spec!r}")
        if name in self._specs:
            raise ValueError(f"kernel {name!r} already has a KernelSpec")
        if name in self._impls:
            registered = ", ".join(i.value for i in self.implementations(name))
            raise ValueError(
                f"kernel {name!r} already has implementations ({registered}); "
                f"register the KernelSpec before any implementation"
            )
        self._specs[name] = spec
        return spec

    def spec(self, name: str) -> Optional[Any]:
        """The :class:`KernelSpec` for ``name``, or None."""
        return self._specs.get(name)

    def specs(self) -> Dict[str, Any]:
        return dict(self._specs)

    # -- implementations -----------------------------------------------------

    def register(self, name: str, impl: ImplementationType, fn: Callable) -> Callable:
        spec = self._specs.get(name)
        if spec is None and self.require_specs:
            raise ValueError(
                f"kernel {name!r} has no KernelSpec; declare one in "
                f"repro/kernels/specs.py (or register_spec()) before "
                f"registering implementations"
            )
        if spec is not None:
            spec.validate_impl(fn, impl.value)
        table = self._impls.setdefault(name, {})
        if impl in table:
            raise ValueError(f"kernel {name!r} already has a {impl.value} implementation")
        table[impl] = fn
        stacker = self._stackers.get(impl)
        if stacker is not None and getattr(spec, "megabatch", False):
            self._megabatch.setdefault(name, {})[impl] = stacker(spec, fn)
        return fn

    def get(
        self,
        name: str,
        impl: ImplementationType,
        allow_fallback: bool = True,
    ) -> Callable:
        """Resolve an implementation.

        With ``allow_fallback``, a missing accelerated implementation falls
        back to NUMPY (the framework runs un-ported kernels on the CPU --
        the paper notes more than 30 such kernels bound the speedup by
        Amdahl's law).
        """
        return self.resolve(name, impl, allow_fallback)[0]

    def resolve(
        self,
        name: str,
        impl: ImplementationType,
        allow_fallback: bool = True,
    ) -> Tuple[Callable, ImplementationType]:
        """Like :meth:`get`, but also reports which implementation won
        (so callers can see when the CPU fallback kicked in)."""
        if name not in self._impls:
            raise KeyError(f"unknown kernel {name!r}; known: {sorted(self._impls)}")
        table = self._impls[name]
        if impl in table:
            return table[impl], impl
        spec = self._specs.get(name)
        if spec is not None and not spec.fallback_eligible:
            allow_fallback = False
        if allow_fallback and ImplementationType.NUMPY in table:
            return table[ImplementationType.NUMPY], ImplementationType.NUMPY
        registered = ", ".join(i.value for i in sorted(table, key=lambda i: i.value))
        raise KeyError(
            f"kernel {name!r} has no {impl.value} implementation "
            f"(registered: {registered or 'none'})"
        )

    def implementations(self, name: str) -> List[ImplementationType]:
        return sorted(self._impls.get(name, {}), key=lambda i: i.value)

    def kernels(self) -> List[str]:
        return sorted(self._impls)

    def has(self, name: str, impl: ImplementationType) -> bool:
        return impl in self._impls.get(name, {})

    # -- megabatch (observation-stacked) entry paths -------------------------

    def set_stacker(self, impl: ImplementationType, stacker: Callable) -> None:
        """Install ``impl``'s stacker: ``stacker(spec, fn)`` builds the
        stacked entry of per-observation implementation ``fn``.

        Every ``impl`` implementation of a ``megabatch=True`` kernel that
        registers afterwards gets its stacked entry from it.  The stacked
        entry takes the per-observation keyword arguments, except that
        each ``"stack"`` arg, intervals included, is the sequence of the
        group members' own values; broadcast args come once.
        """
        self._stackers[impl] = stacker

    def megabatch_impl(
        self, name: str, impl: ImplementationType
    ) -> Optional[Callable]:
        """The stacked implementation for (name, impl), or None."""
        return self._megabatch.get(name, {}).get(impl)

    def has_megabatch(self, name: str, impl: ImplementationType) -> bool:
        return impl in self._megabatch.get(name, {})

    def megabatch_implementations(self, name: str) -> List[ImplementationType]:
        return sorted(self._megabatch.get(name, {}), key=lambda i: i.value)


#: The process-wide registry all kernel modules register into.
kernel_registry = KernelRegistry()


def kernel(name: str, impl: ImplementationType) -> Callable:
    """Decorator registering a kernel implementation::

        @kernel("scan_map", ImplementationType.NUMPY)
        def scan_map(...): ...
    """

    def deco(fn: Callable) -> Callable:
        return kernel_registry.register(name, impl, fn)

    return deco


_local = threading.local()


def _stack() -> List[ImplementationType]:
    if not hasattr(_local, "stack"):
        _local.stack = [ImplementationType.NUMPY]
    return _local.stack


def default_implementation() -> ImplementationType:
    """The currently selected implementation (innermost override wins)."""
    return _stack()[-1]


@contextmanager
def use_implementation(impl: ImplementationType) -> Iterator[None]:
    """Select the kernel implementation for a code region.

    Nested uses override outer ones -- the "entire code / individual
    pipelines / kernels" selection levels of the paper map onto nesting
    depth.
    """
    stack = _stack()
    stack.append(impl)
    try:
        yield
    finally:
        stack.pop()


_megabatch_local = threading.local()


def active_megabatch_collector() -> Optional[Any]:
    """The megabatch collector intercepting kernel calls, if any."""
    stack = getattr(_megabatch_local, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def megabatch_collection(collector: Any) -> Iterator[Any]:
    """Install ``collector`` to intercept :class:`BoundKernel` calls.

    While active, every call to a kernel whose spec declares
    ``megabatch=True`` is *offered* to the collector; accepted calls are
    deferred and executed -- stacked across observations where a
    megabatch implementation exists -- when the collector flushes.  The
    collector is flushed on exit (and must also be flushed at every
    operator boundary by the caller).
    """
    stack = getattr(_megabatch_local, "stack", None)
    if stack is None:
        stack = _megabatch_local.stack = []
    stack.append(collector)
    try:
        yield collector
    finally:
        stack.pop()
        collector.flush()


_validation = threading.local()


def kernel_call_validation_active() -> bool:
    """Whether :class:`BoundKernel` calls check args against their spec."""
    return getattr(_validation, "on", False)


@contextmanager
def validate_kernel_calls() -> Iterator[None]:
    """Enable spec dtype/shape checking of every BoundKernel call.

    Off by default so hot paths pay nothing; tests and debugging
    sessions turn it on around the region under scrutiny.
    """
    prev = kernel_call_validation_active()
    _validation.on = True
    try:
        yield
    finally:
        _validation.on = prev


class BoundKernel:
    """The thin callable :func:`get_kernel` returns.

    Wraps the resolved implementation with the kernel's spec attached:
    under :func:`validate_kernel_calls` every call is checked against
    the spec's dtypes/shapes, and with tracing active each call runs in
    a host-side span with bytes-moved counters attributed from the
    spec's argument intents.  The raw implementation is reachable as
    ``.fn`` (also ``.__wrapped__``).
    """

    __slots__ = ("name", "spec", "fn", "impl", "_tracer")

    def __init__(self, name, spec, fn, impl, tracer=None):
        self.name = name
        self.spec = spec
        self.fn = fn
        self.impl = impl
        self._tracer = tracer

    @property
    def __wrapped__(self):
        return self.fn

    def __call__(self, *args, **kwargs):
        if self.spec is not None and kernel_call_validation_active():
            self.spec.validate_call(args, kwargs)
        coll = active_megabatch_collector()
        if coll is not None and coll.offer(self, args, kwargs):
            return None
        tr = self._tracer
        if tr is None:
            return self.fn(*args, **kwargs)
        with tr.span(f"kernel.{self.name}", impl=self.impl.value):
            out = self.fn(*args, **kwargs)
        if self.spec is not None:
            read, written = self.spec.bytes_moved(args, kwargs)
            if read:
                tr.metrics.count(f"kernel.{self.name}.bytes_read", read)
            if written:
                tr.metrics.count(f"kernel.{self.name}.bytes_written", written)
        return out

    def __repr__(self) -> str:
        return f"BoundKernel({self.name!r}, impl={self.impl.value})"


def get_kernel(name: str, impl: Optional[ImplementationType] = None) -> Callable:
    """Resolve a kernel against the active implementation selection.

    Returns a :class:`BoundKernel` carrying the kernel's spec.  With
    tracing active, every resolution emits a KERNEL_RESOLVE event
    (requested vs. resolved implementation, fallback flag) and each call
    runs in a host-side span -- with per-kernel bytes-moved counters
    derived from the spec's intents -- so per-kernel host time appears
    on the trace next to the device timeline.  With a resilience
    controller active, calls walk the implementation fallback chain
    (respecting ``spec.fallback_eligible``) under per-implementation
    circuit breakers and retry-with-backoff.
    """
    if not kernel_registry.kernels():
        # Populate the registry on first use (the kernel modules register
        # themselves at import time).
        from .. import kernels as _kernels  # noqa: F401

    chosen = impl if impl is not None else default_implementation()
    tr = obs_state.active
    ctrl = res_state.active
    spec = kernel_registry.spec(name)
    if tr is None and ctrl is None:
        fn, resolved = kernel_registry.resolve(name, chosen)
        return BoundKernel(name, spec, fn, resolved)

    fn, resolved = kernel_registry.resolve(name, chosen)
    if tr is not None:
        tr.emit(
            Event(
                EventType.KERNEL_RESOLVE,
                name,
                ts=tr.now(),
                clock=ClockDomain.HOST,
                attrs={
                    "requested": chosen.value,
                    "resolved": resolved.value,
                    "fallback": resolved is not chosen,
                },
            )
        )
        if resolved is not chosen:
            tr.metrics.count("dispatch.fallbacks")
        tr.metrics.count("dispatch.resolutions")

    if ctrl is not None:
        chain = fallback_chain(name, resolved)
        fn = ctrl.resilient_kernel(
            name, resolved, kernel_registry, chain, ACCEL_IMPLEMENTATIONS
        )

    return BoundKernel(name, spec, fn, resolved, tracer=tr)
