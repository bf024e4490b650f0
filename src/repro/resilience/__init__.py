"""repro.resilience — deterministic fault injection + recovery.

The paper's production runs hit exactly the failure modes this package
models: the medium problem does not fit the A100's 40 GB under JAX
(Fig 4), and multi-process device sharing makes transient launch and
transfer failures a fact of life at Perlmutter scale.  The package has
two planes layered over the existing stack:

* **Injection**: a seeded, deterministic :class:`FaultPlan` with hooks in
  the device (launch failure, stall, loss), the memory pool (forced OOM,
  fragmentation pressure), the transfer path (transient failure,
  corruption-with-checksum-detect), and the offload shim (target-region
  failure).  Same plan + same call sequence = same faults, bit for bit.
* **Recovery**: a backend fallback chain (JAX → OMP_TARGET → NUMPY →
  PYTHON) with per-kernel circuit breakers, retry-with-exponential-backoff
  on the virtual clock, a liveness spill (the buffer with the farthest
  next device use goes first) + host fallback on device OOM, and
  per-stage pipeline checkpoints so device loss resumes instead of
  restarting.

Resilience is **off by default and free when off** (the same
one-attribute-load-and-branch discipline as ``repro.obs``), and every
injected fault and recovery decision emits a typed ``repro.obs`` event
when tracing is active::

    from repro import resilience

    plan = resilience.named_plan("oom-then-recover", seed=42)
    with resilience.resilient(plan) as ctrl:
        pipeline.apply(data)
    print(ctrl.report())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from . import state as _state
from .controller import ResilienceConfig, ResilienceController, TRANSIENT_ERRORS
from .faults import SITES, FaultInjector, FaultKind, FaultPlan, FaultSpec
from .plans import NAMED_PLANS, named_plan, plan_names
from .recovery import BreakerState, CircuitBreaker, RetryPolicy

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "SITES",
    "RetryPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResilienceController",
    "TRANSIENT_ERRORS",
    "NAMED_PLANS",
    "named_plan",
    "plan_names",
    "active_controller",
    "set_controller",
    "resilient",
]


def active_controller() -> Optional[ResilienceController]:
    """The installed controller, or ``None`` when resilience is disabled.

    Hooks use the equivalent (but cheaper) direct check
    ``repro.resilience.state.active is not None``.
    """
    return _state.active


def set_controller(
    controller: Optional[ResilienceController],
) -> Optional[ResilienceController]:
    """Install (or with ``None`` remove) the process-wide controller."""
    previous = _state.active
    _state.active = controller
    return previous


@contextmanager
def resilient(
    plan: Optional[FaultPlan] = None,
    config: Optional[ResilienceConfig] = None,
    seed: Optional[int] = None,
) -> Iterator[ResilienceController]:
    """Enable resilience for a ``with`` block; restores the prior state.

    With no plan, only the recovery plane is active (useful to harden a
    run against real faults without injecting any).
    """
    ctrl = ResilienceController(plan=plan, config=config, seed=seed)
    previous = set_controller(ctrl)
    try:
        yield ctrl
    finally:
        set_controller(previous)
