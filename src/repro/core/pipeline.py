"""Pipelines with hybrid CPU/GPU data movement (paper §3.2.2).

The pipeline runs a sequence of operators.  When an accelerator is in play,
the operators' kernel bindings (or requires/provides traits) tell it what
each one reads and writes, so data stays resident on the device across
consecutive GPU-enabled operators, staging to/from the host only when a
CPU-only operator touches the data and once at the end of the pipeline.
The paper measured this residency optimization at ~40% over the naive
transfer-around-every-kernel approach; the NAIVE policy is kept for exactly
that ablation.  Every plan and policy executes on the device through
:class:`repro.compilepipe.CompiledRun`.
"""

from __future__ import annotations

from contextlib import nullcontext
from enum import Enum
from typing import Dict, List, Optional, Sequence

from ..obs import state as obs_state
from ..ompshim import OmpTargetRuntime
from .data import Data
from .dispatch import (
    ACCEL_IMPLEMENTATIONS,
    ImplementationType,
    default_implementation,
    use_implementation,
)
from .operator import Operator
from .timing import function_timer

__all__ = ["MovementPolicy", "LoopOrder", "Pipeline"]


class MovementPolicy(Enum):
    """How the pipeline stages data to the accelerator."""

    #: Keep data resident across GPU operators (the paper's design).
    HYBRID = "hybrid"
    #: Transfer in/out around every accelerated operator (the strawman the
    #: paper beat by ~40%).
    NAIVE = "naive"


class LoopOrder(Enum):
    """The TOAST looping patterns the movement logic must handle (§3.2.2:
    "looping on detectors, then operators; on operators, then detectors").
    """

    #: Each operator processes every observation before the next operator
    #: runs (all observations resident at once).
    OPERATOR_MAJOR = "operator_major"
    #: Each observation runs through the whole operator chain before the
    #: next observation starts (one observation resident at a time --
    #: lower device memory, more staging of global products).
    OBSERVATION_MAJOR = "observation_major"


class Pipeline(Operator):
    """Run operators in sequence with framework-managed data movement."""

    def __init__(
        self,
        operators: Sequence[Operator],
        name: str = "Pipeline",
        implementation: Optional[ImplementationType] = None,
        accel: Optional[OmpTargetRuntime] = None,
        policy: MovementPolicy = MovementPolicy.HYBRID,
        order: LoopOrder = LoopOrder.OPERATOR_MAJOR,
        plan: str = "eager",
        megabatch_group: Optional[int] = None,
    ):
        super().__init__(name=name)
        if plan not in ("eager", "compiled", "megabatch"):
            raise ValueError(
                f"plan must be 'eager', 'compiled' or 'megabatch', got {plan!r}"
            )
        if megabatch_group is not None and megabatch_group < 1:
            raise ValueError(f"megabatch_group must be >= 1, got {megabatch_group}")
        if policy is MovementPolicy.NAIVE and plan != "eager":
            raise ValueError(
                f"policy=MovementPolicy.NAIVE is an eager schedule; it needs "
                f"plan='eager', got plan={plan!r}"
            )
        if megabatch_group is not None and plan != "megabatch":
            raise ValueError(
                f"megabatch_group needs plan='megabatch', got plan={plan!r}"
            )
        self.operators: List[Operator] = list(operators)
        self.implementation = implementation
        self.accel = accel
        self.policy = policy
        self.order = order
        #: "eager" stages per operator on the ``policy`` schedule (the
        #: parity oracle); "compiled" plans the whole workflow's movement
        #: (elision, prefetch, deferred drains, fusion); "megabatch"
        #: additionally groups compatible per-observation kernel calls
        #: into single stacked launches (detector x observation
        #: batching).  On a device all three run through
        #: :mod:`repro.compilepipe`'s one executor, with identical
        #: numerics.  The compiled/megabatch plans subsume MovementPolicy
        #: (their residency plans are strictly better than HYBRID), so
        #: ``policy`` only selects the eager schedule.
        self.plan = plan
        #: Observations per stacked launch group under plan="megabatch"
        #: (None: all observations in one group).  Grouping only affects
        #: how many launches are elided, never the numerics: parity is
        #: bitwise for every group size.
        self.megabatch_group = megabatch_group
        #: The last compiled PipelinePlan executed (for inspection/tests).
        self.last_plan = None

    # -- traits aggregate over the children ------------------------------------

    def requires(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {"shared": [], "detdata": [], "meta": []}
        provided: set[str] = set()
        for op in self.operators:
            for cat in out:
                for key in op.requires().get(cat, []):
                    if key not in provided and key not in out[cat]:
                        out[cat].append(key)
                provided.update(op.provides().get(cat, []))
        return out

    def provides(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {"shared": [], "detdata": [], "meta": []}
        for op in self.operators:
            for cat in out:
                for key in op.provides().get(cat, []):
                    if key not in out[cat]:
                        out[cat].append(key)
        return out

    def supports_accel(self) -> bool:
        return any(op.supports_accel() for op in self.operators)

    # -- execution -------------------------------------------------------------------

    def work_units(self, data: Data) -> List[Data]:
        """The :class:`Data` views one ``exec`` runs the operators over.

        ``plan="megabatch"`` chunks the observations into stacked-launch
        groups of ``megabatch_group`` (None: every observation in one
        chunk; ``data`` itself when it has no observations).  Otherwise
        OBSERVATION_MAJOR gives one view per observation and
        OPERATOR_MAJOR runs over ``data`` itself.  Each view shares the
        parent's communicator and ``meta`` dict (global products such as
        sky maps and output accumulators), so the host path and
        :class:`~repro.compilepipe.CompiledRun` form the same units.
        """
        if self.plan == "megabatch":
            if not data.obs:
                return [data]
            group = self.megabatch_group or len(data.obs)
        elif self.order is LoopOrder.OBSERVATION_MAJOR:
            group = 1
        else:
            return [data]
        units: List[Data] = []
        for lo in range(0, len(data.obs), group):
            sub = Data(comm=data.comm)
            sub.obs = data.obs[lo : lo + group]
            sub.meta = data.meta
            units.append(sub)
        return units

    def _stage(self, op: Operator, runtime: Optional[OmpTargetRuntime] = None):
        """A PIPELINE_STAGE region around one operator's execution.

        On the accelerated path the stage event lands on the device
        timeline (virtual clock); otherwise it is a host span.  Free when
        tracing is off.
        """
        tr = obs_state.active
        if tr is None:
            return nullcontext()
        clock = runtime.device.clock if runtime is not None else None
        return tr.stage(
            op.name,
            device_clock=clock,
            pipeline=self.name,
            accel=runtime is not None,
        )

    @function_timer
    def exec(self, data: Data, use_accel: bool = False, accel=None) -> None:
        impl = self.implementation if self.implementation is not None else default_implementation()
        runtime = accel if accel is not None else self.accel
        accel_enabled = impl in ACCEL_IMPLEMENTATIONS and runtime is not None

        with use_implementation(impl):
            if not accel_enabled:
                units = self.work_units(data)
                if self.plan == "megabatch":
                    self._exec_megabatch_host(units)
                    return
                for unit in units:
                    for op in self.operators:
                        op.ensure_outputs(unit)
                        with self._stage(op):
                            op.exec(unit, use_accel=False, accel=None)
                return

            # Every plan runs on the device through the one executor.
            from ..compilepipe import execute_compiled

            if impl is ImplementationType.JAX:
                from ..jaxshim import attach_device, detach_device

                attach_device(runtime.device)
                try:
                    plan = execute_compiled(self, data, runtime)
                finally:
                    detach_device()
            else:
                plan = execute_compiled(self, data, runtime)
            # A plan holds the data it ran on; eager ones are not kept.
            self.last_plan = None if plan.eager else plan

    def _exec_megabatch_host(self, chunks: List[Data]) -> None:
        """Stacked launches without a device: operator-major over chunks.

        Each operator's per-observation kernel calls within a chunk are
        collected and flushed as single stacked host launches; kernels
        without a stacked implementation replay per observation, so the
        result is bitwise identical to the eager path.  Running chunks in
        sequence, operator-major within each chunk, performs exactly the
        eager OPERATOR_MAJOR kernel sequence.
        """
        from ..kernels.megabatch import MegabatchCollector
        from .dispatch import megabatch_collection

        for op in self.operators:
            for unit in chunks:
                op.ensure_outputs(unit)
                with self._stage(op):
                    with megabatch_collection(MegabatchCollector()):
                        op.exec(unit, use_accel=False, accel=None)

    @function_timer
    def finalize(self, data: Data) -> None:
        for op in self.operators:
            op.finalize(data)

    def apply(self, data: Data, use_accel: bool = False, accel=None) -> None:
        self.exec(data, use_accel=use_accel, accel=accel)
        self.finalize(data)

    def __repr__(self) -> str:
        inner = ", ".join(op.name for op in self.operators)
        return f"Pipeline([{inner}], impl={self.implementation}, policy={self.policy.value})"
