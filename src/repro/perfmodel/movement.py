"""Analytic data-movement model for the pipeline policies.

Each policy's estimate is the sum of one walk of its schedule:
:func:`repro.compilepipe.planned_copies` lists the copies a fault-free
run of a plan makes by the executor's own rules, so the model has no
copy rules of its own to drift from the runs it predicts.

* **NAIVE** — ``eager_plan(ir, naive=True)``: every device stage maps
  what it touches and releases it after (the paper's
  transfer-around-every-kernel strawman);
* **HYBRID** — ``eager_plan(ir)``: data stays resident until the end of
  each work unit (the paper's ~40% saving);
* **COMPILED** — the :mod:`repro.compilepipe` plan: zero-fill H2Ds become
  on-device memsets, arrays stay resident across units, and drains
  coalesce behind later compute;
* **MEGABATCH** — compiled's movement with stacked launches.

The model reports only what the plan knows.  ``copy_seconds`` prices
every copy on the link; the eager schedules copy synchronously, so it is
their exposed transfer time, and it bounds the compiled plan's from
above (how much of it compute hides depends on kernel durations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["MovementEstimate", "estimate_movement"]


@dataclass(frozen=True)
class MovementEstimate:
    """Predicted movement cost of one policy over one workflow."""

    policy: str
    h2d_bytes: int
    d2h_bytes: int
    h2d_copies: int
    d2h_copies: int
    #: Link seconds of every copy (``TransferModel.time`` summed): the
    #: exposed transfer time of the synchronous eager schedules, an upper
    #: bound on it for the compiled plans.
    copy_seconds: float
    #: Kernel dispatches the policy performs (fusion and megabatch
    #: stacking elide dispatches vs the eager per-observation ones).  They
    #: equal device launches on omp_target; a jaxshim dispatch launches
    #: every kernel of its compiled graph.
    launches: int = 0
    #: Launch overhead those launches cost.
    launch_seconds: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    @property
    def total_copies(self) -> int:
        return self.h2d_copies + self.d2h_copies


def estimate_movement(plan, transfer_model) -> Dict[str, MovementEstimate]:
    """Predict NAIVE / HYBRID / COMPILED / MEGABATCH cost for a plan.

    ``plan`` is a compiled :class:`~repro.compilepipe.planner.PipelinePlan`;
    the eager schedules are planned over its IR.  ``transfer_model`` is an
    :class:`~repro.accel.transfer.TransferModel`.  Megabatch keeps the
    compiled plan's movement; its win is the launch term.
    """
    from ..accel.device import DeviceSpec
    from ..compilepipe.planner import (
        eager_launches,
        eager_plan,
        planned_copies,
        planned_launch_elisions,
    )

    ir = plan.ir
    eager_l = eager_launches(ir)

    def estimate(policy: str, walked, launches: int) -> MovementEstimate:
        copies = planned_copies(walked)
        h2d = [c.nbytes for c in copies if c.direction == "h2d"]
        d2h = [c.nbytes for c in copies if c.direction == "d2h"]
        return MovementEstimate(
            policy,
            sum(h2d),
            sum(d2h),
            len(h2d),
            len(d2h),
            sum(transfer_model.time(c.nbytes) for c in copies),
            launches=launches,
            launch_seconds=launches * DeviceSpec.kernel_launch_overhead_s,
        )

    return {
        "naive": estimate("naive", eager_plan(ir, naive=True), eager_l),
        "hybrid": estimate("hybrid", eager_plan(ir), eager_l),
        "compiled": estimate(
            "compiled", plan, eager_l - planned_launch_elisions(ir, plan.groups)
        ),
        "megabatch": estimate(
            "megabatch",
            plan,
            eager_l - planned_launch_elisions(ir, plan.groups, megabatch=True),
        ),
    }
