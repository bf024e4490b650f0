"""repro.compilepipe: whole-workflow pipeline compilation and execution.

Every accelerated ``Pipeline`` runs here.  The package lowers the
*whole* workflow into a buffer-lifetime IR first and derives a transfer
schedule from it.  ``plan="eager"`` gets the per-operator HYBRID or NAIVE
schedule (synchronous staging, nothing elided); ``plan="compiled"``
gets the optimised one:

* H2D transfers of provably-zero first-touch buffers become on-device
  memsets (``lifetime`` + ``planner``);
* everything else is prefetched asynchronously behind the previous
  stage's compute, and device-written buffers drain back coalesced
  behind later compute (``executor`` + :mod:`repro.accel.streams`);
* adjacent lane-aligned kernels across operator boundaries merge into
  single fused launch regions (``fusion``).

Entry points: :func:`lower_workflow` then :func:`build_plan` for
inspection (the ``repro-bench plan`` subcommand), :func:`execute_compiled`
for execution (what every accelerated ``Pipeline.exec`` calls), and
:func:`planned_copies`, which walks any plan and lists the copies its run
makes.  That walk is the one count of data movement: a plan's
``transfers_elided`` is the HYBRID schedule's copies minus its own, and
:func:`repro.perfmodel.estimate_movement` sums it per policy.  The
compiled plan is bitwise identical to eager; the parity suite in
``tests/test_compilepipe.py`` pins it, including under injected device
loss.
"""

from .executor import CompiledRun, execute_compiled
from .fusion import FusedGroup, plan_fusion
from .lifetime import BufferLife, StageInfo, WorkflowIR, lower_workflow
from .planner import (
    BufferPlan,
    PipelinePlan,
    PlannedCopy,
    StagePlan,
    build_plan,
    eager_plan,
    planned_copies,
)
from .report import plan_report, render_plan, transfer_seconds

__all__ = [
    "BufferLife",
    "BufferPlan",
    "CompiledRun",
    "FusedGroup",
    "PipelinePlan",
    "PlannedCopy",
    "StageInfo",
    "StagePlan",
    "WorkflowIR",
    "build_plan",
    "eager_plan",
    "execute_compiled",
    "lower_workflow",
    "plan_fusion",
    "plan_report",
    "planned_copies",
    "render_plan",
    "transfer_seconds",
]
