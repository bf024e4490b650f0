"""The residency planner: buffer-lifetime IR -> a transfer schedule.

For every array the workflow touches, the planner decides, statically:

* **First touch** — how the array first reaches the device.  If its host
  bytes are all zero and no host stage writes it before its first device
  use, the H2D transfer is *elided*: the device buffer is allocated and
  memset on-device instead (``accel_data_reset``), which is bitwise
  identical and orders of magnitude cheaper than pushing zeros over the
  link.  Otherwise the copy is *prefetched* at the preceding stage so it
  overlaps that stage's compute, or staged synchronously when there is
  no room to prefetch (stage 0, or the previous stage itself touches the
  array on the host).
* **Residency** — once on the device the array stays there.  What that
  saves is counted, not ruled: a plan's ``transfers_elided`` is the
  HYBRID schedule's copies minus its own, both listed by
  :func:`planned_copies`, the one statement of the executor's copy rules
  (the movement model sums the same walk).
* **Drain** — device-written arrays are read back once, asynchronously,
  after their last device use (coalesced bursts behind compute), rather
  than at every operator boundary.
* **Spill order** — under pool pressure the executor evicts the mapped
  buffer whose *next device use* is farthest in the future (Belady on
  the static schedule), falling back gracefully when nothing is
  evictable.

The plan is advisory: the executor re-validates every decision against
dynamic state (spills, device loss, injected faults), so a plan can
never make execution wrong — only fast.

The same executor also runs the two eager transfer schedules of the
paper's §3.2.2 ablation, planned by :func:`eager_plan` with every
optimisation above turned off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .fusion import FusedGroup, plan_fusion
from .lifetime import Access, StageInfo, WorkflowIR

__all__ = [
    "BufferPlan",
    "StagePlan",
    "PipelinePlan",
    "PlannedCopy",
    "build_plan",
    "eager_plan",
    "planned_copies",
    "eager_launches",
    "planned_launch_elisions",
]


@dataclass
class BufferPlan:
    """The planned movement for one array."""

    label: str
    nbytes: int
    #: "elide" (alloc + on-device memset), "prefetch" (async H2D at
    #: ``prefetch_at``), "sync" (blocking H2D at first device use), or
    #: "none" (never device-resident).
    first_touch: str
    first_device_stage: Optional[int]
    prefetch_at: Optional[int] = None
    #: Stage after which the deferred D2H drain is submitted (last device
    #: use of a device-written buffer); None when never device-written.
    drain_after: Optional[int] = None


@dataclass
class StagePlan:
    """Planned transfer actions around one stage."""

    index: int
    name: str
    accel: bool
    #: Labels staged synchronously at stage start (first touch here).
    stage_in_sync: List[str] = field(default_factory=list)
    #: Labels whose H2D is elided into an on-device memset at this stage.
    stage_in_elide: List[str] = field(default_factory=list)
    #: Labels prefetched *during* this stage for a later stage's use.
    prefetch: List[str] = field(default_factory=list)
    #: Labels whose deferred D2H drain is submitted after this stage.
    drain: List[str] = field(default_factory=list)
    #: Unmap everything after this stage, syncing device-newer arrays
    #: back first (the eager schedules' drain points).
    release: bool = False


@dataclass
class PipelinePlan:
    """The compiled schedule for one workflow execution."""

    ir: WorkflowIR
    buffers: Dict[str, BufferPlan]
    stages: List[StagePlan]
    groups: List[FusedGroup]
    launches_elided: int = 0
    #: "compiled", or one of the eager schedules "hybrid" and "naive".
    schedule: str = "compiled"
    #: Filled by the executor as it runs.
    executed: Dict[str, float] = field(default_factory=dict)

    @property
    def eager(self) -> bool:
        """Whether this is one of the synchronous per-operator schedules."""
        return self.schedule != "compiled"

    @property
    def fused_groups(self) -> int:
        return len(self.groups)

    @cached_property
    def elided_copies(self) -> Dict[str, Tuple[int, int]]:
        """Per label, the (H2D, D2H) copies the HYBRID schedule makes
        over this plan's IR minus the copies this plan makes.

        Walked on first read, so a run nobody inspects pays nothing.
        """
        counts: Dict[str, List[int]] = {}
        for sign, plan in ((1, eager_plan(self.ir)), (-1, self)):
            for c in planned_copies(plan):
                h2d_d2h = counts.setdefault(c.label, [0, 0])
                h2d_d2h[0 if c.direction == "h2d" else 1] += sign
        return {label: (h2d, d2h) for label, (h2d, d2h) in counts.items()}

    @property
    def transfers_elided(self) -> int:
        """Copies this plan saves over the HYBRID schedule."""
        return sum(h2d + d2h for h2d, d2h in self.elided_copies.values())

    def group_of(self, stage_index: int) -> Optional[FusedGroup]:
        for g in self.groups:
            if stage_index in g.stage_indices:
                return g
        return None


def _stacks(kernel_name: str, impl) -> bool:
    """Whether this kernel resolves to an implementation with a stacked
    (megabatch) entry path under the active implementation selection."""
    from ..core.dispatch import kernel_registry

    try:
        _, actual = kernel_registry.resolve(kernel_name, impl)
    except KeyError:
        return False
    return kernel_registry.has_megabatch(kernel_name, actual)


def eager_launches(ir: WorkflowIR) -> int:
    """Kernel launches the eager per-observation dispatch would perform."""
    total = 0
    for stage in ir.stages:
        if not stage.accel:
            continue
        n_obs = max(1, len(getattr(stage.unit, "obs", ())))
        total += max(1, len(stage.kernel_names)) * n_obs
    return total


def planned_launch_elisions(
    ir: WorkflowIR, groups, megabatch: bool = False, impl=None
) -> int:
    """Launches saved vs eager dispatch: fusion, plus stacking if asked.

    With ``megabatch``, each stage's kernels that resolve to a stacked
    implementation launch once per multi-observation work unit instead of
    once per observation — both inside fused groups (whose member counts
    shrink accordingly) and outside them.
    """
    if impl is None:
        from ..core.dispatch import default_implementation

        impl = default_implementation()

    def stage_launches(stage) -> int:
        n_obs = max(1, len(getattr(stage.unit, "obs", ())))
        if not stage.kernel_names:
            return n_obs
        if not megabatch:
            # Kernels launch once per observation in the stage's work unit.
            return len(stage.kernel_names) * n_obs
        return sum(
            1 if n_obs > 1 and _stacks(k, impl) else n_obs
            for k in stage.kernel_names
        )

    elided = 0
    for g in groups:
        member_launches = sum(stage_launches(ir.stages[i]) for i in g.stage_indices)
        elided += member_launches - 1
    if megabatch:
        # Stacking elisions: every accel stage's stackable kernels launch
        # once per chunk instead of once per observation, fused or not.
        for stage in ir.stages:
            if not stage.accel:
                continue
            n_obs = max(1, len(getattr(stage.unit, "obs", ())))
            if n_obs <= 1:
                continue
            elided += sum(
                n_obs - 1 for k in stage.kernel_names if _stacks(k, impl)
            )
    return elided


def _eager_staging(stage: StageInfo) -> List[Access]:
    """The observation arrays eager staging maps around ``stage``.

    ``meta`` arrays are left out: operators stage their own globals.  The
    order is observation by observation, shared before detdata, and the
    operator's inputs before its write-only outputs.  It fixes the pool
    offsets and the summation order of the modeled copy seconds, so the
    eager schedules reproduce per-operator staging bit for bit.
    """
    rank: Dict[int, tuple] = {}
    for i, ob in enumerate(stage.unit.obs):
        for j, store in enumerate((ob.shared, ob.detdata)):
            for arr in store.values():
                rank[id(arr)] = (i, j)
    staged = [a for a in stage.accesses if a.category != "meta"]
    return sorted(staged, key=lambda a: (*rank[id(a.array)], not a.reads))


def eager_plan(ir: WorkflowIR, naive: bool = False) -> PipelinePlan:
    """The HYBRID (or NAIVE) schedule: per-operator synchronous staging.

    Every device stage maps the observation arrays it touches that are
    not resident yet, copying them in synchronously.  Nothing is elided,
    prefetched, fused or drained asynchronously.  HYBRID keeps arrays
    resident until the end of each work unit; NAIVE also releases
    everything after every device stage (the transfer-around-every-kernel
    strawman the paper beat by ~40%).
    """
    stages: List[StagePlan] = []
    for s in ir.stages:
        unit_ends = s.index + 1 == len(ir.stages) or (
            ir.stages[s.index + 1].unit_index != s.unit_index
        )
        sp = StagePlan(
            index=s.index,
            name=s.op.name,
            accel=s.accel,
            release=unit_ends or (naive and s.accel),
        )
        if s.accel:
            sp.stage_in_sync = [a.label for a in _eager_staging(s)]
        stages.append(sp)
    schedule = "naive" if naive else "hybrid"
    return PipelinePlan(ir=ir, buffers={}, stages=stages, groups=[], schedule=schedule)


def build_plan(ir: WorkflowIR, megabatch: bool = False) -> PipelinePlan:
    """Derive the transfer schedule and fusion groups from the IR.

    With ``megabatch``, launch accounting assumes each stage's kernels
    with a stacked implementation launch once per multi-observation work
    unit instead of once per observation; the per-kernel stacking
    elisions are added on top of fusion's, matching what the megabatch
    collector reports at execution time.
    """
    groups = plan_fusion(ir)
    stage_plans = [
        StagePlan(index=s.index, name=s.op.name, accel=s.accel) for s in ir.stages
    ]
    buffer_plans: Dict[str, BufferPlan] = {}

    for label, life in ir.buffers.items():
        first_dev = life.first_device_use
        bp = BufferPlan(
            label=label,
            nbytes=life.nbytes,
            first_touch="none",
            first_device_stage=first_dev,
        )
        if first_dev is not None:
            zero_safe = not life.host_written_before(first_dev)
            if zero_safe and not life.array.any():
                bp.first_touch = "elide"
                stage_plans[first_dev].stage_in_elide.append(label)
            else:
                prev = first_dev - 1
                if prev >= 0 and life.use_at(prev) is None:
                    bp.first_touch = "prefetch"
                    bp.prefetch_at = prev
                    stage_plans[prev].prefetch.append(label)
                else:
                    bp.first_touch = "sync"
                    stage_plans[first_dev].stage_in_sync.append(label)

            if life.device_written():
                bp.drain_after = life.last_device_use
                stage_plans[life.last_device_use].drain.append(label)

        buffer_plans[label] = bp

    return PipelinePlan(
        ir=ir,
        buffers=buffer_plans,
        stages=stage_plans,
        groups=groups,
        launches_elided=planned_launch_elisions(ir, groups, megabatch),
    )


class PlannedCopy(NamedTuple):
    """One host<->device copy a plan makes."""

    label: str
    direction: str  # "h2d" | "d2h"
    nbytes: int


def planned_copies(plan: PipelinePlan) -> List[PlannedCopy]:
    """The copies a fault-free run of ``plan`` makes, in execution order.

    One walk over the stages that runs no kernels and reads only the plan
    and buffer sizes.  It keeps the executor's residency model (which
    labels are mapped, and whether the device or the host holds the newer
    bytes) and takes the same copy decisions as the executor and the
    operators, with no resilience controller attached:

    * an eager stage maps each ``stage_in_sync`` label not yet resident
      with a synchronous copy;
    * a compiled stage copies in every first touch of the stage and every
      label it prefetches, except the ``stage_in_elide`` labels, which
      become on-device memsets; a resident array a host stage wrote is
      copied in again at its next device use;
    * any access the executor left unmapped is a global the operator
      stages for its own exec: one copy in, and one copy out if the
      operator writes it;
    * device-newer bytes are copied out once, at the first of: the
      array's planned drain, a host stage reading it, a ``release``
      stage, or pipeline exit;
    * an eager host stage's write to a resident array refreshes the
      device copy at once.
    """
    ir = plan.ir
    copies: List[PlannedCopy] = []
    # Resident labels -> "synced", "device" (device newer) or "host".
    status: Dict[str, str] = {}

    def copy(label: str, direction: str) -> None:
        copies.append(PlannedCopy(label, direction, ir.buffers[label].nbytes))

    def sync_back(label: str) -> None:
        if status.get(label) == "device":
            copy(label, "d2h")
            status[label] = "synced"

    for stage, sp in zip(ir.stages, plan.stages):
        if stage.accel:
            if plan.eager:
                staged = sp.stage_in_sync
            else:
                staged = [acc.label for acc in stage.accesses] + sp.prefetch
            for label in staged:
                if label not in status:
                    status[label] = "synced"
                    if label not in sp.stage_in_elide:
                        copy(label, "h2d")
                elif status[label] == "host":
                    copy(label, "h2d")
                    status[label] = "synced"
            for acc in stage.accesses:
                if acc.label not in status:
                    copy(acc.label, "h2d")
                    if acc.writes:
                        copy(acc.label, "d2h")
                elif acc.writes:
                    status[acc.label] = "device"
            for label in sp.drain:
                sync_back(label)
        else:
            for acc in stage.accesses:
                if acc.reads:
                    sync_back(acc.label)
            for acc in stage.accesses:
                if acc.writes and acc.label in status:
                    if plan.eager:
                        copy(acc.label, "h2d")
                    else:
                        status[acc.label] = "host"
        if sp.release:
            for label in status:
                sync_back(label)
            status.clear()
    for label in status:
        sync_back(label)
    return copies
