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
* **Residency** — once on the device the array stays there; re-stages
  the eager schedules perform (meta arrays entered/exited by every
  operator exec, device refreshes after host writes nothing will read)
  are counted as elided.
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
from typing import Dict, List, Optional

from .fusion import FusedGroup, plan_fusion
from .lifetime import Access, StageInfo, WorkflowIR, lower_workflow

__all__ = [
    "BufferPlan",
    "StagePlan",
    "PipelinePlan",
    "build_plan",
    "eager_plan",
    "plan_workflow",
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
    #: Eager-pipeline transfers this plan avoids for the buffer.
    elided_h2d: int = 0
    elided_d2h: int = 0


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
    transfers_elided: int = 0
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
    transfers_elided = 0

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
                bp.elided_h2d += 1
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

            # Residency elisions vs the eager schedules.  Eager re-enters
            # meta arrays around every operator exec (each op stages its
            # own globals), paying one H2D per device stage that reads
            # them and, for device-written ones, one D2H per device stage.
            # Compiled keeps them resident: one stage-in, one drain.
            device_uses = [u for u in life.uses if u.on_device]
            if life.category == "meta" and len(device_uses) > 1:
                reads_after_first = sum(1 for u in device_uses[1:] if u.reads)
                bp.elided_h2d += reads_after_first
                if life.device_written():
                    bp.elided_d2h += sum(1 for u in device_uses[:-1] if u.writes)
            # Host writes with no later device read: eager refreshes the
            # device copy anyway (update_to of every mapped pushed array);
            # compiled skips the dead transfer.
            for u in life.uses:
                if not u.on_device and u.writes and u.stage > first_dev:
                    if life.next_device_use(u.stage) is None:
                        bp.elided_h2d += 1

            if life.device_written():
                bp.drain_after = life.last_device_use
                stage_plans[life.last_device_use].drain.append(label)

        transfers_elided += bp.elided_h2d + bp.elided_d2h
        buffer_plans[label] = bp

    launches_elided = planned_launch_elisions(ir, groups, megabatch)

    return PipelinePlan(
        ir=ir,
        buffers=buffer_plans,
        stages=stage_plans,
        groups=groups,
        transfers_elided=transfers_elided,
        launches_elided=launches_elided,
    )


def plan_workflow(operators, units) -> PipelinePlan:
    """Lower and plan in one step (the CLI's entry point)."""
    return build_plan(lower_workflow(operators, units))
