"""Lowering: a workflow's operator sequence -> buffer-lifetime IR.

Staging one operator at a time (the eager schedules) cannot see that the
buffer about to go H2D was zero-filled by ``ensure_outputs`` a
microsecond ago, or that the map drained after this stage is read again
by the very next one.  This module builds the view every plan is made
from: every stage of the whole workflow (operator x work unit), every
array any stage touches, and for each array the full use-list — which
stages read it, which write it, and whether those stages run on the
device.

Lowering is purely static: it calls every operator's ``ensure_outputs``
up front (they only create zero-filled outputs, never read prior stages'
results) and resolves bindings from the KernelSpec registry (falling
back to ``requires``/``provides`` for operators without bindings).
Nothing executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Access",
    "StageInfo",
    "StageUse",
    "BufferLife",
    "WorkflowIR",
    "lower_workflow",
]

#: KernelSpec arg roles -> observation data categories (GLOBAL args live
#: in the pipeline ``meta`` dict).
_ROLE_CATEGORY = {"detdata": "detdata", "shared": "shared", "global": "meta"}


@dataclass
class Access:
    """One stage's use of one array."""

    label: str
    key: str
    category: str  # "shared" | "detdata" | "meta"
    array: np.ndarray
    reads: bool
    writes: bool


@dataclass
class StageInfo:
    """One (work unit, operator) step of the lowered workflow."""

    index: int
    unit_index: int
    op: object
    unit: object  # the Data view this stage executes against
    accel: bool
    accesses: List[Access]
    kernel_names: List[str]
    fusion_kinds: List[str]

    @property
    def fusible(self) -> bool:
        """Whether every kernel this stage launches may join a fused group."""
        return bool(self.fusion_kinds) and all(
            k in ("elementwise", "gather") for k in self.fusion_kinds
        )


@dataclass(frozen=True)
class StageUse:
    """One entry of a buffer's use-list."""

    stage: int
    reads: bool
    writes: bool
    on_device: bool


@dataclass
class BufferLife:
    """The lifetime of one array across the whole workflow."""

    label: str
    key: str
    category: str
    array: np.ndarray
    uses: List[StageUse] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def last_use(self) -> int:
        return self.uses[-1].stage

    @property
    def first_device_use(self) -> Optional[int]:
        for u in self.uses:
            if u.on_device:
                return u.stage
        return None

    @property
    def last_device_use(self) -> Optional[int]:
        for u in reversed(self.uses):
            if u.on_device:
                return u.stage
        return None

    def next_device_use(self, after: int) -> Optional[int]:
        """First device-stage index strictly after ``after``, or None.

        The liveness spill policy evicts the buffer whose next device use
        is farthest away (Belady's rule on the static schedule).
        """
        for u in self.uses:
            if u.on_device and u.stage > after:
                return u.stage
        return None

    def device_written(self) -> bool:
        return any(u.on_device and u.writes for u in self.uses)

    def host_written_before(self, stage: int) -> bool:
        """Any host-side write strictly before ``stage``?

        Guards the zero-elision check: the planner's ``array.any()`` probe
        is only authoritative for the first device use if no host stage
        can rewrite the bytes in between.
        """
        return any((not u.on_device) and u.writes and u.stage < stage for u in self.uses)

    def use_at(self, stage: int) -> Optional[StageUse]:
        for u in self.uses:
            if u.stage == stage:
                return u
        return None


@dataclass
class WorkflowIR:
    """The lowered workflow: ordered stages + per-array lifetimes."""

    stages: List[StageInfo]
    buffers: Dict[str, BufferLife]  # label -> life
    by_id: Dict[int, str]  # id(array) -> label

    def life_of(self, arr: np.ndarray) -> Optional[BufferLife]:
        label = self.by_id.get(id(arr))
        return self.buffers[label] if label is not None else None


def _fallback_accesses(op, unit, ob_index_of) -> List[Access]:
    """Accesses for operators without kernel bindings (requires/provides).

    Direction information is coarse — required keys count as reads,
    provided keys as reads+writes (outputs are staged in too, as eager
    staging always did), so the plan never under-stages.
    """
    req, prov = op.requires(), op.provides()
    out: List[Access] = []
    seen: Dict[int, Access] = {}

    def add(category: str, key: str, arr: np.ndarray, reads: bool, writes: bool) -> None:
        acc = seen.get(id(arr))
        if acc is not None:
            acc.reads = acc.reads or reads
            acc.writes = acc.writes or writes
            return
        if category == "meta":
            label = f"meta.{key}"
        else:
            label = f"ob{ob_index_of[id(arr)]}.{category}.{key}"
        acc = Access(label, key, category, arr, reads, writes)
        seen[id(arr)] = acc
        out.append(acc)

    for traits, writes in ((req, False), (prov, True)):
        for category in ("shared", "detdata"):
            for key in traits.get(category, ()):
                for ob in unit.obs:
                    store = ob.shared if category == "shared" else ob.detdata
                    if key in store:
                        add(category, key, store[key], True, writes)
        for key in traits.get("meta", ()):
            if key in unit:
                arr = unit[key]
                if isinstance(arr, np.ndarray):
                    add("meta", key, arr, True, writes)
    return out


def _spec_accesses(op, bindings, unit, ob_index_of) -> Tuple[List[Access], List[str], List[str]]:
    """(accesses, kernel names, fusion kinds) from kernel bindings."""
    from ..core.dispatch import kernel_registry

    out: List[Access] = []
    seen: Dict[int, Access] = {}
    kernel_names: List[str] = []
    kinds: List[str] = []

    def add(category: str, key: str, arr: np.ndarray, reads: bool, writes: bool) -> None:
        acc = seen.get(id(arr))
        if acc is not None:
            acc.reads = acc.reads or reads
            acc.writes = acc.writes or writes
            return
        if category == "meta":
            label = f"meta.{key}"
        else:
            label = f"ob{ob_index_of[id(arr)]}.{category}.{key}"
        acc = Access(label, key, category, arr, reads, writes)
        seen[id(arr)] = acc
        out.append(acc)

    for kname in sorted(bindings):
        spec = kernel_registry.spec(kname)
        if spec is None:
            raise KeyError(
                f"operator {op.name!r} binds kernel {kname!r} with no KernelSpec"
            )
        kernel_names.append(kname)
        kinds.append(spec.fusion_kind)
        for arg_name, key in bindings[kname].items():
            if key is None:
                continue
            arg = spec.arg(arg_name)
            category = _ROLE_CATEGORY.get(arg.role.value)
            if category is None:
                continue
            if category == "meta":
                if key in unit and isinstance(unit[key], np.ndarray):
                    add(category, key, unit[key], arg.intent.reads, arg.intent.writes)
                continue
            for ob in unit.obs:
                store = ob.shared if category == "shared" else ob.detdata
                if key in store:
                    add(category, key, store[key], arg.intent.reads, arg.intent.writes)
    return out, kernel_names, kinds


def lower_workflow(operators, units) -> WorkflowIR:
    """Lower ``operators`` over ``units`` (ordered Data views) to IR.

    Stage order is the execution order: unit-major (all operators over
    unit 0, then unit 1, ...) matching ``LoopOrder.OBSERVATION_MAJOR``
    when units are single observations, and degenerating to the plain
    operator sequence for the single-unit ``OPERATOR_MAJOR`` case.
    """
    # Create every output up front so lowering can resolve all arrays.
    for unit in units:
        for op in operators:
            op.ensure_outputs(unit)

    # Stable global observation indices for labels.
    ob_index_of: Dict[int, int] = {}
    next_ob = 0
    ob_ids: Dict[int, int] = {}
    for unit in units:
        for ob in unit.obs:
            if id(ob) not in ob_ids:
                ob_ids[id(ob)] = next_ob
                next_ob += 1

    def index_arrays(unit) -> None:
        for ob in unit.obs:
            idx = ob_ids[id(ob)]
            for store in (ob.shared, ob.detdata):
                for key in store:
                    ob_index_of[id(store[key])] = idx

    stages: List[StageInfo] = []
    buffers: Dict[str, BufferLife] = {}
    by_id: Dict[int, str] = {}
    stage_idx = 0
    for unit_idx, unit in enumerate(units):
        index_arrays(unit)
        for op in operators:
            bindings = op.kernel_bindings()
            if bindings:
                accesses, knames, kinds = _spec_accesses(op, bindings, unit, ob_index_of)
            else:
                accesses = _fallback_accesses(op, unit, ob_index_of)
                knames, kinds = [], []
            accel = op.supports_accel()
            stage = StageInfo(
                index=stage_idx,
                unit_index=unit_idx,
                op=op,
                unit=unit,
                accel=accel,
                accesses=accesses,
                kernel_names=knames,
                fusion_kinds=kinds,
            )
            stages.append(stage)
            for acc in accesses:
                life = buffers.get(acc.label)
                if life is None:
                    life = BufferLife(acc.label, acc.key, acc.category, acc.array)
                    buffers[acc.label] = life
                    by_id[id(acc.array)] = acc.label
                elif life.array is not acc.array:
                    # Same label, different storage (should not happen for
                    # well-formed workflows) -- disambiguate by identity.
                    alt = f"{acc.label}#{id(acc.array):x}"
                    acc.label = alt
                    life = buffers.get(alt)
                    if life is None:
                        life = BufferLife(alt, acc.key, acc.category, acc.array)
                        buffers[alt] = life
                        by_id[id(acc.array)] = alt
                life.uses.append(
                    StageUse(stage_idx, acc.reads, acc.writes, on_device=accel)
                )
            stage_idx += 1
    return WorkflowIR(stages=stages, buffers=buffers, by_id=by_id)
