"""Human- and machine-readable views of a compiled plan.

``plan_report`` turns a :class:`~repro.compilepipe.planner.PipelinePlan`
into the dict that ``repro-bench plan --json`` prints; ``render_plan``
formats the same information as the text schedule.  ``transfer_seconds``
extracts the exposed (non-overlapped) transfer cost of a run from its
virtual clock — the number the sweep's NAIVE / HYBRID / COMPILED
comparison is built on.
"""

from __future__ import annotations

from typing import Dict

from .planner import PipelinePlan

__all__ = ["plan_report", "render_plan", "transfer_seconds"]

#: Clock regions that represent *exposed* transfer time: synchronous
#: copies plus the waited-out tails of async copy streams.  Overlapped
#: stream time deliberately does not appear — hiding it is the point.
EXPOSED_TRANSFER_REGIONS = (
    "accel_data_update_device",
    "accel_data_update_host",
    "transfer_wait_h2d",
    "transfer_wait_d2h",
)


def transfer_seconds(clock) -> float:
    """Exposed transfer seconds accumulated on a virtual clock."""
    regions = clock.regions()
    return float(sum(regions.get(r, 0.0) for r in EXPOSED_TRANSFER_REGIONS))


def plan_report(plan: PipelinePlan) -> Dict:
    """The full planned schedule as plain data (JSON-serialisable)."""
    buffers = []
    for label, bp in sorted(plan.buffers.items()):
        elided_h2d, elided_d2h = plan.elided_copies.get(label, (0, 0))
        buffers.append(
            {
                "label": label,
                "nbytes": bp.nbytes,
                "first_touch": bp.first_touch,
                "first_device_stage": bp.first_device_stage,
                "prefetch_at": bp.prefetch_at,
                "drain_after": bp.drain_after,
                "elided_h2d": elided_h2d,
                "elided_d2h": elided_d2h,
            }
        )
    stages = []
    for sp in plan.stages:
        group = plan.group_of(sp.index)
        stages.append(
            {
                "index": sp.index,
                "op": sp.name,
                "accel": sp.accel,
                "stage_in_sync": list(sp.stage_in_sync),
                "stage_in_elide": list(sp.stage_in_elide),
                "prefetch": list(sp.prefetch),
                "drain": list(sp.drain),
                "fused_group": group.name if group is not None else None,
            }
        )
    groups = []
    for g in plan.groups:
        groups.append(
            {
                "name": g.name,
                "stages": list(g.stage_indices),
                "kernels": list(g.kernel_names),
                "private": list(g.private_labels),
                "escaping": list(g.escaping_labels),
                "private_bytes": g.private_bytes,
            }
        )
    return {
        "stages": stages,
        "buffers": buffers,
        "fused_groups": groups,
        "totals": {
            "n_stages": len(plan.stages),
            "n_buffers": len(plan.buffers),
            "transfers_elided": plan.transfers_elided,
            "launches_elided": plan.launches_elided,
            "n_fused_groups": plan.fused_groups,
        },
        "executed": dict(plan.executed),
    }


def render_plan(plan: PipelinePlan) -> str:
    """The planned schedule as a readable text table."""
    rep = plan_report(plan)
    lines = []
    lines.append(
        f"compiled plan: {rep['totals']['n_stages']} stages, "
        f"{rep['totals']['n_buffers']} buffers, "
        f"{rep['totals']['transfers_elided']} transfers elided, "
        f"{rep['totals']['n_fused_groups']} fused groups "
        f"({rep['totals']['launches_elided']} launches elided)"
    )
    lines.append("")
    lines.append("stage schedule:")
    for st in rep["stages"]:
        mode = "accel" if st["accel"] else "host "
        parts = []
        if st["stage_in_elide"]:
            parts.append("elide " + ", ".join(st["stage_in_elide"]))
        if st["stage_in_sync"]:
            parts.append("sync-in " + ", ".join(st["stage_in_sync"]))
        if st["prefetch"]:
            parts.append("prefetch " + ", ".join(st["prefetch"]))
        if st["drain"]:
            parts.append("drain " + ", ".join(st["drain"]))
        if st["fused_group"]:
            parts.append(f"fused[{st['fused_group']}]")
        detail = "; ".join(parts) if parts else "-"
        lines.append(f"  [{st['index']:>3}] {mode} {st['op']:<24} {detail}")
    if rep["fused_groups"]:
        lines.append("")
        lines.append("fused groups:")
        for g in rep["fused_groups"]:
            lines.append(
                f"  {g['name']}: stages {g['stages']} kernels {g['kernels']}"
            )
            if g["private"]:
                lines.append(
                    f"    private intermediates: {g['private']} "
                    f"({g['private_bytes']} B stay in registers/cache)"
                )
            if g["escaping"]:
                lines.append(f"    escaping (materialized): {g['escaping']}")
    if rep["executed"]:
        lines.append("")
        lines.append("executed:")
        for k in sorted(rep["executed"]):
            lines.append(f"  {k} = {rep['executed'][k]:g}")
    return "\n".join(lines)
