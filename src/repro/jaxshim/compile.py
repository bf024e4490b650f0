"""Compiled executables: graph evaluation plus device cost accounting."""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..obs import state as obs_state
from .core import Graph, Var
from .devices import current_device
from .fusion import fusion_groups, group_cost

__all__ = ["CompiledFunction", "estimate_compile_time"]


def estimate_compile_time(n_eqns: int) -> float:
    """Modeled XLA compile time: a fixed front-end cost plus per-op work.

    Real XLA compiles of TOAST-sized kernels take tens to hundreds of
    milliseconds; the paper includes this JIT time in every reported
    runtime, so the model must charge it on first trace.
    """
    return 0.080 + 0.004 * n_eqns


def _last_reads(graph: Graph) -> List[Tuple[int, ...]]:
    """Per equation, the uids of the Vars it reads for the last time.

    Graph outputs are never listed: they outlive the call.  A Var an
    equation reads twice is listed once.
    """
    seen: Set[int] = {a.uid for a in graph.out_atoms if isinstance(a, Var)}
    dead: List[Tuple[int, ...]] = []
    for eqn in reversed(graph.eqns):
        last = []
        for a in eqn.inputs:
            if isinstance(a, Var) and a.uid not in seen:
                seen.add(a.uid)
                last.append(a.uid)
        dead.append(tuple(last))
    dead.reverse()
    return dead


class CompiledFunction:
    """An executable compiled graph.

    Evaluates equations in program order with NumPy.  Every intermediate
    is released right after the equation that reads it last (``last_reads``,
    derived once from the graph), as XLA's buffer assignment frees a
    temporary at its last use; only graph outputs live to the end of a
    call.  Buffers are released, never reused: the shape primitives
    return views that may alias other live values.  Captured constant
    outputs are copied on every call, so a caller that writes into one
    cannot change what later calls return.

    When a simulated device is attached, each call charges modeled kernel
    time: one launch per fusion group, each costed with a roofline
    ``max(flops / peak, bytes / bandwidth)``.
    """

    def __init__(
        self,
        graph: Graph,
        name: str = "jit_fn",
        donated_in_idx: Optional[Set[int]] = None,
    ):
        self.graph = graph
        self.name = name
        self.donated_in_idx = donated_in_idx or set()
        self.groups = fusion_groups(graph)
        self.costs = [group_cost(graph, g) for g in self.groups]
        self.last_reads = _last_reads(graph)
        self.n_calls = 0
        self.donated_bytes_last_call = 0

    @property
    def n_kernels(self) -> int:
        """Kernel launches per call (after fusion)."""
        return len(self.groups)

    @property
    def n_eqns(self) -> int:
        return self.graph.n_eqns

    def modeled_execution_time(self, device) -> float:
        """Roofline seconds for one call on ``device`` (excl. launch cost)."""
        spec = device.spec
        total = 0.0
        for flops, nbytes in self.costs:
            total += max(flops / spec.peak_fp64_flops, nbytes / spec.memory_bandwidth_bps)
        return total

    def modeled_execution_time_unfused(self, device) -> float:
        """The counterfactual without fusion: one kernel per equation,
        every intermediate written to and read back from device memory.

        Quantifies what the paper credits the XLA compiler with ("fuse
        kernels and elide intermediate results", §2.3).
        """
        spec = device.spec
        total = 0.0
        for i, _ in enumerate(self.graph.eqns):
            flops, nbytes = group_cost(self.graph, [i])
            total += (
                max(flops / spec.peak_fp64_flops, nbytes / spec.memory_bandwidth_bps)
                + spec.kernel_launch_overhead_s
            )
        return total

    def __call__(self, *leaf_values: np.ndarray) -> List[np.ndarray]:
        if len(leaf_values) != len(self.graph.in_vars):
            raise TypeError(
                f"{self.name} expects {len(self.graph.in_vars)} array leaves, "
                f"got {len(leaf_values)}"
            )
        self.n_calls += 1

        device = current_device()
        if device is not None:
            device.launch(
                self.name,
                self.modeled_execution_time(device),
                n_launches=max(1, self.n_kernels),
            )

        env: dict[int, np.ndarray] = {}
        for var, val in zip(self.graph.in_vars, leaf_values):
            env[var.uid] = val

        if self.donated_in_idx:
            self.donated_bytes_last_call = sum(
                leaf_values[i].nbytes
                for i in self.donated_in_idx
                if i < len(leaf_values)
            )
        else:
            # Most compiled functions donate nothing; skip the per-call
            # generator walk entirely on that hot path.
            self.donated_bytes_last_call = 0

        tr = obs_state.active
        if tr is not None:
            # The launch itself was already traced by the device hook under
            # this executable's name; add the compiler-side aggregates.
            tr.metrics.count("jit.calls")
            if self.donated_bytes_last_call:
                tr.metrics.count("jit.donated_bytes", self.donated_bytes_last_call)

        for eqn, dead in zip(self.graph.eqns, self.last_reads):
            args = [env[a.uid] if isinstance(a, Var) else a for a in eqn.inputs]
            env[eqn.out.uid] = eqn.prim.impl(*args, **eqn.params)
            del args
            for uid in dead:
                del env[uid]

        outs: List[np.ndarray] = []
        for atom in self.graph.out_atoms:
            outs.append(env[atom.uid] if isinstance(atom, Var) else atom.copy())
        return outs
