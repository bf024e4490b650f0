"""Modeled process layouts for the paper's benchmark sweeps.

The paper's Figure 4 sweeps the number of processes on one Perlmutter GPU
node (64 CPU cores, 4 A100s) with the total compute held fixed -- threads
per process fall as processes rise.  Figure 5 uses 8 nodes with 16
processes per node and 4 threads each.  :class:`SimWorld` captures exactly
those layouts so the performance model can evaluate them; a measured
process sweep (:func:`repro.parallel.run_parallel_satellite`) records the
layout it stands for with :meth:`SimWorld.describe`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NodeSpec", "SimWorld"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware inventory of one node (defaults: a Perlmutter GPU node)."""

    cores: int = 64
    gpus: int = 4
    cpu_memory_bytes: int = 256 * 1024**3
    gpu_memory_bytes: int = 40 * 1024**3

    def __post_init__(self) -> None:
        if self.cores < 1 or self.gpus < 0:
            raise ValueError("a node needs >= 1 core and >= 0 GPUs")
        if self.cpu_memory_bytes <= 0 or self.gpu_memory_bytes < 0:
            raise ValueError("memory sizes must be positive")


@dataclass(frozen=True)
class SimWorld:
    """A modeled MPI world: nodes x processes, with derived thread counts."""

    n_nodes: int = 1
    procs_per_node: int = 16
    node: NodeSpec = NodeSpec()

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.procs_per_node < 1:
            raise ValueError("procs_per_node must be >= 1")
        if self.procs_per_node > self.node.cores:
            raise ValueError(
                f"cannot place {self.procs_per_node} processes on "
                f"{self.node.cores} cores"
            )

    @property
    def n_procs(self) -> int:
        return self.n_nodes * self.procs_per_node

    @property
    def threads_per_proc(self) -> int:
        """Fixed total compute: threads shrink as processes grow."""
        return self.node.cores // self.procs_per_node

    @property
    def procs_per_gpu(self) -> float:
        if self.node.gpus == 0:
            raise ValueError("this node has no GPUs")
        return self.procs_per_node / self.node.gpus

    def describe(self) -> str:
        return (
            f"{self.n_nodes} node(s) x {self.procs_per_node} proc(s) x "
            f"{self.threads_per_proc} thread(s), {self.node.gpus} GPU(s)/node"
        )
