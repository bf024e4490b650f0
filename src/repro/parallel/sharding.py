"""Pinning a dataset to a fixed set of observations.

Inside a worker, a :class:`SubsetComm` makes the simulation operators
generate exactly the observations a task owns: ``distribute_observations``
returns the fixed indices instead of a block of a live communicator, so a
task simulates its observations with the bytes a serial run produces for
them.
"""

from __future__ import annotations

from typing import List, Sequence

from ..mpi.comm import ToastComm

__all__ = ["SubsetComm"]


class SubsetComm(ToastComm):
    """A serial communicator that owns a fixed set of observation indices.

    Everything else degenerates to the serial case: collectives are local,
    reductions are copies.  Only the observation distribution is pinned,
    which is all the simulation operators consult.
    """

    def __init__(self, obs_indices: Sequence[int]):
        super().__init__()
        self.obs_indices = [int(i) for i in obs_indices]

    def distribute_observations(self, n_obs: int) -> List[int]:
        bad = [i for i in self.obs_indices if i < 0 or i >= n_obs]
        if bad:
            raise ValueError(
                f"shard indices {bad} out of range for {n_obs} observations"
            )
        return list(self.obs_indices)
