"""The distributed data container: observations owned by a process group."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..mpi import ToastComm
from .observation import Observation

__all__ = ["Data"]


class Data:
    """All observations assigned to this process group, plus global objects.

    ``meta`` holds pipeline-global products (sky maps, template amplitude
    vectors, pixel distributions) keyed by name, like TOAST's ``Data``
    dictionary interface.
    """

    def __init__(self, comm: Optional[ToastComm] = None):
        self.comm = comm if comm is not None else ToastComm()
        self.obs: List[Observation] = []
        self.meta: Dict[str, Any] = {}

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.obs)

    def __len__(self) -> int:
        return len(self.obs)

    def __getitem__(self, key: str) -> Any:
        return self.meta[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.meta[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.meta

    @property
    def n_samples_total(self) -> int:
        return sum(ob.n_samples for ob in self.obs)

    def memory_bytes(self) -> int:
        """Total timestream bytes held by this process group."""
        return sum(ob.memory_bytes() for ob in self.obs)

    def __repr__(self) -> str:
        return f"Data({len(self.obs)} observations, meta={sorted(self.meta)})"
