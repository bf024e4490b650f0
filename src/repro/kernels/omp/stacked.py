"""The OpenMP stacked (megabatch) entry, derived from the per-observation kernels.

Every OpenMP kernel writes its loop body once, as a closure over one
observation's device views, and launches it over its collapse(3) nest
``(n_det, starts, stops)``.  The stacked entry reuses that body
unchanged: it runs each group member's per-observation kernel with its
launch recorded (:func:`~repro.kernels.common.recording_launches`), then
makes *one* launch named ``<kernel>.megabatch`` whose outer dimension
becomes ``n_obs * n_det`` -- the OpenMP way of stacking a batch axis
without changing the loop nest (cf. the paper's collapse clauses).

The launch is charged for the padded stacked grid ``(n_obs * n_det,
n_ivl, max_len)``; its iterations are the members' own, observation-major
(:class:`StackedNest`), as flat index vectors.  Member ``iobs`` therefore
owns one contiguous run of them, and the stacked body hands each member
its run, in observation order, with the detector index rebased -- exactly
the iterations of the member's own launch (a loop body takes any index
arrays that broadcast to its iterations).  A member with no samples at
all recorded no launch and is skipped.  In-body scatters therefore
accumulate in the eager order, and commits a kernel defers with
:func:`~repro.kernels.common.after_launch` (``build_noise_weighted``'s
buffered, sample-major one) run after the stacked launch, once per member
in observation order -- GLOBAL outputs are committed last, bitwise
identical to running the members one at a time.
"""

import numpy as np

from ...ompshim.runtime import LoopNest
from ..common import launcher_for, recording_launches


class StackedNest(LoopNest):
    """One launch over the nests of ``n_obs`` group members.

    ``members`` lists ``(iobs, nest)`` for the members that launched; they
    share ``(n_det, n_ivl)``.  Member ``iobs`` is outer block ``iobs``.
    :meth:`iterations` materializes each member's open grid and
    concatenates them.
    """

    def __init__(self, n_obs, members):
        self.n_det, n_ivl, _ = members[0][1].extents
        self.segments = None
        self.extents = (n_obs * self.n_det, n_ivl, max(n.extents[2] for _, n in members))
        self.members = members

    @property
    def n_iterations(self) -> int:
        return sum(nest.n_iterations for _, nest in self.members)

    def iterations(self):
        parts = []
        for iobs, nest in self.members:
            i, j, k = (a.ravel() for a in np.broadcast_arrays(*nest.iterations()))
            parts.append((i + iobs * self.n_det, j, k))
        return tuple(np.concatenate(vectors) for vectors in zip(*parts))


def stacked_entry(spec, per_observation):
    """The stacked entry of OpenMP kernel ``per_observation``."""
    stacked = set(spec.stacked_names())

    def entry(accel=None, use_accel=False, **kwargs):
        records = []
        for iobs in range(len(kwargs["starts"])):
            args = {
                k: v[iobs] if k in stacked and v is not None else v
                for k, v in kwargs.items()
            }
            with recording_launches() as record:
                per_observation(**args, accel=accel, use_accel=use_accel)
            records.append(record)
        launched = [(iobs, r) for iobs, r in enumerate(records) if r.body is not None]
        if not launched:
            return
        nest = StackedNest(len(records), [(iobs, r.nest) for iobs, r in launched])

        def body(i, iivl, lanes):
            lo = 0
            for iobs, member in launched:
                hi = lo + member.nest.n_iterations
                member.body(i[lo:hi] - iobs * nest.n_det, iivl[lo:hi], lanes[lo:hi])
                lo = hi

        launcher_for(accel, use_accel)(
            f"{spec.name}.megabatch", nest, body, **launched[0][1].costs
        )
        for record in records:
            for commit in record.commits:
                commit()

    return entry
