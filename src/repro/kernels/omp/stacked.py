"""The OpenMP stacked (megabatch) entry, derived from the per-observation kernels.

Every OpenMP kernel writes its loop body once, as a closure over one
observation's device views, and launches it over its collapse(3) nest
``(n_det, starts, stops)``.  The stacked entry reuses that body
unchanged: it runs each group member's per-observation kernel on the
member's own arguments, with its launch recorded
(:func:`~repro.kernels.common.recording_launches`), then makes *one*
launch named ``<kernel>.megabatch`` whose outer dimension becomes
``n_obs * n_det`` -- the OpenMP way of stacking a batch axis without
changing the loop nest (cf. the paper's collapse clauses).  Each member
kernel resolves its own device views, and its nest reads the segment
descriptor its interval list owns: a stacked launch derives none.

The launch is charged for the padded stacked grid ``(n_obs * n_det,
n_ivl, max_len)``, ``n_ivl`` and ``max_len`` the longest of any member;
its iterations are the members' own, observation-major
(:class:`StackedNest`).  The stacked body hands each member its own
grid, in observation order -- exactly the iterations of the member's own
launch.  A member with no samples at all recorded no launch and is
skipped.  In-body scatters therefore accumulate in the eager order, and
commits a kernel defers with :func:`~repro.kernels.common.after_launch`
(``build_noise_weighted``'s buffered, sample-major one) run after the
stacked launch, once per member in observation order -- GLOBAL outputs
are committed last, bitwise identical to running the members one at a
time.  A fault at the stacked launch fires before any member body has
written, so the collector's eager replay starts from untouched data.
"""

from ...ompshim.runtime import LoopNest
from ..common import launcher_for, recording_launches


class StackedNest(LoopNest):
    """One launch over the nests of ``n_obs`` group members.

    ``members`` lists the nests of the members that launched, in
    observation order; they share ``n_det``.  ``n_ivl`` is the longest
    member interval list.  Observation ``iobs`` is outer block ``iobs`` of
    the charged grid.  :meth:`iterations` gives each member's own grid,
    nothing concatenated.
    """

    def __init__(self, n_obs, n_ivl, members):
        n_det = members[0].extents[0]
        self.segments = None
        self.extents = (n_obs * n_det, n_ivl, max(nest.extents[2] for nest in members))
        self.members = members

    def iterations(self):
        """``(i, j, k)``, each a tuple with one entry per member, in member
        order: entry ``m`` of the three is member ``m``'s own grid
        (:meth:`LoopNest.iterations`, outer index local to the member)."""
        return tuple(zip(*(nest.iterations() for nest in self.members)))


def stacked_entry(spec, per_observation):
    """The stacked entry of OpenMP kernel ``per_observation``."""
    stacked = set(spec.stacked_names())

    def entry(accel=None, use_accel=False, **kwargs):
        records = []
        for iobs in range(len(kwargs["starts"])):
            args = {k: v[iobs] if k in stacked else v for k, v in kwargs.items()}
            with recording_launches() as record:
                per_observation(**args, accel=accel, use_accel=use_accel)
            records.append(record)
        launched = [r for r in records if r.body is not None]
        if not launched:
            return
        n_ivl = max(len(starts) for starts in kwargs["starts"])
        nest = StackedNest(len(records), n_ivl, [r.nest for r in launched])

        def body(i, iivl, lanes):
            for member, *grid in zip(launched, i, iivl, lanes):
                member.body(*grid)

        launcher_for(accel, use_accel)(
            f"{spec.name}.megabatch", nest, body, **launched[0].costs
        )
        for record in records:
            for commit in record.commits:
                commit()

    return entry
