"""The OpenMP stacked (megabatch) entry, derived from the per-observation kernels.

Every OpenMP kernel writes its loop body once, as a closure over one
observation's device views, and launches it over the collapse(3) grid
``(n_det, n_ivl, max_len)``.  The stacked entry reuses that body
unchanged: it runs each group member's per-observation kernel with its
launch recorded (:func:`~repro.kernels.common.recording_launches`), then
makes *one* launch named ``<kernel>.megabatch`` whose outer dimension
becomes ``n_obs * n_det`` -- the OpenMP way of stacking a batch axis
without changing the loop nest (cf. the paper's collapse clauses).

The outer index is observation-major, so member ``iobs`` owns one
contiguous slice of the launch's collapsed index vectors.  The stacked
body calls each member's body once, in observation order, on its slice
with the detector index rebased and the lanes cut at the member's own
``max_len`` -- exactly the iterations of the member's own launch.  Its
``(0, 0)`` padding intervals fail the in-loop guard, and a member with
no samples at all recorded no launch and is skipped.  In-body scatters
therefore accumulate in the eager order, and commits a kernel defers
with :func:`~repro.kernels.common.after_launch` (``build_noise_weighted``'s
buffered, sample-major one) run after the stacked launch, once per
member in observation order -- GLOBAL outputs are committed last,
bitwise identical to running the members one at a time.
"""

from ..common import launcher_for, recording_launches


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
        launched = [r for r in records if r.body is not None]
        if not launched:
            return
        n_det, n_ivl, _ = launched[0].grid
        max_len = max(r.grid[2] for r in launched)
        per_member = n_det * n_ivl * max_len

        def body(i, iivl, lanes):
            for iobs, member in enumerate(records):
                if member.body is not None:
                    own = slice(iobs * per_member, (iobs + 1) * per_member)
                    keep = lanes[own] < member.grid[2]
                    member.body(
                        i[own][keep] - iobs * n_det, iivl[own][keep], lanes[own][keep]
                    )

        launcher_for(accel, use_accel)(
            f"{spec.name}.megabatch",
            (len(records) * n_det, n_ivl, max_len),
            body,
            **launched[0].costs,
        )
        for record in records:
            for commit in record.commits:
                commit()

    return entry
