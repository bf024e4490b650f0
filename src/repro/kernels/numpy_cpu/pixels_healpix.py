"""pixels_healpix, batched CPU implementation.

The branch-heavy kernel the paper singles out (§4.2): here the flag branch
becomes one write to the flagged lanes of the ``(n_det, n_samples)`` working set.
"""

from ...core.dispatch import ImplementationType, kernel
from ...healpix import ang2pix
from ...math import qa
from ...math.rows import put_lanes
from ...math.segments import segments


@kernel("pixels_healpix", ImplementationType.NUMPY)
def pixels_healpix(
    quats,
    pixels_out,
    nside,
    nest,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    seg = segments(starts, stops)
    if not seg.n_samples:
        return
    theta, phi = qa.to_position(seg.take(quats))
    pix = ang2pix(nside, theta, phi, nest=nest)
    if shared_flags is not None and mask:
        put_lanes(pix, (seg.take(shared_flags, axis=0) & mask).nonzero()[0], -1)
    seg.put(pixels_out, pix)
