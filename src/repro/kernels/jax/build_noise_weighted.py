"""build_noise_weighted, jaxshim implementation.

All detectors' contributions are computed with vmap, then a single
scatter-add accumulates them into the shared map -- the functional
replacement for the compiled kernel's atomic adds.  The scatter lanes are
transposed to sample-major (detector inner) order before the add: this is
the repo-wide canonical accumulation order, which makes windowed streaming
over the sample axis bitwise identical to a full-observation run.
"""

import numpy as np

from ...jaxshim import jnp, vmap
from .kernel import flag_lanes, jax_kernel


def _build_noise_weighted_contributions(
    pixels, weights, tod, det_scale, good_det, flat, good_lane
):
    def per_detector(pix_row, w_row, tod_row, scale, good_row):
        pix = jnp.take(pix_row, flat)
        good = jnp.logical_and(pix >= 0, good_lane)
        good = jnp.logical_and(good, good_row)
        z = scale * jnp.take(tod_row, flat)
        contrib = z[:, None] * jnp.take(w_row, flat)  # (M, nnz)
        contrib = jnp.where(good[:, None], contrib, 0.0)
        return jnp.where(good, pix, 0), contrib

    pix_all, contrib_all = vmap(per_detector)(
        pixels, weights, tod, det_scale, good_det
    )
    # Samples outer, detectors inner: the scatter applies contributions
    # sample-major.
    return jnp.transpose(pix_all), jnp.transpose(contrib_all, (1, 0, 2))


@jax_kernel("build_noise_weighted", _build_noise_weighted_contributions)
def build_noise_weighted(
    zmap,
    pixels,
    weights,
    tod,
    det_scale,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    det_flags=None,
    det_mask=0,
    accel=None,
    use_accel=False,
):
    def operands(flat, valid):
        good_lane = valid & ~flag_lanes(shared_flags, mask, flat)
        # Per-detector goodness, gathered onto the padded lanes.
        if det_flags is not None and det_mask:
            good_det = (det_flags[:, flat] & det_mask) == 0
        else:
            good_det = np.ones((pixels.shape[0], flat.shape[0]), dtype=bool)
        return (pixels, weights, tod, det_scale, good_det, flat, good_lane)

    return operands
