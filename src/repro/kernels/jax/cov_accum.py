"""cov_accum_diag_hits / cov_accum_diag_invnpp, jaxshim implementation."""

from ...jaxshim import jnp, vmap
from .kernel import jax_kernel


def _cov_hits_contributions(pixels, flat, valid):
    def per_detector(pix_row):
        pix = jnp.take(pix_row, flat)
        good = jnp.logical_and(pix >= 0, valid)
        return jnp.where(good, pix, 0), jnp.where(good, 1, 0)

    return vmap(per_detector)(pixels)


@jax_kernel("cov_accum_diag_hits", _cov_hits_contributions)
def cov_accum_diag_hits(
    hits,
    pixels,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    return lambda flat, valid: (pixels, flat, valid)


def _cov_invnpp_contributions(pixels, weights, det_scale, flat, valid):
    nnz = weights.shape[2]
    tri = [(i, j) for i in range(nnz) for j in range(i, nnz)]

    def per_detector(pix_row, w_row, g):
        pix = jnp.take(pix_row, flat)
        good = jnp.logical_and(pix >= 0, valid)
        w = jnp.take(w_row, flat)  # (M, nnz)
        cols = [g * w[:, i] * w[:, j] for i, j in tri]
        outer = jnp.stack(cols, axis=1)
        outer = jnp.where(good[:, None], outer, 0.0)
        return jnp.where(good, pix, 0), outer

    return vmap(per_detector)(pixels, weights, det_scale)


@jax_kernel("cov_accum_diag_invnpp", _cov_invnpp_contributions)
def cov_accum_diag_invnpp(
    invnpp,
    pixels,
    weights,
    det_scale,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    return lambda flat, valid: (pixels, weights, det_scale, flat, valid)
