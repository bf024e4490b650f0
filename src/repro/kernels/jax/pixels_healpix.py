"""pixels_healpix, jaxshim implementation.

The in-loop branches of the compiled kernel become fully evaluated
``jnp.where`` selections -- the transformation the paper credits for this
kernel's relatively modest JAX speedup (§4.2).
"""

from ...jaxshim import jit, jnp, vmap
from . import qarray
from .kernel import flag_lanes, jax_kernel
from .healpix_jax import ang2pix_nest_jnp, ang2pix_ring_jnp


@jit(static_argnums=(2, 3))
def _pixels_healpix_compiled(quats, pixels_out, nside, nest, flat, flagged):
    def per_detector(q_row, pix_row):
        q = jnp.take(q_row, flat)
        theta, phi = qarray.to_position(q)
        if nest:
            pix = ang2pix_nest_jnp(nside, theta, phi)
        else:
            pix = ang2pix_ring_jnp(nside, theta, phi)
        pix = jnp.where(flagged, jnp.astype(-1, jnp.int64), pix)
        return pix_row.at[flat].set(pix)

    return vmap(per_detector)(quats, pixels_out)


@jax_kernel("pixels_healpix", _pixels_healpix_compiled)
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
    return lambda flat, valid: (
        quats,
        pixels_out,
        int(nside),
        bool(nest),
        flat,
        flag_lanes(shared_flags, mask, flat),
    )
