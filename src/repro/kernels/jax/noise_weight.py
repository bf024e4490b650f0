"""noise_weight, jaxshim implementation."""

from ...jaxshim import jit, jnp, vmap
from .kernel import jax_kernel


@jit
def _noise_weight_compiled(tod, det_weights, flat):
    def per_detector(row, w):
        scaled = jnp.take(row, flat) * w
        # set (not multiply): padding lanes duplicate a valid sample and
        # must write the same value, not scale it twice.
        return row.at[flat].set(scaled)

    return vmap(per_detector)(tod, det_weights)


@jax_kernel("noise_weight", _noise_weight_compiled)
def noise_weight(
    tod,
    det_weights,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    return lambda flat, valid: (tod, det_weights, flat)
