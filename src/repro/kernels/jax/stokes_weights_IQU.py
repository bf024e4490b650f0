"""stokes_weights_IQU, jaxshim implementation."""

import numpy as np

from ...jaxshim import jit, jnp, vmap
from . import qarray
from .kernel import jax_kernel


@jit
def _stokes_IQU_compiled(quats, weights_out, hwp, epsilon, flat, cal):
    hwp_flat = jnp.take(hwp, flat)

    def per_detector(q_row, eps, w_row):
        q = jnp.take(q_row, flat)  # (M, 4)
        eta = (1.0 - eps) / (1.0 + eps)
        angle = qarray.position_angle(q) + 2.0 * hwp_flat
        w_i = jnp.broadcast_to(cal, angle.shape)
        w_q = cal * eta * jnp.cos(2.0 * angle)
        w_u = cal * eta * jnp.sin(2.0 * angle)
        return w_row.at[flat].set(jnp.stack([w_i, w_q, w_u], axis=1))

    return vmap(per_detector)(quats, epsilon, weights_out)


@jax_kernel("stokes_weights_IQU", _stokes_IQU_compiled)
def stokes_weights_IQU(
    quats,
    weights_out,
    hwp_angle,
    epsilon,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    n_samples = quats.shape[1]
    hwp = hwp_angle if hwp_angle is not None else np.zeros(n_samples)
    return lambda flat, valid: (quats, weights_out, hwp, epsilon, flat, float(cal))
