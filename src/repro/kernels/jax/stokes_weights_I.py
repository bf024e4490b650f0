"""stokes_weights_I, jaxshim implementation."""

from ...jaxshim import jit, vmap
from .kernel import jax_kernel


@jit
def _stokes_I_compiled(weights_out, flat, cal):
    def per_detector(row):
        return row.at[flat].set(cal)

    return vmap(per_detector)(weights_out)


@jax_kernel("stokes_weights_I", _stokes_I_compiled)
def stokes_weights_I(
    weights_out,
    cal,
    starts,
    stops,
    accel=None,
    use_accel=False,
):
    return lambda flat, valid: (weights_out, flat, float(cal))
