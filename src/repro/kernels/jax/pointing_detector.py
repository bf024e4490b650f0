"""pointing_detector, jaxshim implementation."""

from ...jaxshim import jit, jnp, vmap
from . import qarray
from .kernel import flag_lanes, jax_kernel


@jit
def _pointing_detector_compiled(fp_quats, boresight, quats_out, flat, flagged):
    bore = jnp.take(boresight, flat)  # (M, 4) gathered boresight samples

    def per_detector(fp, out_row):
        rotated = qarray.mult(bore, fp)
        rotated = jnp.where(flagged[:, None], fp, rotated)
        return out_row.at[flat].set(rotated)

    return vmap(per_detector)(fp_quats, quats_out)


@jax_kernel("pointing_detector", _pointing_detector_compiled)
def pointing_detector(
    fp_quats,
    boresight,
    quats_out,
    starts,
    stops,
    shared_flags=None,
    mask=0,
    accel=None,
    use_accel=False,
):
    return lambda flat, valid: (
        fp_quats,
        boresight,
        quats_out,
        flat,
        flag_lanes(shared_flags, mask, flat),
    )
