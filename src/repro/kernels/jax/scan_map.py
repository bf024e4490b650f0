"""scan_map, jaxshim implementation.

The per-sample map lookup becomes a gather plus a weighted contraction --
the kind of kernel XLA is free to re-express as linear algebra (§4.2 notes
this for the offset projection kernel).
"""

from ...jaxshim import jit, jnp, vmap
from .kernel import jax_kernel


@jit(static_argnums=(6, 7))
def _scan_map_compiled(
    map_data, pixels, weights, tod, flat, valid, should_zero, should_subtract, data_scale
):
    def per_detector(pix_row, w_row, tod_row):
        pix = jnp.take(pix_row, flat)
        good = jnp.logical_and(pix >= 0, valid)
        sampled = jnp.take(map_data, jnp.where(good, pix, 0))  # (M, nnz)
        w = jnp.take(w_row, flat)  # (M, nnz)
        value = jnp.sum(sampled * w, axis=1) * data_scale
        value = jnp.where(good, value, 0.0)
        if should_subtract:
            value = -value
        if should_zero:
            tod_row = tod_row.at[flat].set(0.0)
        return tod_row.at[flat].add(value)

    return vmap(per_detector)(pixels, weights, tod)


@jax_kernel("scan_map", _scan_map_compiled)
def scan_map(
    map_data,
    pixels,
    weights,
    tod,
    starts,
    stops,
    data_scale=1.0,
    should_zero=False,
    should_subtract=False,
    accel=None,
    use_accel=False,
):
    return lambda flat, valid: (
        map_data,
        pixels,
        weights,
        tod,
        flat,
        valid,
        bool(should_zero),
        bool(should_subtract),
        float(data_scale),
    )
