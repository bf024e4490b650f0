"""The JAX stacked (megabatch) entry, derived from the per-observation kernels.

A JAX kernel is one compiled function over a single observation's padded
lanes (:func:`~repro.kernels.jax.kernel.jax_kernel`).  Its stacked entry
wraps that function in one more ``vmap`` over the observation axis --
``"stack"`` arguments and per-lane operands map over axis 0,
``"broadcast"`` ones are shared -- and compiles it once, so the nested
detector×observation batching lowers to single stacked primitives
instead of Python loops (the whole-program transformation the paper
credits for JAX's launch-overhead amortization).  Scalars are trace-time
constants of the stacked launch.

Scatter kernels cannot be blind outer-vmaps: vmapping the accumulation
would give each observation its own copy of the GLOBAL accumulator.
Only the contributions are vmapped; one scatter-add then commits them
observation-major, each observation in its own accumulation order --
exactly the sequence the eager loop performs, so the sums are bitwise
identical.
"""

import inspect

import numpy as np

from ...jaxshim import vmap
from ..common import pad_intervals_grouped, resolve_view
from ..spec import ArgRole
from .kernel import module_jit, scatter_add


def group_lanes(starts, stops):
    """(flat lanes, valid mask, max_len, rows with work) of a group.

    ``starts``/``stops`` are the collector's ``(n_obs, n_ivl)`` slabs.
    Invalid lanes -- interval padding *and* whole degenerate rows padded
    in by shorter group members -- are redirected to the observation's
    first valid sample, so a set-style kernel's "dummy work" rewrites a
    value some valid lane also writes (the eager clamping convention,
    extended across the group's rectangular slab).  Observations with no
    valid lanes at all must not be written back: their eager call was a
    no-op.
    """
    idx, valid, max_len = pad_intervals_grouped(starts, stops)
    n_obs = idx.shape[0]
    flat = idx.reshape(n_obs, -1)
    vmask = valid.reshape(n_obs, -1)
    if max_len == 0:
        return flat, vmask, 0, np.zeros(n_obs, dtype=bool)
    rows = vmask.any(axis=1)
    anchor = np.where(rows, flat[np.arange(n_obs), np.argmax(vmask, axis=1)], 0)
    return np.where(vmask, flat, anchor[:, None]), vmask, max_len, rows


def stacked_entry(spec, per_observation):
    """The stacked entry of JAX kernel ``per_observation``."""
    compiled = per_observation.compiled
    operands_for = per_observation.__wrapped__
    scatter = spec.fusion_kind == "scatter"
    (out_name,) = spec.output_names()
    stack = set(spec.stacked_names())
    params = list(inspect.signature(compiled).parameters)
    static = [
        i
        for i, p in enumerate(params)
        if i in getattr(compiled, "static_argnums", ())
        or (spec.has_arg(p) and spec.arg(p).role is ArgRole.SCALAR)
    ]
    in_axes = tuple(
        None if i in static or (spec.has_arg(p) and p not in stack) else 0
        for i, p in enumerate(params)
    )
    batched = vmap(compiled, in_axes=in_axes)
    name = f"_{spec.name}_megabatch"
    if scatter:
        launch = module_jit(
            lambda acc, *ops: scatter_add(acc, *batched(*ops)),
            [i + 1 for i in static],
            name,
        )
    else:
        launch = module_jit(lambda *ops: batched(*ops), static, name)

    def entry(accel=None, use_accel=False, **kwargs):
        flat, valid, max_len, rows = group_lanes(kwargs["starts"], kwargs["stops"])
        if max_len == 0:
            return
        shared = {
            k: resolve_view(accel, v, use_accel) if isinstance(v, np.ndarray) else v
            for k, v in kwargs.items()
            if k not in stack
        }
        members = []
        for i in range(len(flat)):
            own = {k: v if v is None else v[i] for k, v in kwargs.items() if k in stack}
            members.append(operands_for(**shared, **own)(flat[i], valid[i]))
        operands = []
        for j, p in enumerate(params):
            if p in stack:  # the collector's slab, not a re-stacked copy
                operands.append(kwargs[p])
            elif in_axes[j] is None:
                operands.append(members[0][j])
            else:
                operands.append(np.stack([m[j] for m in members]))
        if scatter:
            out = shared[out_name]
            out[:] = launch(out, *operands)
        else:
            result = np.asarray(launch(*operands))
            kwargs[out_name][rows] = result[rows]

    entry.compiled = launch
    return entry
