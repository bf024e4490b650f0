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

The entry receives each ``"stack"`` argument as the group members' own
values.  It resolves their device views, stacks only the operands the
compiled function takes, builds the group's lanes from the members'
segment descriptors (:func:`group_lanes`) and writes each member's
result row straight into that member's output view.

JIT-cache bucketing: for kernels with no written broadcast argument, the
observation axis is padded to the next power-of-two bucket
(:func:`repro.jaxshim.config.next_batch_bucket`) with all-masked zero
rows, so the shim's trace-cache key -- which hashes argument shapes --
repeats across nearby group sizes instead of recompiling per
observation-count change.  Scatter kernels run at the exact group size:
a padded row's masked lanes would add ``+0.0`` into the accumulator,
which is not bitwise-neutral against ``-0.0``.

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
from ...jaxshim.config import next_batch_bucket
from ...math.segments import segments
from ..common import resolve_view
from ..spec import ArgRole
from .kernel import module_jit, scatter_add


def group_lanes(descriptors, n_rows):
    """``(flat, valid, max_len, rows)``: the padded lanes of a group.

    ``descriptors`` are the members' segment descriptors, in member order;
    ``n_rows`` (at least their number) adds bucket padding rows.  Each row
    lays out its member's padded lanes
    (:attr:`~repro.math.segments.Segments.padded`) in an ``(n_ivl,
    max_len)`` block, ``n_ivl`` and ``max_len`` the group's longest, and
    ``flat``/``valid`` hold the blocks raveled, one row per member.
    Invalid lanes -- interval padding, and whole degenerate intervals a
    shorter member lacks -- go to the member's first valid sample, so a
    set-style kernel's "dummy work" rewrites a value some valid lane also
    writes (the eager clamping convention, extended across the group).
    A row with no valid lane at all (an empty member, a padding row)
    points every lane at sample 0.  ``rows`` marks the members with work:
    a member without must not be written back, as its eager call was a
    no-op.
    """
    n_ivl = max(len(seg) for seg in descriptors)
    max_len = max(seg.max_len for seg in descriptors)
    rows = np.zeros(n_rows, dtype=bool)
    flat = np.zeros((n_rows, n_ivl, max_len), dtype=np.int64)
    valid = np.zeros((n_rows, n_ivl, max_len), dtype=bool)
    for m, seg in enumerate(descriptors):
        if not seg.n_samples:
            continue
        index, ok = seg.padded
        rows[m] = True
        flat[m] = seg.starts[np.argmax(seg.lengths > 0)]  # the first valid sample
        np.copyto(flat[m, : len(seg), : seg.max_len], index, where=ok)
        valid[m, : len(seg), : seg.max_len] = ok
    return flat.reshape(n_rows, -1), valid.reshape(n_rows, -1), max_len, rows


def _stack(rows, n_rows):
    """``rows`` stacked on a new leading axis, zero rows padding it to
    ``n_rows``."""
    first = np.asarray(rows[0])
    out = np.empty((n_rows,) + first.shape, dtype=first.dtype)
    np.stack(rows, out=out[: len(rows)])
    out[len(rows) :] = 0
    return out


def stacked_entry(spec, per_observation):
    """The stacked entry of JAX kernel ``per_observation``."""
    compiled = per_observation.compiled
    operands_for = per_observation.__wrapped__
    scatter = spec.fusion_kind == "scatter"
    bucketed = not any(a.batch == "broadcast" and a.intent.writes for a in spec.args)
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
        k = len(kwargs["starts"])
        n_rows = next_batch_bucket(k) if bucketed else k
        descriptors = [segments(*pair) for pair in zip(kwargs["starts"], kwargs["stops"])]
        flat, valid, max_len, rows = group_lanes(descriptors, n_rows)
        if max_len == 0:
            return

        def view(v):
            return resolve_view(accel, v, use_accel) if isinstance(v, np.ndarray) else v

        shared = {p: view(v) for p, v in kwargs.items() if p not in stack}
        own = [{p: view(kwargs[p][i]) for p in stack if p in kwargs} for i in range(k)]
        members = [operands_for(**shared, **own[i])(flat[i], valid[i]) for i in range(k)]
        lanes = {"flat": flat, "valid": valid}
        operands = []
        for j, p in enumerate(params):
            if p in lanes:
                operands.append(lanes[p])
            elif in_axes[j] is None:
                operands.append(members[0][j])
            else:
                operands.append(_stack([m[j] for m in members], n_rows))
        if scatter:
            out = shared[out_name]
            out[:] = launch(out, *operands)
        else:
            result = np.asarray(launch(*operands))
            for i in np.flatnonzero(rows):
                own[i][out_name][...] = result[i]

    entry.compiled = launch
    return entry
