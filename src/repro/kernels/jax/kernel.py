"""The JAX port's kernel shape: one compiled function over padded lanes.

An interval-batched JAX kernel follows the paper's recipe (§3.1.3): pad
the intervals to the maximum length
(:func:`~repro.kernels.common.pad_intervals`), run one jit-compiled,
detector-vmapped function over the padded lanes, and write its result
into the kernel's single output. :func:`jax_kernel` holds those steps
once; a kernel supplies

* its compiled function, whose parameters are named after the spec
  arguments it reads, plus per-lane operands (``flat``, ``valid``,
  gathered flags, ...), and
* the operands of that function on one observation's lanes.

Scatter kernels supply a *contributions* function instead: it returns
``(indices, values)`` in the observation's accumulation order, and the
entry commits them with one ordered :func:`scatter_add`.  The same two
pieces give every megabatch kernel its stacked entry
(:mod:`repro.kernels.jax.stacked`).
"""

import functools

import numpy as np

from ...core.dispatch import ImplementationType, kernel_registry
from ...jaxshim import jnp
from ...jaxshim.api import JitFunction
from ..common import pad_intervals, resolve_view
from ..spec import RESERVED_PARAMS

__all__ = ["jax_kernel", "flag_lanes", "scatter_add", "module_jit"]


def scatter_add(acc, indices, values):
    """Add ``values`` into accumulator ``acc`` at ``indices``, in order.

    One flat scatter-add: ``indices`` and ``values`` share their leading
    axes, flattened row-major, and ``values`` carries ``acc``'s trailing
    shape.
    """
    n = int(np.prod(indices.shape))
    trailing = tuple(values.shape[len(indices.shape) :])
    return acc.at[jnp.reshape(indices, (n,))].add(jnp.reshape(values, (n,) + trailing))


def flag_lanes(flags, mask, flat):
    """Which padded lanes ``flags & mask`` marks (none without flags)."""
    if flags is not None and mask:
        return (flags[flat] & mask) != 0
    return np.zeros(flat.shape, dtype=bool)


def module_jit(fn, static_argnums, name):
    """``jit(fn)`` held as a module attribute, where jit-cache resets
    find it like every module-level kernel jit."""
    jf = JitFunction(fn, tuple(static_argnums), name=name)
    globals()[name] = jf
    return jf


def jax_kernel(name, compiled):
    """Register the JAX implementation of kernel ``name``.

    Decorates a function with the kernel's signature that receives one
    observation's arguments (device views) and returns
    ``operands(flat, valid)``: the positional arguments of ``compiled``
    on that observation's padded lanes ``flat``, whose validity mask is
    ``valid``.  An operand for a parameter named after a spec argument,
    or named ``flat`` or ``valid``, must be that array itself.  For a
    ``scatter`` kernel ``compiled`` is its contributions function,
    returning ``(indices, values)`` in accumulation order, and the entry
    commits them with :func:`scatter_add`.
    """
    spec = kernel_registry.spec(name)
    (out_name,) = spec.output_names()
    names = spec.arg_names() + list(RESERVED_PARAMS)
    commit = None
    if spec.fusion_kind == "scatter":
        commit = module_jit(
            lambda acc, *ops: scatter_add(acc, *compiled(*ops)), (), f"_{name}_compiled"
        )

    def deco(operands_for):
        @functools.wraps(operands_for)
        def per_observation(*args, **kwargs):
            call = dict(zip(names, args), **kwargs)
            accel = call.pop("accel", None)
            use_accel = call.pop("use_accel", False)
            idx, valid, max_len = pad_intervals(call["starts"], call["stops"])
            if max_len == 0:
                return
            views = {
                k: resolve_view(accel, v, use_accel) if isinstance(v, np.ndarray) else v
                for k, v in call.items()
            }
            operands = operands_for(**views)(idx.reshape(-1), valid.reshape(-1))
            out = views[out_name]
            out[:] = compiled(*operands) if commit is None else commit(out, *operands)

        per_observation.compiled = compiled
        return kernel_registry.register(name, ImplementationType.JAX, per_observation)

    return deco
