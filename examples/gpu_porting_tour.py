#!/usr/bin/env python
"""A tour of the two GPU programming models the paper compares.

Walks through the constraints and behaviours discussed in the paper using
the shims directly: JAX-style purity/static shapes/jit caching/fusion on
one side, OpenMP-style explicit data mapping and collapsed loops on the
other.

Usage::

    python examples/gpu_porting_tour.py
"""

import numpy as np

from repro.accel import SimulatedDevice
from repro.jaxshim import (
    ConcretizationError,
    ShapeError,
    TracerError,
    attach_device,
    config,
    detach_device,
    jit,
    jnp,
    vmap,
)
from repro.ompshim import NotPresentError, OmpTargetRuntime


def jax_side() -> None:
    print("=" * 70)
    print("JAX side (paper 2.3): purity, static shapes, jit, vmap, fusion")
    print("=" * 70)
    config.update("enable_x64", True)

    # 1. Purity: in-place mutation is rejected with a helpful message.
    @jit
    def impure(x):
        x[0] = 1.0
        return x

    try:
        impure(np.zeros(4))
    except TracerError as e:
        print(f"\n[purity] {e}")

    # 2. Control flow on traced values is rejected.
    @jit
    def branchy(x):
        return x if x[0] > 0 else -x

    try:
        branchy(np.ones(4))
    except ConcretizationError as e:
        print(f"\n[control flow] {type(e).__name__}: traced values cannot drive `if`")

    # 3. Dynamic shapes are rejected (the reason intervals are padded).
    @jit
    def dynamic(x):
        return x[x > 0]

    try:
        dynamic(np.arange(4.0))
    except ShapeError:
        print("\n[static shapes] boolean masking rejected -> pad to max interval size")

    # 4. The functional alternative, plus jit caching.
    @jit
    def functional(x, idx, v):
        return x.at[idx].add(v)

    out = functional(np.zeros(5), np.array([1, 1, 4]), np.ones(3))
    print(f"\n[functional update] x.at[idx].add(v) -> {out}")
    functional(np.zeros(5), np.array([0, 2, 3]), np.ones(3))
    print(f"[jit cache] traces after two same-shape calls: {functional.n_traces}")
    functional(np.zeros(9), np.array([0, 2, 3]), np.ones(3))
    print(f"[jit cache] after a new shape: {functional.n_traces}")

    # 5. vmap replaces the detector loop.
    def per_detector(row, weights):
        return jnp.sum(row * weights)

    rows = np.arange(12.0).reshape(3, 4)
    w = np.ones(4)
    print(f"\n[vmap] detector loop -> {vmap(per_detector, in_axes=(0, None))(rows, w)}")

    # 6. Fusion: a chain of elementwise ops becomes one kernel launch.
    @jit
    def chain(x):
        return jnp.sum(jnp.sqrt(x * x + 1.0) - jnp.cos(x) * 0.5)

    dev = SimulatedDevice()
    with config.temporarily(preallocate_memory=False):
        attach_device(dev)
        chain(np.linspace(0, 1, 1000))
        exe = chain.compiled_for(np.linspace(0, 1, 1000))
        print(
            f"\n[fusion] {exe.n_eqns} graph operations fused into "
            f"{exe.n_kernels} kernel launch(es)"
        )
        print(f"[device] modeled compile time charged: "
              f"{dev.clock.region_time('jit_compile') * 1e3:.1f} ms")
        detach_device()


def omp_side() -> None:
    print()
    print("=" * 70)
    print("OpenMP Target Offload side (paper 2.2): mapping, collapse, guards")
    print("=" * 70)

    rt = OmpTargetRuntime(SimulatedDevice())

    # 1. Dereferencing unmapped host data fails loudly (the real toolchain
    #    would segfault, 3.3).
    x = np.arange(8.0)
    try:
        rt.device_view(x)
    except NotPresentError as e:
        print(f"\n[present table] {e}")

    # 2. Explicit data regions with map clauses.
    with rt.target_data(tofrom=[x]):
        d_x = rt.device_view(x)
        d_x *= 2.0  # mutation happens on the device copy
        print(f"\n[target data] host copy during region (stale): {x[:4]}")
    print(f"[target data] host copy after region (copied back): {x[:4]}")

    # 3. The collapsed triple loop with the interval guard.
    tod = np.zeros((2, 3, 10))
    stops = np.array([10, 4, 7])
    with rt.target_data(tofrom=[tod]):
        d = rt.device_view(tod)

        # One call per launch: the vectors list every (detector, interval,
        # lane) iteration of the collapsed loop, outermost index slowest.
        # (The ported kernels launch over (n_det, starts, stops) instead,
        # and the launcher applies this guard for them.)
        def body(idet, iivl, lanes):
            keep = lanes < stops[iivl]  # the in-loop guard
            d[idet[keep], iivl[keep], lanes[keep]] = idet[keep] + 1

        rt.target_teams_distribute_parallel_for("demo_kernel", (2, 3, 10), body)
    print(f"\n[collapse(3)] samples touched per interval: "
          f"{(tod[0] != 0).sum(axis=1)} (guard stops at {stops.tolist()})")

    # 4. The device accounting that feeds the figures.
    print("\n[device accounting]")
    for region, seconds in sorted(rt.device.clock.regions().items()):
        print(f"  {region:<28s} {seconds * 1e6:10.2f} us (virtual)")


def main() -> None:
    jax_side()
    omp_side()


if __name__ == "__main__":
    main()
