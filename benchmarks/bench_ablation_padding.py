"""Ablation: interval padding (dummy work) vs in-loop guard.

Paper footnote 8: the JAX port pads intervals (out-of-range lanes do dummy
work) while the OMP port guards with a conditional; "later tests showed no
significant performance difference between both patterns".  Both patterns
run live here on the same workload and must agree in results, with
comparable modeled iteration counts.
"""

import numpy as np

from repro.core.dispatch import ImplementationType, kernel_registry
from repro.kernels.common import pad_intervals

N_DET = 8
N_SAMP = 16384
# Deliberately ragged intervals: padding waste is the worst case.
STARTS = np.array([0, 3000, 5000, 12000], dtype=np.int64)
STOPS = np.array([2500, 3600, 11000, 16384], dtype=np.int64)

def args():
    rng = np.random.default_rng(77)  # fresh stream: identical inputs per call
    return dict(
        tod=rng.normal(size=(N_DET, N_SAMP)),
        det_weights=rng.uniform(0.5, 2.0, N_DET),
        starts=STARTS,
        stops=STOPS,
    )


def test_padding_vs_guard_equivalence(benchmark, publish):
    """The padded (JAX) and guarded (OMP) noise_weight agree bit for bit."""
    jax_fn = kernel_registry.get("noise_weight", ImplementationType.JAX)
    omp_fn = kernel_registry.get("noise_weight", ImplementationType.OMP_TARGET)

    a1 = args()
    rng_state = a1["tod"].copy()
    jax_fn(**a1)
    a2 = args()
    a2["tod"][:] = rng_state
    omp_fn(**a2)
    np.testing.assert_array_equal(a1["tod"], a2["tod"])

    # Padding overhead: lanes processed vs lanes needed.
    _, valid, max_len = pad_intervals(STARTS, STOPS)
    lanes_padded = valid.size
    lanes_needed = int(valid.sum())
    overhead = lanes_padded / lanes_needed - 1.0

    a3 = args()
    benchmark(lambda: jax_fn(**a3))

    lines = [
        "ablation: interval padding vs guard (paper footnote 8)",
        f"  intervals               : {list(zip(STARTS.tolist(), STOPS.tolist()))}",
        f"  padded lanes            : {lanes_padded}",
        f"  needed lanes            : {lanes_needed}",
        f"  dummy-work overhead     : {overhead:.1%}",
        "  results                 : bit-identical between patterns",
    ]
    publish("ablation_padding", "\n".join(lines))


def test_guard_pattern_wall_time(benchmark):
    omp_fn = kernel_registry.get("noise_weight", ImplementationType.OMP_TARGET)
    a = args()
    benchmark(lambda: omp_fn(**a))
