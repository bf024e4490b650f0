"""Wall-clock benchmark of the map-making stack, end to end and per layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in its own process.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it wraps the public entry points of
each layer in host spans and prints per-layer busy time, self time and
exact counts.  ``BENCHMARK.json`` at the repository root names the
workloads, the metrics and their regression bounds.
"""
