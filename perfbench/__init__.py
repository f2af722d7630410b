"""Benchmark for trideco: three seeded workloads, output checks and per-module tracing.

Run from the repository root::

    python3 perfbench/run.py --workload library-mix --seed 1 --seconds 25 --trace 0

See ``run.py`` for the workloads and metrics.
"""
