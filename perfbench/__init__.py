"""Benchmark of the dualitysim CLI: seeded workloads, output checks and a per-layer trace.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the root of a checkout; see ``run.py`` for the metrics it prints.
"""
