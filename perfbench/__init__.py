"""The repository benchmark: seeded workloads against the public cluster API.

Run one workload with ``python3 perfbench/run.py --workload point_zipf
--seed 1 --seconds 10 --trace 0`` from the repository root, or every
workload with ``--workload all``.  See ``perfbench/README.md`` for the
workloads, the metrics and the per-layer trace.
"""
