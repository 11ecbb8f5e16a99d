"""The repository benchmark: ``python3 perfbench/run.py --workload <name> ...``.

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
