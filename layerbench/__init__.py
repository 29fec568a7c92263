"""The repository benchmark: four workloads, end to end and per layer.

Run it from the repository root::

    python3 layerbench/run.py --workload inline-cold --seed 1 --seconds 15 --trace 0

``layerbench/README.md`` documents the workloads, the metrics and the
map from each per-layer metric to the end-to-end metric it should move.
"""
