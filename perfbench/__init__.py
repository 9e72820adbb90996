"""Absolute, layered host-time benchmark of the repro NoC-QoS stack.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; ``--workload all`` runs
every workload in a fresh process and prints each metric with its unit.
See ``perfbench/README.md`` for the workloads and the metric catalogue.
"""
