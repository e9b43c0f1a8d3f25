"""Benchmark harness for headingrank: workloads, tracing and output checks.

Run it from the repository root:

    python3 perfbench/run.py --workload fusion --seed 0 --seconds 20 --trace 0
"""
