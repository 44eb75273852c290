"""Benchmark for oddlex: seeded CLI workloads, a correctness oracle, a traced
per-layer run and scaling probes.  Run ``python3 perfbench/run.py --help``."""
