"""Workload benchmark for the repository: see ``perfbench/README.md``."""
