"""evodb benchmark suite: three workloads, end-to-end and per-layer
metrics, correctness gates. Run ``python3 perfbench/run.py --help``."""
