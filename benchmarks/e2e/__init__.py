"""End-to-end round benchmark: four workloads, three metrics, a per-layer trace.

Run ``python3 -m benchmarks.e2e`` from the repository root; see README.md here.
"""
