"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one figure or table from the paper's
evaluation.  Besides the pytest-benchmark timing, every run writes the
rendered data table to ``results/<figure>.txt`` so the numbers that back
EXPERIMENTS.md can be re-inspected without re-running anything.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def online_only(deployment):
    """Turn ``deployment`` into the online-only reference arm: its engine's
    two precompute stages do nothing, so every chain member derives its keys
    inline while mixing (§5.2.1 without the precomputation)."""
    engine = deployment.engine
    engine.precompute = engine.precompute_collected = lambda ctx: None
    return deployment


def save_result(name: str, text: str) -> None:
    """Persist a rendered figure/table under results/ and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
