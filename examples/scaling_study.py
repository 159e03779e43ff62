#!/usr/bin/env python3
"""Scaling study: regenerate the paper's evaluation headlines from the models.

Prints the data behind every figure of §8 (user costs, end-to-end latency
versus users / servers / f, blame-protocol overhead, and churn availability)
using the calibrated cost models, and finishes with the abstract's headline
comparison (XRD vs Atom, Pung, Stadium at 2M users on 100 servers).

Run with::

    python examples/scaling_study.py           # paper-calibrated cost model
    python examples/scaling_study.py --measured  # also show this machine's primitives
"""

import argparse

from repro.analysis import figures, render_figure, render_table
from repro.simulation.costmodel import CostModel
from repro.simulation.microbench import measure_primitives


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--measured",
        action="store_true",
        help="also microbenchmark this machine's primitives (on the active kernel tier)",
    )
    args = parser.parse_args()

    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        print(render_figure(figures.ALL_FIGURES[name]()))
        print()

    table = figures.user_cost_table()
    rows = [
        [row["servers"], row["ell"], row["chain_length"], row["upload_kb"], row["kbps_1min_rounds"]]
        for row in table["rows"]
    ]
    print(table["title"])
    print(render_table(["servers", "ell", "k", "upload KB/round", "Kbps (1-min rounds)"], rows))
    print()

    headline = figures.headline_comparison()
    print(headline["title"])
    print(f"  XRD     {headline['xrd_latency']:8.1f} s   (paper: 251 s)")
    print(f"  Atom    {headline['atom_latency']:8.1f} s   ({headline['atom_speedup']:.1f}x slower; paper: 12x)")
    print(f"  Pung    {headline['pung_latency']:8.1f} s   ({headline['pung_speedup']:.1f}x slower; paper: 3.7x)")
    print(f"  Stadium {headline['stadium_latency']:8.1f} s   (XRD {headline['stadium_slowdown']:.1f}x slower; paper: ~2-3x)")

    if args.measured:
        print("\nMicrobenchmarks of this machine's primitives on the active kernel "
              "tier (how far absolute throughput is from the Go prototype):")
        timings = measure_primitives(iterations=10)
        paper = CostModel.paper_testbed()
        print(f"  scalar multiplication: {timings.scalar_mult * 1e3:7.3f} ms "
              f"(paper testbed ~{paper.scalar_mult * 1e3:.3f} ms)")
        print(f"  NIZK verification:     {timings.nizk_verify * 1e3:7.3f} ms")
        print(f"  AEAD (fixed cost):     {timings.aead_fixed * 1e3:7.3f} ms")


if __name__ == "__main__":
    main()
