"""``--compare A.json B.json``: B against the base A, metric by metric.

The files come from ``python3 -m benchmarks.e2e --out``; either side may be
several runs, comma-separated (``A1.json,A2.json``), whose samples are
pooled.  One row per workload and end-to-end metric gives both medians, B
over A, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``unresolved`` — the spread between a side's own samples (distance
  between their quartiles over their median) is wider than the bound, so
  the medians cannot settle it;
* ``regressed`` — B is worse than A by more than the bound;
* ``ok`` — otherwise.

The exit code is 1 if any row regressed or B failed a larger share of its
operations, and 2 if the two files were not measured in the same
environment (kernel tier, group, Python, core count, seed).  The commits
may differ: comparing two commits is what this is for.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles
from typing import Dict, List

SAME_ENVIRONMENT = ("kernel", "group", "python", "nproc", "seed")


def _load(paths: str) -> List[dict]:
    """The per-workload results of each run on one side."""
    runs = []
    for path in paths.split(","):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle)["workloads"])
    return runs


def _samples(runs: List[dict], name: str, metric: str) -> List[float]:
    """One side's pooled samples: every timed window, every set-up, each peak."""
    pooled: List[float] = []
    for run in runs:
        value = run[name]["untraced"][metric]
        pooled += value["samples"] if isinstance(value, dict) else [value]
    return pooled


def _spread(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    low, _, high = quantiles(samples, n=4)
    return (high - low) / median(samples)


def main(paths_a: str, paths_b: str, spec: dict) -> int:
    base, other = _load(paths_a), _load(paths_b)
    names = list(base[0])
    stamps = {
        name: [run[name]["untraced"]["stamp"] for run in base + other] for name in names
    }
    for name, found in stamps.items():
        differing = [key for key in SAME_ENVIRONMENT if len({s[key] for s in found}) > 1]
        if differing:
            print(f"refusing to compare {name}: stamps differ in "
                  + ", ".join(f"{key} {sorted({str(s[key]) for s in found})}" for key in differing),
                  file=sys.stderr)
            return 2

    verdicts: Dict[str, int] = {"ok": 0, "regressed": 0, "unresolved": 0}
    worse_failures = []
    print(f"{'workload':<9}{'metric':<13}{'A median':>12}{'B median':>12}"
          f"{'B/A':>8}{'spread':>8}{'bound':>7}  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            samples_a = _samples(base, name, metric["name"])
            samples_b = _samples(other, name, metric["name"])
            ratio = median(samples_b) / median(samples_a)
            spread = max(_spread(samples_a), _spread(samples_b))
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            print(f"{name:<9}{metric['name']:<13}{median(samples_a):>12.4f}"
                  f"{median(samples_b):>12.4f}{ratio:>8.3f}{spread:>8.3f}"
                  f"{metric['bound']:>7.2f}  {verdict}")
        failed = [
            (sum(run[name]["untraced"]["failed"] for run in side),
             sum(run[name]["untraced"]["attempted"] for run in side))
            for side in (base, other)
        ]
        print(f"{name:<9}{'ops_failed':<13}{failed[0][0]:>6}/{failed[0][1]:<7}"
              f"{failed[1][0]:>4}/{failed[1][1]:<7}")
        if failed[1][0] / failed[1][1] > failed[0][0] / failed[0][1]:
            worse_failures.append(name)
    for label, side in (("A", base), ("B", other)):
        commits = sorted({run[n]["untraced"]["stamp"]["commit"] for run in side for n in names})
        print(f"{label}: {len(side)} run(s) of commit {', '.join(commits)}")
    print(", ".join(f"{count} {verdict}" for verdict, count in verdicts.items())
          + (f"; more failures in B on {', '.join(worse_failures)}" if worse_failures else ""))
    return 1 if verdicts["regressed"] or worse_failures else 0
