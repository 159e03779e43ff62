"""Tier-1 smoke of the end-to-end benchmark at toy size (no wall-clock asserts).

Each workload runs both passes through the real command line, in fresh
processes, with tens of users and one timed window.  What is asserted is
the contract, not speed: the last line's schema, zero failed operations,
every metric ``BENCHMARK.json`` names, and that the traced spans account
for the round.  A PR that renames a wrapped stage method fails here
(``trace.absent`` / ``trace.coverage``) instead of silently blinding the
per-layer table.
"""

from __future__ import annotations

import json
import numbers
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, workloads

ROOT = workloads.REPO_ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert {m["name"] for m in SPEC["end_to_end"]} == {"round_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_toy_pass_meets_the_contract(name, trace):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", name, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], numbers.Real)
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(reported["value"] > 0 for reported in result["metrics"].values())


def _result_file(tmp_path, label, round_samples, failed=0, **stamp):
    untraced = {
        "stamp": {"kernel": "native", "group": "ModPGroup", "python": "3", "nproc": 2,
                  "seed": 1, "commit": label, **stamp},
        "round_s": {"samples": round_samples},
        "peak_rss_mb": 100.0,
        "setup_s": {"samples": [1.0, 1.0, 1.0]},
        "attempted": 10,
        "failed": failed,
    }
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"workloads": {"steady": {"untraced": untraced}}}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _result_file(tmp_path, "a", [1.0, 1.01, 1.0, 0.99])
    assert compare.main(base, _result_file(tmp_path, "same", [1.02, 1.0, 1.01, 1.0]), SPEC) == 0
    assert compare.main(base, _result_file(tmp_path, "slow", [1.3, 1.31, 1.3, 1.29]), SPEC) == 1
    assert "regressed" in capsys.readouterr().out
    # A spread wider than the bound settles nothing: reported, not failed.
    assert compare.main(base, _result_file(tmp_path, "noisy", [0.8, 1.0, 1.2, 1.5]), SPEC) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main(base, _result_file(tmp_path, "fails", [1.0, 1.0], failed=1), SPEC) == 1
    assert compare.main(base, _result_file(tmp_path, "tier", [1.0, 1.0], kernel="numpy"), SPEC) == 2
