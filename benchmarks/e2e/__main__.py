"""Command line of the end-to-end round benchmark.

``python3 -m benchmarks.e2e`` (from the repository root)

* ``--workload W --seed S --seconds T --trace 0|1`` runs one pass of one
  workload and prints, as its last line, the JSON object ``BENCHMARK.json``'s
  contract asks for: the end-to-end metrics untraced, the per-layer metrics
  traced.
* without ``--workload`` it runs both passes of every workload and prints
  every metric by name and unit.
* ``--out F`` also writes the results, with their environment stamps and
  (traced) spans, to ``F``.
* ``--compare A.json B.json`` compares two files written by the second form.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from . import compare, workloads

ROOT = workloads.REPO_ROOT


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def ensure_native_kernels() -> None:
    """Build ``_xrdkernels`` in place when the checkout has no built copy.

    Done here, before any worker starts, so no ``setup_s`` sample pays for
    a compile.  A failed build is not fatal: the workers then run on a
    lower tier and their results say ``valid: false``.
    """
    if glob.glob(os.path.join(ROOT, "src", "repro", "native", "_xrdkernels*.so")):
        return
    scratch = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=scratch)
    done = subprocess.run(
        [sys.executable, "-m", "repro.native._build"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(f"native kernel build failed:\n{done.stderr}", file=sys.stderr)


def run_worker(name: str, seed: int, seconds: float, trace: bool, toy: bool,
               setup_only: bool = False) -> Tuple[float, Optional[dict]]:
    """Run one worker process; returns (spawn-to-ready seconds, its result)."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    command += ["--toy"] if toy else []
    command += ["--setup-only"] if setup_only else []
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as process:
        try:
            ready = process.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = process.stdout.read()
        except BaseException:
            process.kill()  # never leave a worker behind, whatever stopped us
            raise
    if process.returncode != 0 or not ready.startswith('{"ready"'):
        raise SystemExit(f"worker for {name!r} failed (exit code {process.returncode})")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def run_pass(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    """One pass of one workload; the untraced pass sets up several times."""
    setups = 1 if trace or toy else workloads.SETUPS
    samples = [
        run_worker(name, seed, seconds, trace, toy, setup_only=True)[0]
        for _ in range(setups - 1)
    ]
    setup_s, result = run_worker(name, seed, seconds, trace, toy)
    samples.append(setup_s)
    result["stamp"]["commit"] = workloads.commit()
    result["setup_s"] = {"median": median(samples), "samples": samples}
    return result


def metric_values(result: dict, trace: bool) -> Dict[str, float]:
    if trace:
        return dict(result["layers"])
    return {
        "round_s": result["round_s"]["median"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result["setup_s"]["median"],
    }


def contract_line(result: dict, trace: bool, declared: List[dict]) -> str:
    """The last line the driver reads: exactly the declared metrics, by name."""
    values = metric_values(result, trace)
    return json.dumps({
        "correct": result["failed"] == 0 and result["valid"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    })


def run_all(spec: dict, seed: int, seconds: float, toy: bool) -> dict:
    """Both passes of each workload, printed metric by metric."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results: Dict[str, Any] = {}
    for name in workloads.WORKLOADS:
        untraced = run_pass(name, seed, seconds, False, toy)
        traced = run_pass(name, seed, seconds, True, toy)
        overhead = traced["round_s"]["median"] - untraced["round_s"]["median"]
        results[name] = {"untraced": untraced, "traced": traced, "trace_overhead_s": overhead}
        spread = untraced["round_s"]
        print(f"\n== {name}: {untraced['users']} users, {untraced['rounds']} timed rounds, "
              f"{untraced['failed']}/{untraced['attempted']} ops failed, "
              f"kernel {untraced['stamp']['kernel']}"
              f"{'' if untraced['valid'] else '  ** INVALID: kernel tier is not native **'}")
        print(f"  {'round_s':<26}{spread['median']:>14.4f} s   "
              f"(min {spread['min']:.4f}, max {spread['max']:.4f}, n={len(spread['samples'])})")
        print(f"  {'peak_rss_mb':<26}{untraced['peak_rss_mb']:>14.1f} MB")
        print(f"  {'setup_s':<26}{untraced['setup_s']['median']:>14.4f} s   "
              f"(n={len(untraced['setup_s']['samples'])})")
        for metric, value in traced["layers"].items():
            print(f"  {metric:<26}{value:>14.4f} {units.get(metric, '')}")
        print(f"  {'trace overhead':<26}{overhead:>14.4f} s   (traced minus untraced round_s)")
        for knob in untraced["dropped_knobs"]:
            print(f"  dropped knob: {knob} (DeploymentConfig no longer has it)")
        for attribute in traced["absent"]:
            print(f"  absent: {attribute} (not traced)")
    return {"seed": seed, "seconds": seconds, "toy": toy, "workloads": results}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write the full results (with spans) to this file")
    parser.add_argument("--toy", action="store_true",
                        help="tens of users, one window, one set-up: the tier-1 smoke size")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare, load_benchmark_json())
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to benchmark: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    spec = load_benchmark_json()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    ensure_native_kernels()

    if args.workload:
        results = run_pass(args.workload, args.seed, seconds, bool(args.trace), args.toy)
        last_line = contract_line(
            results, bool(args.trace), spec["per_layer" if args.trace else "end_to_end"]
        )
        status = 0
    else:
        results = run_all(spec, args.seed, seconds, args.toy)
        bad = [
            name for name, passes in results["workloads"].items()
            if passes["untraced"]["failed"] or not passes["untraced"]["valid"]
        ]
        last_line = f"failed or invalid: {', '.join(bad) or 'none'}"
        status = 1 if bad else 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle)
    print(last_line)
    return status


if __name__ == "__main__":
    sys.exit(main())
