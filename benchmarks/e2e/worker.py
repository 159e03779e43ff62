"""One workload, one pass, one fresh process.

``__main__`` starts this module with ``python -m benchmarks.e2e.worker`` and
reads two JSON lines from its standard output: ``{"ready": ...}`` once the
warm-up round has been delivered (the parent's clock, from spawn to that
line, is one ``setup_s`` sample), and the pass's result at the end.  With
``--setup-only`` the process stops after the first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from statistics import median

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from . import workloads  # noqa: E402 - needs the path above for its lazy repro imports


def main() -> None:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    def emit(record: dict) -> None:
        print(json.dumps(record), flush=True)

    workload = workloads.WORKLOADS[args.workload]
    driver = workloads.Driver(workload, args.seed, args.toy)
    tracer = None
    if args.trace:
        from . import trace  # the untraced pass never imports the tracer

        tracer = trace.Tracer()
        trace.install(tracer, driver.deployment)
    # The warm-up round: lazy tables, first-use imports, kernel load.
    driver.window(warm_up=True)
    stamp = workloads.stamp(driver.deployment, args.seed)
    emit({"ready": True})
    if args.setup_only:
        driver.deployment.close()
        return

    samples = []
    began = time.perf_counter()
    min_windows = 1 if args.toy else workloads.MIN_WINDOWS
    while len(samples) < min_windows or time.perf_counter() - began < args.seconds:
        samples.append(driver.window())
        if len(samples) == min_windows:
            peak_rss_mb = workloads.peak_rss_mb()
    result = {
        "workload": workload.name,
        "stamp": stamp,
        "valid": stamp["kernel"] == "native",
        "dropped_knobs": driver.dropped_knobs,
        "users": len(driver.names),
        "rounds": sum(window["rounds"] for window in driver.windows),
        "round_s": {
            "median": median(samples),
            "min": min(samples),
            "max": max(samples),
            "samples": samples,
        },
        "peak_rss_mb": peak_rss_mb,
        "attempted": driver.attempted,
        "failed": driver.failed,
    }
    if tracer is not None:
        layers = trace.layer_metrics(tracer.spans, driver.windows, threading.get_ident())
        layers["coordinator.create_s"] = driver.create_s
        layers["trace.absent"] = len(tracer.absent)
        layers.update(workloads.kernel_microbench(args.toy))
        result.update(layers=layers, absent=tracer.absent, spans=tracer.spans)
    driver.deployment.close()
    emit(result)


if __name__ == "__main__":
    main()
