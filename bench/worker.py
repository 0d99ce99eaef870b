"""One benchmark process: set up a workload, time its operations, check them.

run.py starts this script in a fresh process, with src/ on PYTHONPATH.  It
prints one JSON object on its last line of output: the moment set-up
ended (time.monotonic, which all processes share), the wall time and
pixel count of every timed operation, the peak RSS of the timed part, the
check results and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import oacm
import oacm.cli  # noqa: F401  (set-up includes importing the CLI)
from layers import aggregate, targets
from spans import Tracer
from workloads import WORKLOADS, OperationFailed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(targets())

    seconds, pixels, problems = [], [], []
    failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for i in range(workload.round_size):
            if tracer:
                tracer.op = len(seconds)
            t0 = time.perf_counter()
            try:
                output = workload.operate(i)
            except (OperationFailed, oacm.OacmError) as exc:
                output = exc
            seconds.append(time.perf_counter() - t0)
            pixels.append(workload.pixels_of(i))
            if isinstance(output, Exception):
                failed += 1
                print(f"operation {i} failed: {output}", file=sys.stderr)
            else:
                problems += workload.verify(i, output)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer:
        # peak heap in one more operation of its own: tracemalloc slows every allocation
        tracer.memory = True
        tracer.op = "memory"
        tracemalloc.start()
        workload.operate(0)
        tracemalloc.stop()
        tracer.uninstall()
        layers = aggregate(tracer.spans)
        if args.trace_file:
            args.trace_file.write_text(
                json.dumps(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "op_p50_s": statistics.median(seconds),
                        "spans": [span.to_json(i) for i, span in enumerate(tracer.spans)],
                    }
                )
            )

    problems += workload.final_checks()
    missed = workload.self_test()
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for line in missed:
        print(f"self-test failed: {line}", file=sys.stderr)

    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "op_seconds": seconds,
                "op_pixels": pixels,
                "failed": failed,
                "rss_mb": rss_mb,
                "correct": not problems and not missed,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
