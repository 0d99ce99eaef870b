"""Benchmark of oacm: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload photo_scramble --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  Each run starts fresh single-threaded Python processes: a warm-up
that compiles the package's bytecode, SETUP_PROBES processes that only set
up (start, import oacm and oacm.cli, make the inputs), and one worker that
sets up, times whole rounds of operations for --seconds, then checks every
output.  The last line of output is one JSON object with correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced worker with --trace 1.  Results and traces
are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("photo_scramble", "cover_analysis", "period_bounds")
SETUP_PROBES = 10
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set-up is timed with cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py; return its set-up seconds and its JSON result."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish before the deadline") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - started, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "oacm" / "__init__.py").is_file():
        print(f"error: no oacm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        probe = [*common, "--seconds", "0", "--setup-only"]
        run_worker(probe, deadline)  # warm-up: compiles the bytecode, not timed
        setups = [run_worker(probe, deadline)[0] for _ in range(SETUP_PROBES)]
        setup, result = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--trace-file", str(OUT / f"trace-{name}.json")],
            deadline,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup)

    seconds = result["op_seconds"]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(seconds), "unit": "s"},
            "mpix_per_s": {"value": sum(result["op_pixels"]) / sum(seconds) / 1e6, "unit": "Mpx/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": result["correct"],
        "attempted": len(seconds),
        "failed": result["failed"],
        "metrics": metrics,
    }
    (OUT / f"result-{name}.json").write_text(
        json.dumps({**summary, "op_seconds": seconds, "setup_seconds": setups}, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
