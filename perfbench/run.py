"""wmdistill benchmark: one workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The run builds its inputs from the
seed, measures the workload for about S seconds through the in-process
CLI, checks every output and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones from a traced run. The lines before it record the
process settings, a readable summary and the raw samples.

Each run gets a process of its own with OPENBLAS_NUM_THREADS=1 set and
WM_DISTILL_THREADS unset. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain-teacherL", "distill-student", "eval-planner")
TIME_LIMIT_S = 170          # a run must end within 180 s
RATE_NAMES = {"eval-planner": "eval_env_steps_per_s"}


def _worker(mode, args, work, deadline):
    """Run worker.py in a fresh interpreter; its stdout, or None on failure."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    env.pop("WM_DISTILL_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: worker {mode} ran past the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: worker {mode} exited {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout


def summary(workload, m, attempted, failed):
    """One readable line of the end-to-end figures under their full names."""
    rate_name = RATE_NAMES.get(workload, "train_steps_per_s")
    return (f"# summary {workload}: setup_s {m['setup_s']['value']:.4f} s | "
            f"{rate_name} {m['steps_per_s']['value']:.2f} 1/s | "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB | "
            f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wmdistill" / "cli.py").is_file():
        print(f"error: no wmdistill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = _worker("prep", args, work, deadline)
        if out is not None:
            out = _worker("measure", args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()         # only when no other run is using it
    if out is None:
        return 1

    result = json.loads(out.strip().splitlines()[-1])
    attempted, failed = result["attempted"], result["failed"]
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print("# samples " + json.dumps(result["samples"]))
    print("# fingerprint " + json.dumps(result["fingerprint"]))
    if result["failures"]:
        print("# failures " + json.dumps(result["failures"]))
    if args.trace:
        print("# trace " + json.dumps(result["trace"]))
    else:
        print(summary(args.workload, result["metrics"], attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
