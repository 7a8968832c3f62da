"""The process of one workload run, started by run.py.

``prep`` builds the run's inputs from the workload seed: a mixture dataset
and, where the workload needs them, a teacher-L and a distilled student
checkpoint. ``measure`` times the workload's commands through
``wmdistill.cli.main`` in this process, checks every output, and prints
one JSON line. Inputs are built in a process of their own so that this
process's peak RSS is the workload's alone.

run.py sets OPENBLAS_NUM_THREADS=1 and removes WM_DISTILL_THREADS before
this file starts, so numpy loads with single-threaded BLAS.
"""

from __future__ import annotations

import os
import sys

if os.environ.get("OPENBLAS_NUM_THREADS") != "1" or "WM_DISTILL_THREADS" in os.environ:
    sys.exit("worker.py needs OPENBLAS_NUM_THREADS=1 and WM_DISTILL_THREADS unset; "
             "start it through perfbench/run.py")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# The metrics a run reports, with their units: "end_to_end" untraced,
# "per_layer" traced.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import numpy as np  # noqa: E402
import wmdistill  # noqa: E402
from wmdistill import checkpoint as ck  # noqa: E402
from wmdistill import cli  # noqa: E402
from wmdistill.world_model import model_from_checkpoint  # noqa: E402

from tracing import Tracer, installed, per_layer  # noqa: E402

DATA_EPISODES_PER_TASK = 40       # as in the acceptance suite
LOG_INTERVAL = 50
SETUP_PER_ROUND = 3
EVAL_TASKS = ("pendulum-swingup", "cartpole-balance", "cup-catch")
EVAL_EPISODES = 1
EPISODE_LEN = 200
TRAIN_FLAGS = ("--horizon", "3", "--eval-episodes", "0", "--eval-every", "0",
               "--log-interval", str(LOG_INTERVAL))
PREP_TEACHER_STEPS = 20
PREP_STUDENT_STEPS = 50


@dataclass(frozen=True)
class TrainingSpec:
    command: str
    flags: tuple
    steps: int          # per measured call, about 1.5 s of work
    teacher: bool


TRAINING = {
    "pretrain-teacherL": TrainingSpec(
        "train", ("--preset", "teacher-L", "--batch-size", "16"), 100, False),
    "distill-student": TrainingSpec(
        "distill", ("--preset", "student", "--batch-size", "32", "--d-coef", "0.5",
                    "--mode", "reward_only"), 150, True),
}
WORKLOADS = (*TRAINING, "eval-planner")


class Checks:
    """Operations attempted and failed: command invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def run(self, what, fn):
        """One output check; an exception counts as a failed check."""
        try:
            ok = bool(fn())
        except Exception as exc:  # the program under test failed the check
            return self.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return self.check(ok, what)

    def report(self, path):
        """The command's report.json, or None; reading it is one check."""
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            self.check(False, f"{path.name} parses: {exc}")
            return None
        self.check(True, f"{path.name} parses")
        return report


def timed(checks, what, body, tracer, span):
    """Run ``body`` once, under ``tracer`` when given; returns its seconds,
    or None when it raised or returned a non-zero exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                (installed(tracer) if tracer else contextlib.nullcontext()):
            fn = tracer.wrap(span, body) if tracer else body
            t0 = time.perf_counter()
            rc = fn()
            seconds = time.perf_counter() - t0
    except Exception as exc:  # counted as a failed invocation
        checks.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None
    return seconds if checks.check(rc == 0, f"{what} exited {rc}") else None


class TrainingRun:
    """``train``/``distill`` calls; set-up is the same call with --steps 0."""

    def __init__(self, spec, seed, work, checks):
        self.spec, self.seed, self.checks = spec, seed, checks
        self.data, self.out = work / "data", work / "out"
        self.teacher = work / "teacher" / "model.tdck"
        self.first_hash = {}                 # steps -> model hash of the first call

    def argv(self, steps):
        argv = [self.spec.command, "--dataset", str(self.data), "--out", str(self.out),
                "--seed", str(self.seed), "--steps", str(steps),
                *self.spec.flags, *TRAIN_FLAGS]
        if self.spec.teacher:
            argv += ["--teacher", str(self.teacher)]
        return argv

    def _call(self, steps, tracer, span):
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.argv(steps)
        seconds = timed(self.checks, argv[0], lambda: cli.main(argv), tracer, span)
        if seconds is not None:
            self._check(steps)
        return seconds

    def setup(self, tracer=None):
        return self._call(0, tracer, "bench.setup")

    def call(self, round_, tracer=None):
        seconds = self._call(self.spec.steps, tracer, "bench.call")
        return None if seconds is None else self.spec.steps / seconds

    def _check(self, steps):
        run, out = self.checks.run, self.out
        report = self.checks.report(out / "report.json") or {}

        def losses_ok():
            rows = (out / "losses.csv").read_text().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")[1:]]
            return len(rows) == steps // LOG_INTERVAL and all(map(math.isfinite, values))

        run("losses.csv is finite with steps/log_interval rows", losses_ok)
        run("model.tdck reloads",
            lambda: model_from_checkpoint(ck.read_checkpoint(out / "model.tdck")))
        digest = ck.file_hash(out / "model.tdck") if (out / "model.tdck").is_file() else None
        run("reported model hash equals the file's",
            lambda: report["checkpoint_hashes"]["model"] == digest)
        if self.spec.teacher:
            run("teacher fingerprint equals the teacher file's hash",
                lambda: report["teacher_fingerprint"] == ck.file_hash(self.teacher))
        first = self.first_hash.setdefault(steps, digest)
        self.checks.check(digest is not None and digest == first,
                          "repeated runs of one seed give one model hash")

    def fingerprint(self):
        return self.first_hash.get(self.spec.steps)


class EvalRun:
    """``eval`` of the FP16-quantized student, one episode of one task per
    call, the 3 tasks in rotation: a call is about 2 s, so a run takes
    enough samples for a steady median. Every task's episode is 200 steps
    of the same planner work.

    Set-up is ``quantize`` of the student, then reading and rebuilding the
    f16 checkpoint.
    """

    def __init__(self, seed, work, checks):
        self.seed, self.checks = seed, checks
        self.student = work / "student" / "model.tdck"
        self.quant, self.out = work / "quant", work / "out"
        self.f16 = self.quant / "model.f16.tdck"
        self.first_scores = {}               # task -> score of its first call

    def setup(self, tracer=None):
        shutil.rmtree(self.quant, ignore_errors=True)
        argv = ["quantize", "--checkpoint", str(self.student), "--out", str(self.quant),
                "--seed", str(self.seed)]

        def body():
            rc = cli.main(argv)
            if rc == 0:
                model_from_checkpoint(ck.read_checkpoint(self.f16))
            return rc

        seconds = timed(self.checks, "quantize", body, tracer, "bench.setup")
        if seconds is not None:
            report = self.checks.report(self.quant / "report.json") or {}
            self.checks.run("reported f16 hash equals the file's",
                            lambda: report["f16_hash"] == ck.file_hash(self.f16))
        return seconds

    def call(self, round_, tracer=None):
        shutil.rmtree(self.out, ignore_errors=True)
        task = EVAL_TASKS[round_ % len(EVAL_TASKS)]
        argv = ["eval", "--checkpoint", str(self.f16), "--out", str(self.out),
                "--tasks", task, "--episodes", str(EVAL_EPISODES), "--seed", str(self.seed)]
        seconds = timed(self.checks, "eval", lambda: cli.main(argv), tracer, "bench.call")
        if seconds is None:
            return None
        report = self.checks.report(self.out / "report.json")
        if report is None:
            return None
        run = self.checks.run
        scores = report.get("task_scores", {})
        run("normalized_score == mean(task_scores)/10 exactly",
            lambda: report["normalized_score"] == sum(scores.values()) / len(scores) / 10.0)
        run("task scores lie in [0, 1000]",
            lambda: all(0.0 <= s <= 1000.0 for s in scores.values()))
        run("episode count is right", lambda: report["episodes"] == EVAL_EPISODES and
            list(scores) == [task] and len(report["episode_returns"][task]) == EVAL_EPISODES)
        first = self.first_scores.setdefault(task, scores.get(task))
        self.checks.check(first is not None and scores.get(task) == first,
                          "repeated runs of one seed give the same scores")
        return len(scores) * EVAL_EPISODES * EPISODE_LEN / seconds

    def fingerprint(self):
        return self.first_scores


def prep(workload, seed, work):
    data, teacher = work / "data", work / "teacher"
    steps = [["gen-data", "--out", str(data), "--policy", "mixture",
              "--episodes-per-task", str(DATA_EPISODES_PER_TASK)]]
    if workload != "pretrain-teacherL":
        steps.append(["train", "--dataset", str(data), "--out", str(teacher),
                      "--steps", str(PREP_TEACHER_STEPS),
                      *TRAINING["pretrain-teacherL"].flags, *TRAIN_FLAGS])
    if workload == "eval-planner":
        steps.append(["distill", "--dataset", str(data), "--out", str(work / "student"),
                      "--teacher", str(teacher / "model.tdck"),
                      "--steps", str(PREP_STUDENT_STEPS),
                      *TRAINING["distill-student"].flags, *TRAIN_FLAGS])
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--seed", str(seed)])
        if rc != 0:
            sys.exit(f"preparing inputs failed: {argv[0]} exited {rc}")


def environment(workload, seed, seconds, trace):
    """Settings that decide whether two results can be compared."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "WM_DISTILL_THREADS")},
        "wmdistill": wmdistill.__file__,
    }


def measure(workload, seed, seconds, trace, work):
    checks = Checks()
    run = (TrainingRun(TRAINING[workload], seed, work, checks) if workload in TRAINING
           else EvalRun(seed, work, checks))
    # Closed loop: each call starts when the previous one returns. Every
    # round makes SETUP_PER_ROUND set-up calls before its measured call, so
    # the set-up median covers the same stretch of the run as the rates and
    # not one moment of a machine whose speed drifts. A traced run
    # alternates untraced and traced calls of the same seed, so their rates
    # give the tracing overhead and their outputs must agree.
    setup_tracer = Tracer() if trace else None
    main_tracer = Tracer() if trace else None
    setup, rates, traced_rates, traced_wall = [], [], [], 0.0
    start, last, rounds = time.perf_counter(), 0.0, 0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            took = run.setup(setup_tracer)
            if took is not None:
                setup.append(took)
        rate = run.call(rounds)
        if rate is not None:
            rates.append(rate)
        if trace:
            t1 = time.perf_counter()
            rate = run.call(rounds, main_tracer)
            traced_wall += time.perf_counter() - t1
            if rate is not None:
                traced_rates.append(rate)
        last = time.perf_counter() - t0
        rounds += 1
    if not setup or not rates or (trace and not traced_rates):
        sys.exit(f"no successful call to measure: {checks.failures}")

    result = {
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures, "env": environment(workload, seed, seconds, trace),
        "fingerprint": run.fingerprint(),
        "samples": {"setup_s": setup, "rate": rates, "traced_rate": traced_rates},
    }
    if trace:
        overhead = (statistics.median(rates) / statistics.median(traced_rates) - 1) * 100
        values = per_layer(main_tracer, setup_tracer, len(setup), len(traced_rates), overhead)
        result["trace"] = {"wall_s": traced_wall, "main": main_tracer.dump(),
                           "setup": setup_tracer.dump()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "steps_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in SPEC["per_layer" if trace else "end_to_end"]}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prep", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    if Path(wmdistill.__file__).resolve().parent != ROOT / "src" / "wmdistill":
        sys.exit(f"wmdistill imported from {wmdistill.__file__}, not from this checkout")
    if args.mode == "prep":
        prep(args.workload, args.seed, args.work)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.work)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
