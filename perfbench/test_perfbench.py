"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` (about 30 s).

They run every workload for about a second, traced and untraced, check the
result line against BENCHMARK.json, and test the compare rules on fixed
numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = run.WORKLOADS
SEED = 3


def bench(root, workload, trace, seed=SEED, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    tagged = dict(line[2:].split(" ", 1) for line in lines if line.startswith("# "))
    return proc, lines, tagged


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (result, tagged lines), made once per module."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, lines, tagged = bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(lines[-1]), tagged
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(runs, workload):
    result, tagged = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    env = json.loads(tagged["env"])
    assert env["seed"] == SEED and env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["thread_env"]["WM_DISTILL_THREADS"] is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_with_consistent_self_times(runs, workload):
    result, tagged = runs[workload, 1]
    assert result["correct"] and result["failed"] == 0
    assert [(n, v["unit"]) for n, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    trace = json.loads(tagged["trace"])
    spans = trace["main"]["spans"] + trace["setup"]["spans"]
    assert spans and all(s["self_s"] >= -1e-9 and s["total_s"] >= s["self_s"] for s in spans)
    main_self = sum(s["self_s"] for s in trace["main"]["spans"])
    assert 0 < main_self <= trace["wall_s"] + 1e-6
    metrics = {n: v["value"] for n, v in result["metrics"].items()}
    exercised = {"pretrain-teacherL": "autodiff.adam_main.ms_per_step",
                 "distill-student": "distill.teacher_rows_per_step",
                 "eval-planner": "planner.plan.ms.p50"}
    assert metrics[exercised[workload]] > 0
    if workload == "eval-planner":
        assert metrics["envs.step.calls"] == 200
    else:
        assert metrics["autodiff.ops_per_step"] == int(metrics["autodiff.ops_per_step"]) > 0
        assert metrics["seeding.stream.calls_per_step"] > 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_output_bits(runs, workload):
    untraced = json.loads(runs[workload, 0][1]["fingerprint"])
    traced = json.loads(runs[workload, 1][1]["fingerprint"])
    assert untraced and traced == untraced


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines, _ = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_spec_names_known_workloads_and_gives_setup_the_largest_bound():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


STEPS = {"name": "steps_per_s", "better": "higher", "bound": 0.1}
BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_judge_counts_a_win_only_with_nine_of_ten_pairs_beyond_the_spread():
    assert compare.judge(STEPS, BASE, [v * 1.05 for v in BASE])["verdict"] == "win"
    mixed = [v * 1.05 for v in BASE[:8]] + [v * 0.99 for v in BASE[8:]]
    assert compare.judge(STEPS, BASE, mixed)["verdict"] == "no regression"
    assert compare.judge(STEPS, BASE, [v * 1.05 for v in BASE],
                         base_failed=0, change_failed=1)["verdict"] == "no regression"


def test_judge_flags_regressions_and_wide_spreads():
    assert compare.judge(STEPS, BASE, [v * 0.8 for v in BASE])["verdict"] == "regression"
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert compare.judge(STEPS, BASE, wide)["verdict"] == "unresolved"
    latency = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert compare.judge(latency, BASE, [v * 0.9 for v in BASE])["verdict"] == "win"
