"""Run orchestration and CLI: reports, CSV logs, resume, degeneration,
sweep table, exit codes, score aggregation."""

import json
from pathlib import Path

import pytest

from wmdistill.checkpoint import file_hash, read_checkpoint
from wmdistill.cli import EXIT_OK, EXIT_USAGE, main
from wmdistill.dataset import generate_dataset
from wmdistill.evaluate import evaluate_model, normalized_score
from wmdistill.experiments import (RunConfig, SweepGrid, read_config,
                                   run_sweep, run_training)
from wmdistill.planner import PlannerConfig
from wmdistill.world_model import model_from_checkpoint

FAST = dict(steps=20, batch_size=8, log_interval=5, eval_every=0,
            eval_episodes=0, preset="student")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    generate_dataset(root, num_episodes=2, policy="mixture", seed=5)
    return root


@pytest.fixture(scope="module")
def teacher_ckpt(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("teacher")
    cfg = RunConfig(dataset=str(data_dir), out=str(out), seed=9,
                    preset="teacher-S", **{k: v for k, v in FAST.items()
                                           if k != "preset"})
    run_training(cfg, command="train")
    return out / "model.tdck"


def test_normalized_score_exactness():
    assert normalized_score([1000.0, 1000.0, 1000.0]) == 100.0
    assert normalized_score([500.0, 500.0]) == 50.0
    assert abs(normalized_score([140.4]) - 14.04) < 1e-12
    with pytest.raises(ValueError):
        normalized_score([])


def test_run_training_outputs(data_dir, tmp_path):
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "run"),
                    seed=1, **FAST)
    report = run_training(cfg, command="train")
    out = tmp_path / "run"
    losses = (out / "losses.csv").read_text().strip().splitlines()
    assert losses[0] == "step,consistency,reward,value,distill,total"
    assert len(losses) - 1 == FAST["steps"] // FAST["log_interval"]
    # breakdown rows recombine exactly: total = 1*c + 1*r + 0.5*v + 0*d
    for row in losses[1:]:
        _, c, r, v, d, total = map(float, row.split(","))
        assert abs(total - (c + r + 0.5 * v + 0.0 * d)) <= 1e-6 * max(1, total)
    assert (out / "config.txt").exists()
    assert (out / "model.tdck").exists() and (out / "trainstate.tdck").exists()
    saved = json.loads((out / "report.json").read_text())
    assert saved["checkpoint_hashes"] == report["checkpoint_hashes"]
    assert report["checkpoint_hashes"]["model"] == file_hash(out / "model.tdck")


def test_identical_seeds_identical_reports(data_dir, tmp_path):
    reports = []
    for name in ("a", "b"):
        cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / name),
                        seed=77, **FAST)
        reports.append(run_training(cfg, command="train"))
    a, b = reports
    assert a["checkpoint_hashes"] == b["checkpoint_hashes"]
    assert a["task_scores"] == b["task_scores"]


def test_config_file_roundtrip_reproduces_run(data_dir, tmp_path):
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "orig"),
                    seed=13, **FAST)
    report = run_training(cfg, command="train")
    values, command = read_config(tmp_path / "orig" / "config.txt")
    assert command == "train"
    rc = main(["train", "--config", str(tmp_path / "orig" / "config.txt"),
               "--out", str(tmp_path / "again")])
    assert rc == EXIT_OK
    again = json.loads((tmp_path / "again" / "report.json").read_text())
    assert again["checkpoint_hashes"] == report["checkpoint_hashes"]


def test_distill_dcoef_zero_matches_from_scratch_bitwise(data_dir, teacher_ckpt,
                                                         tmp_path):
    train_cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "scratch"),
                          seed=21, **FAST)
    train_report = run_training(train_cfg, command="train")
    distill_cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "distill"),
                            seed=21, d_coef=0.0, teacher=str(teacher_ckpt),
                            **FAST)
    distill_report = run_training(distill_cfg, command="distill")
    assert (train_report["checkpoint_hashes"]["model"]
            == distill_report["checkpoint_hashes"]["model"])
    assert (tmp_path / "scratch" / "model.tdck").read_bytes() \
        == (tmp_path / "distill" / "model.tdck").read_bytes()


def test_resume_equals_uninterrupted_bitwise(data_dir, tmp_path):
    full_cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "full"),
                         seed=31, **FAST)
    full = run_training(full_cfg, command="train")

    half = dict(FAST)
    half["steps"] = 10
    run_training(RunConfig(dataset=str(data_dir), out=str(tmp_path / "half"),
                           seed=31, **half), command="train")
    resumed_cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "resumed"),
                            seed=31,
                            resume=str(tmp_path / "half" / "trainstate.tdck"),
                            **FAST)
    resumed = run_training(resumed_cfg, command="train")
    assert resumed["checkpoint_hashes"] == full["checkpoint_hashes"]
    assert (tmp_path / "full" / "model.tdck").read_bytes() \
        == (tmp_path / "resumed" / "model.tdck").read_bytes()


def test_distillation_reduces_teacher_student_gap(data_dir, teacher_ckpt,
                                                  tmp_path):
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "d"), seed=41,
                    d_coef=0.5, teacher=str(teacher_ckpt), steps=60,
                    batch_size=16, log_interval=10, eval_every=0,
                    eval_episodes=0, preset="student")
    report = run_training(cfg, command="distill")
    losses = (tmp_path / "d" / "losses.csv").read_text().strip().splitlines()
    first = float(losses[1].split(",")[4])
    last = float(losses[-1].split(",")[4])
    assert last < first, "distill component should shrink"
    assert report["teacher_fingerprint"] is not None


def test_cli_gen_data_and_exit_codes(tmp_path):
    rc = main(["gen-data", "--out", str(tmp_path / "ds"),
               "--episodes-per-task", "1", "--policy", "random", "--seed", "2"])
    assert rc == EXIT_OK
    assert len(list((tmp_path / "ds").glob("*.mtep"))) == 3

    assert main(["train", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["distill", "--dataset", str(tmp_path / "ds"),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE  # no teacher
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.tdck"),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == EXIT_USAGE


def test_cli_eval_deterministic(teacher_ckpt, tmp_path):
    args = ["eval", "--checkpoint", str(teacher_ckpt), "--episodes", "1",
            "--seed", "3", "--plan-samples", "8", "--plan-iterations", "1",
            "--plan-elites", "2"]
    assert main(args + ["--out", str(tmp_path / "e1")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "e2")]) == EXIT_OK
    r1 = json.loads((tmp_path / "e1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "e2" / "report.json").read_text())
    assert r1["task_scores"] == r2["task_scores"]
    assert r1["normalized_score"] == normalized_score(list(r1["task_scores"].values()))
    # metrics.csv follows the long schema
    head = (tmp_path / "e1" / "metrics.csv").read_text().splitlines()[0]
    assert head == "step,metric,value,task"


def test_cli_quantize_emits_f16_and_scores(teacher_ckpt, tmp_path):
    rc = main(["quantize", "--checkpoint", str(teacher_ckpt),
               "--out", str(tmp_path / "q"), "--eval", "--episodes", "1",
               "--seed", "4", "--plan-samples", "8", "--plan-iterations", "1",
               "--plan-elites", "2"])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "q" / "report.json").read_text())
    assert Path(report["f16_checkpoint"]).exists()
    assert report["bytes_after"] < report["bytes_before"]
    assert "float_normalized_score" in report and "f16_normalized_score" in report
    ckpt16 = read_checkpoint(report["f16_checkpoint"])
    assert all(t.dtype == "f16" for t in ckpt16.tensors.values())


def test_sweep_table_sorted_and_complete(data_dir, teacher_ckpt, tmp_path):
    base = RunConfig(dataset=str(data_dir), out="", seed=51, steps=10,
                     batch_size=8, log_interval=5, eval_every=0,
                     eval_episodes=1, preset="student",
                     teacher=str(teacher_ckpt),
                     plan_samples=8, plan_iterations=1, plan_elites=2)
    grid = SweepGrid(d_coefs=[0.0, 0.4], batch_sizes=[8, 16],
                     steps_list=[], teachers=[])
    report = run_sweep(base, grid, tmp_path / "sweep")
    assert len(report["cells"]) == 4
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "score,status,d_coef,batch_size,steps,teacher,out_dir"
    assert len(rows) - 1 == 4
    scores = [float(r.split(",")[0]) for r in rows[1:] if r.split(",")[0]]
    assert scores == sorted(scores, reverse=True)
    for cell in report["cells"]:
        assert (Path(cell["out_dir"]) / "report.json").exists()


def test_sweep_records_cell_failures_and_continues(data_dir, tmp_path):
    base = RunConfig(dataset=str(data_dir), out="", seed=52, steps=5,
                     batch_size=8, log_interval=5, eval_every=0,
                     eval_episodes=0, preset="student")
    grid = SweepGrid(d_coefs=[0.4], batch_sizes=[],
                     steps_list=[], teachers=["/nonexistent.tdck", ""])
    report = run_sweep(base, grid, tmp_path / "sweep2")
    statuses = sorted(c["status"] for c in report["cells"])
    assert len(statuses) == 2
    assert any(s.startswith("error:") for s in statuses)
    assert any(s == "ok" for s in statuses)
    rows = (tmp_path / "sweep2" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 2
    failed = [c for c in report["cells"] if c["status"] != "ok"]
    assert "nonexistent.tdck" in failed[0]["error"]
    trace = (Path(failed[0]["out_dir"]) / "error.txt").read_text()
    assert "Traceback" in trace and "nonexistent.tdck" in trace
    on_disk = json.loads((tmp_path / "sweep2" / "report.json").read_text())
    assert [c["error"] for c in on_disk["cells"]] == [c["error"] for c in report["cells"]]


def test_sweep_empty_grid_is_usage_error(data_dir, tmp_path):
    rc = main(["sweep", "--dataset", str(data_dir),
               "--out", str(tmp_path / "s")])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "s" / "sweep.csv").exists()


def test_eval_parallelism_cap_does_not_change_results(teacher_ckpt, monkeypatch):
    model = model_from_checkpoint(read_checkpoint(teacher_ckpt))
    from wmdistill.envs import MultiTaskSuite, TASKS
    suite = MultiTaskSuite(TASKS)
    cfg = PlannerConfig(num_samples=8, num_elites=2, iterations=1)
    monkeypatch.setenv("WM_DISTILL_THREADS", "1")
    serial = evaluate_model(model, list(TASKS), 2, seed=6, planner_cfg=cfg,
                            suite=suite)
    monkeypatch.setenv("WM_DISTILL_THREADS", "3")
    threaded = evaluate_model(model, list(TASKS), 2, seed=6, planner_cfg=cfg,
                              suite=suite)
    assert serial.task_scores == threaded.task_scores
    assert serial.normalized == threaded.normalized
