"""Run orchestration and CLI: reports, CSV logs, resume, degeneration,
sweep table, exit codes, score aggregation."""

import contextlib
import io
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wmdistill.checkpoint import file_hash, read_checkpoint, write_checkpoint
from wmdistill.cli import EXIT_OK, EXIT_USAGE, build_parser, main
from wmdistill.dataset import generate_dataset, load_dataset, sample_batch
from wmdistill.distill import (FrozenTeacher, LatentProjection, distill_train_step,
                               fit_pca_projection)
from wmdistill.envs import MultiTaskSuite, TASKS, UsageError
from wmdistill.evaluate import evaluate_model, normalized_score
import wmdistill.checkpoint as checkpoint_module
import wmdistill.cli as cli_module
import wmdistill.experiments as experiments_module
from wmdistill.experiments import (ResumeMismatchError, RunConfig, SweepGrid,
                                   cli_flag, planner_config, read_config, run_eval,
                                   run_quantize, run_sweep, run_training,
                                   write_config)
from wmdistill.planner import PlannerConfig
from wmdistill.world_model import (WorldModel, make_optimizers, model_from_checkpoint,
                                   train_step)

FAST = dict(steps=20, batch_size=8, log_interval=5, eval_every=0,
            eval_episodes=0, preset="student")


@pytest.fixture(autouse=True)
def one_command_parser_parses_as_the_full_parser(monkeypatch):
    """`main` builds only its command's parser. For every argv a test of
    this module passes to `main`, that parser must give the Namespace (or
    the exit code) that the parser of all six commands gives."""
    build = cli_module.build_parser

    def checked(command=None):
        parser = build(command)
        one_command_parse = parser.parse_args

        def parse_args(argv):
            try:
                args = one_command_parse(argv)
            except SystemExit as exc:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), \
                        pytest.raises(SystemExit) as full:
                    build().parse_args(argv)
                assert full.value.code == exc.code
                raise
            assert args == build().parse_args(argv)
            return args

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli_module, "build_parser", checked)


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
    run_training(cfg)
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
    report = run_training(cfg)
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
        reports.append(run_training(cfg))
    a, b = reports
    assert a["checkpoint_hashes"] == b["checkpoint_hashes"]
    assert a["task_scores"] == b["task_scores"]


def test_config_file_roundtrip_reproduces_run(data_dir, tmp_path):
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "orig"),
                    seed=13, **FAST)
    report = run_training(cfg)
    config = tmp_path / "orig" / "config.txt"
    assert config.read_text().splitlines()[0] == "command=train"
    assert RunConfig(**read_config(config)) == cfg
    rc = main(["train", "--config", str(tmp_path / "orig" / "config.txt"),
               "--out", str(tmp_path / "again")])
    assert rc == EXIT_OK
    again = json.loads((tmp_path / "again" / "report.json").read_text())
    assert again["checkpoint_hashes"] == report["checkpoint_hashes"]


def test_distill_dcoef_zero_matches_from_scratch_bitwise(data_dir, teacher_ckpt,
                                                         tmp_path):
    train_cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "scratch"),
                          seed=21, **FAST)
    train_report = run_training(train_cfg)
    distill_cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "distill"),
                            seed=21, d_coef=0.0, teacher=str(teacher_ckpt),
                            **FAST)
    distill_report = run_training(distill_cfg)
    assert (train_report["checkpoint_hashes"]["model"]
            == distill_report["checkpoint_hashes"]["model"])
    assert (tmp_path / "scratch" / "model.tdck").read_bytes() \
        == (tmp_path / "distill" / "model.tdck").read_bytes()


RUN_FILES = ("config.txt", "model.tdck", "trainstate.tdck", "losses.csv", "metrics.csv")
# a resumed run's config.txt records its --resume and --out; the rest of its
# files equal the uninterrupted run's
RESUMED_FILES = RUN_FILES[1:]
# the files of a run that has not finished: model.tdck is written at the end
UNFINISHED_FILES = tuple(name for name in RUN_FILES if name != "model.tdck")


def _same_run(a, b, names=RUN_FILES):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _resumed_train(data_dir, root, **settings):
    """A 20-step train run and the same run resumed from a 10-step run's
    trainstate, whose files must be the same; returns the resumed run's dir."""
    def run(name, steps, resume=""):
        return run_training(RunConfig(dataset=str(data_dir), out=str(root / name),
                                      seed=31, resume=resume,
                                      **{**FAST, **settings, "steps": steps}))

    full = run("full", 20)
    run("half", 10)
    resumed = run("resumed", 20, str(root / "half" / "trainstate.tdck"))
    assert resumed["checkpoint_hashes"] == full["checkpoint_hashes"]
    _same_run(root / "full", root / "resumed", RESUMED_FILES)
    return root / "resumed"


def test_resume_equals_uninterrupted_bitwise(data_dir, tmp_path):
    _resumed_train(data_dir, tmp_path)


def test_resume_carries_the_periodic_eval_rows(data_dir, tmp_path):
    resumed = _resumed_train(data_dir, tmp_path, eval_every=5, eval_episodes=1,
                             **TINY_PLAN)
    rows = (resumed / "metrics.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"5", "10", "15", "20"}


def _distill(data_dir, teacher_ckpt, out, mode, steps, resume=""):
    cfg = RunConfig(dataset=str(data_dir), out=str(out), seed=33, d_coef=0.5,
                    mode=mode, teacher=str(teacher_ckpt), resume=resume,
                    **{**FAST, "steps": steps})
    run_training(cfg)
    return out


@pytest.mark.parametrize("mode", ["reward_only", "latent_linear", "latent_pca"])
def test_distill_resume_equals_uninterrupted_bitwise(data_dir, teacher_ckpt,
                                                     tmp_path, mode):
    full = _distill(data_dir, teacher_ckpt, tmp_path / "full", mode, 20)
    half = _distill(data_dir, teacher_ckpt, tmp_path / "half", mode, 10)
    resumed = _distill(data_dir, teacher_ckpt, tmp_path / "resumed", mode, 20,
                       resume=str(half / "trainstate.tdck"))
    _same_run(full, resumed, RESUMED_FILES)


def test_trainstate_tensors_are_named_by_their_parameters(data_dir, teacher_ckpt,
                                                          tmp_path):
    out = _distill(data_dir, teacher_ckpt, tmp_path / "run", "latent_linear", 2)
    ckpt = read_checkpoint(out / "trainstate.tdck")
    shapes = {name: p.shape
              for name, p in model_from_checkpoint(ckpt).named_parameters()}
    teacher_latent = int(read_checkpoint(teacher_ckpt).metadata["latent_dim"])
    shapes["latent_proj.w"] = (teacher_latent, int(ckpt.metadata["latent_dim"]))
    main = [n for n in shapes if n.split(".")[0] in
            ("encoder", "dynamics", "reward", "value", "latent_proj")]
    trained = {"adam_main": main,
               "adam_policy": [n for n in shapes if n.startswith("policy.")]}
    want = dict(shapes)
    for key, names in trained.items():
        for name in names:
            want[f"{key}.m.{name}"] = want[f"{key}.v.{name}"] = shapes[name]
    assert {name: t.shape for name, t in ckpt.tensors.items()} == want


def test_distillation_reduces_teacher_student_gap(data_dir, teacher_ckpt,
                                                  tmp_path):
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "d"), seed=41,
                    d_coef=0.5, teacher=str(teacher_ckpt), steps=60,
                    batch_size=16, log_interval=10, eval_every=0,
                    eval_episodes=0, preset="student")
    report = run_training(cfg)
    losses = (tmp_path / "d" / "losses.csv").read_text().strip().splitlines()
    first = float(losses[1].split(",")[4])
    last = float(losses[-1].split(",")[4])
    assert last < first, "distill component should shrink"
    assert report["teacher_fingerprint"] is not None


def test_cli_gen_data_and_exit_codes(tmp_path):
    rc = main(["gen-data", "--out", str(tmp_path / "ds"),
               "--episodes-per-task", "1", "--policy", "random", "--seed", "2"])
    assert rc == EXIT_OK
    assert [p.name for p in (tmp_path / "ds").iterdir()] == ["dataset.tdck"]
    assert len(load_dataset(tmp_path / "ds").episodes) == 3

    assert main(["train", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["distill", "--dataset", str(tmp_path / "ds"),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE  # no teacher
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.tdck"),
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == EXIT_USAGE


# a missing input is refused by its loader, with exit 2, before anything is written
@pytest.mark.parametrize("command, inputs", [
    ("train", ["--dataset", "{missing}"]),
    ("sweep", ["--dataset", "{missing}", "--grid-d-coef", "0"]),
    ("train", ["--dataset", "{data}", "--resume", "{missing}"]),
    ("eval", ["--checkpoint", "{missing}"]),
    ("quantize", ["--checkpoint", "{missing}"])],
    ids=["train-dataset", "sweep-dataset", "train-resume", "eval", "quantize"])
def test_missing_input_is_its_loaders_usage_error(data_dir, tmp_path, capsys, command,
                                                  inputs):
    missing, out = tmp_path / "missing", tmp_path / "out"
    rc = main([command, "--out", str(out),
               *(arg.format(missing=missing, data=data_dir) for arg in inputs)])
    assert rc == EXIT_USAGE
    said = (f"no dataset.tdck in dataset directory {missing}"
            if inputs[inputs.index("{missing}") - 1] == "--dataset"
            else f"checkpoint {missing} does not exist")
    assert capsys.readouterr().err.startswith(f"error: {said}")
    assert not out.exists()


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


def _broken_teacher(root, teacher_ckpt):
    """`teacher_ckpt` without its encoder.w0 tensor: its metadata fits the
    dataset, but its model does not load."""
    broken = read_checkpoint(teacher_ckpt)
    del broken.tensors["encoder.w0"]
    write_checkpoint(root / "broken.tdck", broken)
    return root / "broken.tdck"


@contextlib.contextmanager
def _failing_distill_steps():
    """Every distillation step raises, as a cell that fails in training does;
    a run without a teacher trains as usual."""
    def failing_step(*args):
        raise FloatingPointError("injected: distill step diverged")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments_module, "distill_train_step", failing_step)
        yield


def test_sweep_records_cell_failures_and_continues(data_dir, teacher_ckpt, tmp_path):
    base = RunConfig(dataset=str(data_dir), out="", seed=52, steps=5,
                     batch_size=8, log_interval=5, eval_every=0,
                     eval_episodes=0, preset="student")
    # d_coef 0: the from-scratch ("") cell has no teacher to distill from
    grid = SweepGrid(d_coefs=[0.0], batch_sizes=[],
                     steps_list=[], teachers=[str(teacher_ckpt), ""])
    with _failing_distill_steps():
        report = run_sweep(base, grid, tmp_path / "sweep2")
    statuses = sorted(c["status"] for c in report["cells"])
    assert statuses == ["error:FloatingPointError", "ok"]
    rows = (tmp_path / "sweep2" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 2
    failed = [c for c in report["cells"] if c["status"] != "ok"]
    assert failed[0]["error"] == "injected: distill step diverged"
    trace = (Path(failed[0]["out_dir"]) / "error.txt").read_text()
    assert "Traceback" in trace and "injected: distill step diverged" in trace
    on_disk = json.loads((tmp_path / "sweep2" / "report.json").read_text())
    assert [c["error"] for c in on_disk["cells"]] == [c["error"] for c in report["cells"]]


def test_sweep_stops_on_an_unloadable_teacher_before_any_cell(data_dir, teacher_ckpt,
                                                              tmp_path):
    base = RunConfig(dataset=str(data_dir), seed=52, **FAST)
    grid = SweepGrid(d_coefs=[0.0, 0.4], batch_sizes=[], steps_list=[],
                     teachers=[str(teacher_ckpt), str(_broken_teacher(tmp_path,
                                                                      teacher_ckpt))])
    with pytest.raises(KeyError, match="encoder.w0"):
        run_sweep(base, grid, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def test_sweep_reads_each_teacher_once(data_dir, teacher_ckpt, tmp_path, monkeypatch):
    # the sweep loads the dataset once and each teacher once for all its
    # cells, and each cell writes the files of a standalone run of its config
    loads = []
    real_load_dataset, real_load_teacher = experiments_module.load_dataset, FrozenTeacher.load

    def counting_load_dataset(root):
        loads.append(("dataset", str(root)))
        return real_load_dataset(root)

    def counting_load_teacher(path):
        loads.append(("teacher", str(path)))
        return real_load_teacher(path)

    monkeypatch.setattr(experiments_module, "load_dataset", counting_load_dataset)
    monkeypatch.setattr(FrozenTeacher, "load", staticmethod(counting_load_teacher))
    teachers = [str(teacher_ckpt), str(_f16_teacher(teacher_ckpt, tmp_path))]
    base = RunConfig(dataset=str(data_dir), out="", seed=53, steps=4, batch_size=8,
                     log_interval=2, eval_every=0, eval_episodes=1, preset="student",
                     **TINY_PLAN)
    grid = SweepGrid(d_coefs=[0.0, 0.4], batch_sizes=[], steps_list=[],
                     teachers=teachers)
    report = run_sweep(base, grid, tmp_path / "sweep")
    assert loads == [("dataset", str(data_dir))] + [("teacher", t) for t in teachers]
    assert [c["status"] for c in report["cells"]] == ["ok"] * 4
    assert {c["teacher"] for c in report["cells"]} == {"teacher-S"}

    def settings(run):
        return [line for line in (run / "config.txt").read_text().splitlines()
                if not line.startswith("out=")]

    for i, cell in enumerate(report["cells"]):
        cell_dir, alone = Path(cell["out_dir"]), tmp_path / f"alone{i}"
        run_training(RunConfig(**{**read_config(cell_dir / "config.txt"),
                                  "out": str(alone)}))
        _same_run(cell_dir, alone, RUN_FILES[1:])
        assert settings(cell_dir) == settings(alone)


def test_sweep_empty_grid_is_usage_error(data_dir, tmp_path):
    rc = main(["sweep", "--dataset", str(data_dir),
               "--out", str(tmp_path / "s")])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "s" / "sweep.csv").exists()


def _teacher_of(root, tasks, record_tasks=True):
    """A student-size checkpoint that reads the observation layout of `tasks`."""
    suite = MultiTaskSuite(tasks)
    model = WorldModel(suite.obs_dim, suite.act_dim, "student", seed=4)
    path = root / "other-teacher.tdck"
    write_checkpoint(path, model.to_checkpoint(
        {"tasks": ",".join(tasks)} if record_tasks else {}))
    return path


# (tasks the teacher reads, whether its metadata records them, what the error names)
@pytest.mark.parametrize("tasks, record_tasks, named", [
    (TASKS[::-1], True, "checkpoint's " + ",".join(TASKS[::-1])),
    (TASKS[2:], True, "checkpoint's " + TASKS[2]),
    (TASKS[2:], False, "reads obs/act dims")], ids=["reordered", "subset", "other-dims"])
def test_distill_teacher_of_another_layout_is_usage_error(data_dir, tmp_path, capsys,
                                                          tasks, record_tasks, named):
    teacher = _teacher_of(tmp_path, tasks, record_tasks)
    out = tmp_path / "run"
    rc = main(["distill", "--dataset", str(data_dir), "--out", str(out),
               "--teacher", str(teacher), "--steps", "2", "--batch-size", "4",
               "--eval-episodes", "0", "--d-coef", "0.5"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and ",".join(TASKS) in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["missing", "reordered"])
def test_sweep_checks_each_teacher_before_any_cell(data_dir, teacher_ckpt, tmp_path,
                                                   capsys, bad):
    path = (tmp_path / "missing.tdck" if bad == "missing"
            else _teacher_of(tmp_path, TASKS[::-1]))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(out), "--steps", "1",
               "--eval-episodes", "0", "--grid-teacher", f"{teacher_ckpt},{path}"])
    assert rc == EXIT_USAGE
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


class _ReadRecorder:
    """A RunConfig that records the name of every setting read from it."""

    def __init__(self, cfg):
        self._cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize("mode", [None, "reward_only", "latent_linear", "latent_pca"])
def test_resume_guard_covers_every_setting_the_update_reads(data_dir, teacher_ckpt,
                                                            mode):
    # --resume compares _TRAIN_KEYS, so a setting the update step reads
    # outside them could differ between a run and its resumption unnoticed
    dataset = load_dataset(data_dir)
    model = WorldModel(dataset.obs_dim, dataset.act_dim, "student", seed=3)
    teacher = FrozenTeacher.load(teacher_ckpt)
    projection = None
    if mode == "latent_linear":
        projection = LatentProjection(teacher.model.latent_dim, model.latent_dim)
    elif mode == "latent_pca":
        projection = fit_pca_projection(teacher, dataset, model.latent_dim)
    cfg = _ReadRecorder(RunConfig(d_coef=0.5, mode=mode or "reward_only"))
    extra = projection.params() if isinstance(projection, LatentProjection) else None
    opts = make_optimizers(model, cfg.lr, extra)
    batch = sample_batch(dataset, 8, cfg.horizon, np.random.default_rng(0))
    if mode is None:
        train_step(model, batch, cfg, *opts)
    else:
        distill_train_step(teacher, model, batch, cfg, *opts, projection)
    assert {"lr", "horizon", "gamma", "tau", "rho"} <= cfg.read
    assert ("d_coef" in cfg.read) == (mode is not None)
    assert ("latent_coef" in cfg.read) == (projection is not None)
    assert cfg.read <= set(experiments_module._TRAIN_KEYS)


def test_eval_task_score_independent_of_other_tasks(teacher_ckpt):
    # a task's score is the same whether it is evaluated alone or with others
    model = model_from_checkpoint(read_checkpoint(teacher_ckpt))
    suite = MultiTaskSuite(TASKS)
    cfg = PlannerConfig(num_samples=8, num_elites=2, iterations=1)
    together = evaluate_model(model, list(TASKS), 2, seed=6, planner_cfg=cfg,
                              suite=suite)
    for task in (TASKS[2], TASKS[0]):
        alone = evaluate_model(model, [task], 2, seed=6, planner_cfg=cfg,
                               suite=suite)
        assert alone.task_scores[task] == together.task_scores[task]
        assert alone.episode_returns[task] == together.episode_returns[task]
    reordered = evaluate_model(model, list(reversed(TASKS)), 2, seed=6,
                               planner_cfg=cfg, suite=suite)
    assert reordered.task_scores == together.task_scores


def test_eval_task_outside_checkpoint_is_usage_error(tmp_path, capsys):
    data = tmp_path / "pendulum_only"
    generate_dataset(data, num_episodes=1, policy="random", seed=3,
                     tasks=("pendulum-swingup",))
    assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "t"),
                 "--steps", "0", "--eval-episodes", "0"]) == EXIT_OK
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(tmp_path / "t" / "model.tdck"),
               "--out", str(tmp_path / "e"), "--episodes", "1",
               "--tasks", "pendulum-swingup,cup-catch"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cup-catch" in err and "not trained on" in err


@pytest.mark.parametrize("tasks", ["cup-catch",
                                   "cup-catch,cartpole-balance,pendulum-swingup"],
                         ids=["subset", "reordered"])
def test_gen_data_from_trained_rejects_other_task_list(tmp_path, capsys, tasks):
    # the agent pads observations for the task layout it was trained on
    trained = "pendulum-swingup,cartpole-balance,cup-catch"
    suite = MultiTaskSuite(tuple(trained.split(",")))
    model = WorldModel(suite.obs_dim, suite.act_dim, "student", seed=4)
    write_checkpoint(tmp_path / "model.tdck", model.to_checkpoint({"tasks": trained}))
    rc = main(["gen-data", "--out", str(tmp_path / "ds"), "--episodes-per-task",
               "1", "--policy", f"trained:{tmp_path / 'model.tdck'}",
               "--tasks", tasks])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"tasks {tasks} " in err and f"checkpoint's {trained}" in err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--tasks", "bogus", "unknown task 'bogus'"),
    ("--policy", "dagger", "unknown behavior policy spec 'dagger'"),
    ("--episodes-per-task", "0", "episodes per task must be >= 1")])
def test_gen_data_bad_input_is_usage_error(tmp_path, capsys, flag, value, named):
    argv = ["gen-data", "--out", str(tmp_path / "ds"), "--episodes-per-task", "1"]
    rc = main(argv + [flag, value])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "ds").exists()


# (command, flag, value): each setting is out of range; the eval cases also
# cover the planner flags of train, distill and sweep, which RunConfig checks
@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--plan-iterations", "0"), ("eval", "--plan-elites", "0"),
    ("eval", "--plan-samples", "0"), ("eval", "--episodes", "0"),
    ("train", "--plan-elites", "0"),
    ("train", "--steps", "-5"), ("train", "--batch-size", "0"),
    ("train", "--log-interval", "0"), ("train", "--eval-episodes", "-1"),
    ("train", "--eval-every", "-1")])
def test_out_of_range_setting_is_usage_error(data_dir, teacher_ckpt, tmp_path, capsys,
                                             command, flag, value):
    out = tmp_path / "run"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(teacher_ckpt), "--episodes", "1"]
    else:
        argv = [command, "--dataset", str(data_dir), "--steps", "2", "--batch-size", "4",
                "--eval-episodes", "0"]
    rc = main(argv + ["--out", str(out), flag, value])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be >= ") and f"got {value}" in err
    assert not out.exists()


def test_sweep_grid_value_out_of_range_runs_no_cell(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(out), "--steps", "0",
               "--eval-episodes", "0", "--grid-batch-size", "4,0"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --batch-size must be >= 1, got 0")
    assert not out.exists()


# (command, flag, value, what the error says after the flag): each training
# setting is out of range, unknown, or (--horizon 500) longer than every
# episode of the dataset
@pytest.mark.parametrize("command, flag, value, said", [
    ("train", "--horizon", "0", "must be >= 1, got 0"),
    ("train", "--horizon", "500", "500 is longer than the shortest episode"),
    ("train", "--rho", "2", "must be <= 1, got 2.0"),
    ("train", "--alpha-reward", "-1", "must be >= 0, got -1.0"),
    ("train", "--preset", "bogus",
     "must be one of teacher-L, teacher-S, student, got 'bogus'"),
    ("train", "--activation", "relu", "must be one of mish, tanh, got 'relu'"),
    ("train", "--lr", "-1", "must be > 0, got -1.0"),
    ("train", "--lr", "0", "must be > 0, got 0.0"),
    ("train", "--gamma", "5", "must be <= 1, got 5.0"),
    ("train", "--gamma", "-1", "must be >= 0, got -1.0"),
    ("train", "--tau", "2", "must be <= 1, got 2.0"),
    ("distill", "--latent-coef", "-1", "must be >= 0, got -1.0"),
    ("distill", "--d-coef", "-1", "must be >= 0, got -1.0"),
    ("distill", "--mode", "bogus",
     "must be one of reward_only, latent_linear, latent_pca, got 'bogus'")])
def test_bad_training_setting_is_usage_error(data_dir, teacher_ckpt, tmp_path, capsys,
                                             command, flag, value, said):
    out = tmp_path / "run"
    argv = [command, "--dataset", str(data_dir), "--out", str(out), "--steps", "2",
            "--batch-size", "4", "--eval-episodes", "0", flag, value]
    if command == "distill":
        argv += ["--teacher", str(teacher_ckpt)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag} {said}")
    assert not out.exists()


def test_sweep_grid_d_coef_out_of_range_runs_no_cell(data_dir, teacher_ckpt, tmp_path,
                                                     capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(out), "--steps", "0",
               "--eval-episodes", "0", "--teacher", str(teacher_ckpt),
               "--grid-d-coef", "0.1,-1"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --d-coef must be >= 0, got -1")
    assert not out.exists()


def test_steps_zero_stays_valid(data_dir, tmp_path):
    assert main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "run"),
                 "--steps", "0", "--eval-episodes", "0"]) == EXIT_OK
    assert (tmp_path / "run" / "model.tdck").exists()


@pytest.mark.parametrize("line, named", [("d_cof=0.4", "'d_cof'"),
                                         ("steps 5", "'steps 5'")])
def test_config_file_bad_line_is_usage_error(data_dir, tmp_path, capsys, line,
                                             named):
    config = tmp_path / "run.txt"
    config.write_text(f"# distill run\nseed=3\n{line}\n", encoding="utf-8")
    rc = main(["train", "--config", str(config), "--dataset", str(data_dir),
               "--out", str(tmp_path / "run"), "--steps", "0",
               "--eval-episodes", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{config}:3:" in err and named in err
    assert not (tmp_path / "run" / "model.tdck").exists()


# every run setting at a value other than its default
NON_DEFAULT = dict(dataset="data", out="run", seed=3, steps=7, batch_size=5,
                   preset="teacher-S", activation="tanh", lr=0.1, gamma=0.9, tau=3e-4,
                   alpha_consistency=0.1, alpha_reward=2.5, alpha_value=0.3, rho=0.7,
                   horizon=4, d_coef=0.4, mode="latent_pca", latent_coef=0.1,
                   teacher="teacher.tdck", log_interval=2, eval_every=3,
                   eval_episodes=1, plan_horizon=2, plan_samples=16, plan_elites=4,
                   plan_iterations=3, plan_temperature=0.3, resume="trainstate.tdck")


def test_every_setting_is_a_flag_and_a_config_key(tmp_path):
    cfg = RunConfig(**NON_DEFAULT)
    assert [f.name for f in fields(RunConfig)] == list(NON_DEFAULT)
    assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))
    write_config(tmp_path / "config.txt", cfg, "distill")
    values = read_config(tmp_path / "config.txt")
    assert RunConfig(**values) == cfg
    parser = build_parser()
    for command in ("train", "distill", "sweep"):
        args = parser.parse_args([command, *(arg for n in NON_DEFAULT
                                             for arg in (cli_flag(n), str(values[n])))])
        assert {n: getattr(args, n) for n in NON_DEFAULT} == NON_DEFAULT


@pytest.mark.parametrize("command", ["gen-data", "train", "distill", "eval",
                                     "quantize", "sweep"])
def test_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == EXIT_OK
    assert "--seed" in capsys.readouterr().out


def _scoring_argv(command, checkpoint):
    return [command, "--checkpoint", str(checkpoint), "--episodes", "1",
            *(arg for key, value in TINY_PLAN.items() for arg in (cli_flag(key), str(value)))]


@pytest.mark.parametrize("command", ["gen-data", "eval", "quantize"])
def test_config_flag_only_where_it_is_read(teacher_ckpt, tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "gen-data":
        argv = ["gen-data", "--episodes-per-task", "1", "--tasks", "pendulum-swingup"]
    else:
        argv = _scoring_argv(command, teacher_ckpt)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out), "--config", str(tmp_path / "missing.txt")])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


# (command, flag, value, what the error says after the flag): a negative seed
# and eval's and quantize's discount are checked by RunConfig's bounds
@pytest.mark.parametrize("command, flag, value, said", [
    ("gen-data", "--seed", "-1", "must be >= 0, got -1"),
    ("train", "--seed", "-1", "must be >= 0, got -1"),
    ("distill", "--seed", "-1", "must be >= 0, got -1"),
    ("sweep", "--seed", "-1", "must be >= 0, got -1"),
    ("eval", "--seed", "-1", "must be >= 0, got -1"),
    ("quantize", "--seed", "-1", "must be >= 0, got -1"),
    ("eval", "--gamma", "5", "must be <= 1, got 5.0"),
    ("quantize", "--gamma", "-1", "must be >= 0, got -1.0")])
def test_bad_seed_or_scoring_discount_is_usage_error(data_dir, teacher_ckpt, tmp_path,
                                                     capsys, command, flag, value, said):
    out = tmp_path / "out"
    if command == "gen-data":
        argv = ["gen-data", "--episodes-per-task", "1", "--tasks", "pendulum-swingup"]
    elif command in ("eval", "quantize"):
        argv = _scoring_argv(command, teacher_ckpt)
    else:
        argv = [command, "--dataset", str(data_dir), "--steps", "2", "--batch-size", "4",
                "--eval-episodes", "0"]
        argv += {"distill": ["--teacher", str(teacher_ckpt)],
                 "sweep": ["--grid-d-coef", "0"]}.get(command, [])
    assert main(argv + ["--out", str(out), flag, value]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flag} {said}")
    assert not out.exists()


def test_generate_dataset_rejects_negative_seed(tmp_path):
    with pytest.raises(UsageError, match="--seed must be >= 0, got -2"):
        generate_dataset(tmp_path / "data", 1, "random", -2, ("pendulum-swingup",))
    assert not (tmp_path / "data").exists()


# train honours every distillation setting its config file gives: each file
# asks it to distill (d_coef 0.5) without a teacher, or from a teacher file
# that does not exist, and train refuses it before writing anything
@pytest.mark.parametrize("line", ["d_coef=0.5", "mode=latent_pca", "latent_coef=2",
                                  "teacher=teacher.tdck"])
def test_train_refuses_distillation_settings(data_dir, tmp_path, monkeypatch, capsys,
                                             line):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.txt"
    config.write_text("".join(f"{key_value}\n" for key_value in
                              dict.fromkeys(["d_coef=0.5", line])), encoding="utf-8")
    rc = main(["train", "--config", str(config), "--dataset", str(data_dir),
               "--out", str(tmp_path / "run"), "--steps", "0", "--eval-episodes", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if line.startswith("teacher="):
        assert "teacher.tdck" in err
    else:
        assert "distillation requires --teacher: --d-coef is 0.5" in err
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_distill_runs_config(data_dir, tmp_path, capsys):
    # a config's command= line is not read: without a teacher, its d_coef
    # would distill from nothing
    config = tmp_path / "run.txt"
    config.write_text("command=distill\nd_coef=0.5\n", encoding="utf-8")
    rc = main(["train", "--config", str(config), "--dataset", str(data_dir),
               "--out", str(tmp_path / "run"), "--steps", "0", "--eval-episodes", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--d-coef" in err and "--teacher" in err
    assert not (tmp_path / "run").exists()


def test_sweep_cell_without_teacher_replays_from_its_config(data_dir, tmp_path):
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(tmp_path / "sweep"),
               "--seed", "54", "--steps", "5", "--batch-size", "8",
               "--log-interval", "5", "--eval-every", "0", "--eval-episodes", "0",
               "--preset", "student", "--grid-d-coef", "0"])
    assert rc == EXIT_OK
    [cell] = json.loads((tmp_path / "sweep" / "report.json").read_text())["cells"]
    config = Path(cell["out_dir"]) / "config.txt"
    assert config.read_text().splitlines()[0] == "command=train"
    assert read_config(config)["d_coef"] == 0.0
    rc = main(["train", "--config", str(Path(cell["out_dir"]) / "config.txt"),
               "--out", str(tmp_path / "replay")])
    assert rc == EXIT_OK
    assert (tmp_path / "replay" / "model.tdck").read_bytes() \
        == (Path(cell["out_dir"]) / "model.tdck").read_bytes()


def test_sweep_checks_horizon_before_any_cell(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(out), "--steps", "1",
               "--eval-episodes", "0", "--horizon", "500", "--grid-d-coef", "0,0.4"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: --horizon 500 is longer than the shortest episode")
    assert not out.exists()


def test_config_value_of_wrong_type_is_usage_error(data_dir, tmp_path, capsys):
    config = tmp_path / "run.txt"
    config.write_text("seed=3\nsteps=abc\n", encoding="utf-8")
    rc = main(["train", "--config", str(config), "--dataset", str(data_dir),
               "--out", str(tmp_path / "run"), "--eval-episodes", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{config}:2:" in err and "'steps'" in err and "'abc'" in err
    assert not (tmp_path / "run").exists()


def test_config_key_given_twice_is_usage_error(data_dir, tmp_path, capsys):
    config = tmp_path / "run.txt"
    config.write_text("steps=5\nd_coef=0.5\nsteps=7\n", encoding="utf-8")
    with pytest.raises(UsageError) as exc:
        read_config(config)
    assert str(exc.value) == f"{config}:3: config key 'steps' is given twice, first at line 1"
    rc = main(["train", "--config", str(config), "--dataset", str(data_dir),
               "--out", str(tmp_path / "run"), "--eval-episodes", "0"])
    assert rc == EXIT_USAGE
    assert f"{config}:3:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _resume_argv(command, data_dir, out, resume, steps, seed, flags):
    return [command, "--dataset", str(data_dir), "--out", str(out),
            "--steps", str(steps), "--batch-size", "8", "--log-interval", "5",
            "--eval-every", "0", "--eval-episodes", "0", "--seed", str(seed),
            "--resume", str(resume),
            *(arg for key, value in flags.items()
              for arg in ("--" + key.replace("_", "-"), str(value)))]


# `teacher` in the changed flags makes both runs distill with d_coef 0.5: the
# finished one from `teacher_ckpt`, the resumed one from the finished model.
@pytest.mark.parametrize("resume, steps, seed, named, changed", [
    ("trainstate.tdck", 10, 31, "step 20", {}), ("trainstate.tdck", 20, 31, "step 20", {}),
    ("trainstate.tdck", 40, 32, "seed '31'", {}),
    ("model.tdck", 40, 31, "not a trainstate", {}),
    ("old.tdck", 40, 31, "holds no loss_rows, metric_rows", {}),
    ("trainstate.tdck", 40, 31, "lr '0.0003'", {"lr": 0.001}),
    ("trainstate.tdck", 40, 31, "preset 'student'", {"preset": "teacher-S"}),
    ("trainstate.tdck", 40, 31, "teacher_fingerprint", {"teacher": "model.tdck"}),
    ("trainstate.tdck", 40, 31, "log_interval: loss_rows", {"log_interval": 2}),
    ("trainstate.tdck", 40, 31, "eval_every: metric_rows",
     {"eval_every": 10, "eval_episodes": 1})])
def test_resume_of_another_or_finished_run_writes_nothing(data_dir, teacher_ckpt,
                                                          tmp_path, capsys, resume,
                                                          steps, seed, named, changed):
    done, out = tmp_path / "done", tmp_path / "resumed"
    command, distill = "train", {}
    if "teacher" in changed:
        command, distill = "distill", {"d_coef": 0.5, "teacher": str(teacher_ckpt)}
        changed = {**distill, "teacher": str(done / changed["teacher"])}
    run_training(RunConfig(dataset=str(data_dir), out=str(done), seed=31,
                           **FAST, **distill))
    if resume == "old.tdck":  # a trainstate as written before it stored rows
        old = read_checkpoint(done / "trainstate.tdck")
        del old.metadata["loss_rows"], old.metadata["metric_rows"]
        write_checkpoint(done / resume, old)
    resume = done / resume
    rc = main(_resume_argv(command, data_dir, out, resume, steps, seed, changed))
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "trainstate" in err and named in err
    assert not out.exists()
    with pytest.raises(ResumeMismatchError, match=named):
        run_training(RunConfig(dataset=str(data_dir), out=str(out), seed=seed,
                               resume=str(resume),
                               **{**FAST, "steps": steps, **changed}))
    assert not out.exists()


# --- every run and dataset file is replaced whole or left as it was ----------

TINY_PLAN = dict(plan_horizon=1, plan_samples=8, plan_elites=2, plan_iterations=1)


def _train_run(root, data_dir, teacher_ckpt, variant):
    run_training(RunConfig(dataset=str(data_dir), out=str(root / "run"), seed=variant,
                           **{**FAST, "eval_episodes": 1}, **TINY_PLAN))


def _eval_run(root, data_dir, teacher_ckpt, variant):
    run_eval(teacher_ckpt, root / "eval", ["pendulum-swingup"], 1, seed=variant,
             planner_cfg=planner_config(RunConfig(**TINY_PLAN)))


def _quantize_run(root, data_dir, teacher_ckpt, variant):
    model = root / f"model{variant}"
    run_training(RunConfig(dataset=str(data_dir), out=str(model), seed=variant, **FAST))
    run_quantize(model / "model.tdck", root / "quant")


def _sweep_run(root, data_dir, teacher_ckpt, variant):
    # every cell fails in training, so each writes error.txt; the second
    # sweep has one more cell, so its sweep.csv differs from the first's
    base = RunConfig(dataset=str(data_dir), seed=variant, **FAST)
    with _failing_distill_steps():
        run_sweep(base, SweepGrid([0.1, 0.2][:variant + 1], [], [], [str(teacher_ckpt)]),
                  root / "sweep")


def _gen_data(root, data_dir, teacher_ckpt, variant):
    generate_dataset(root / "data", num_episodes=1 + variant, policy="random",
                     seed=variant, tasks=("pendulum-swingup",))


@pytest.mark.parametrize("name, write", [
    ("config.txt", _train_run), ("losses.csv", _train_run), ("metrics.csv", _train_run),
    ("metrics.csv", _eval_run), ("quant_report.csv", _quantize_run),
    ("sweep.csv", _sweep_run), ("error.txt", _sweep_run),
    ("dataset.tdck", _gen_data)])
def test_failed_write_keeps_the_previous_file_and_no_temp_file(
        data_dir, teacher_ckpt, tmp_path, monkeypatch, name, write):
    write(tmp_path, data_dir, teacher_ckpt, 0)
    (path,) = tmp_path.rglob(name)
    before = path.read_bytes()
    real = experiments_module.write_atomic

    def torn_write(target, parts):
        if Path(target).name != name:
            return real(target, parts)

        def torn():
            data = b"".join(parts)
            yield data[:len(data) // 2]
            raise OSError("disk full")
        return real(target, torn())

    for module in (experiments_module, checkpoint_module):
        monkeypatch.setattr(module, "write_atomic", torn_write)
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path, data_dir, teacher_ckpt, 1)
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))


# --- one command's parser ----------------------------------------------------

COMMANDS = ("gen-data", "train", "distill", "eval", "quantize", "sweep")


def test_top_level_help_and_errors_list_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert "{" + ",".join(COMMANDS) + "}" in out
    assert all(f"\n    {command} " in out for command in COMMANDS)
    for argv in (["not-a-command"], [], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().err
    assert "{" + ",".join(COMMANDS) + "}" in build_parser().format_help()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_holds_that_command_alone(command, capsys):
    parser = build_parser(command)
    assert "{" + command + "}" in parser.format_help()
    other = next(c for c in COMMANDS if c != command)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([other])
    assert exc.value.code == EXIT_USAGE
    assert f"invalid choice: '{other}'" in capsys.readouterr().err


# --- teachers: f32 or f16 model checkpoints, never a trainstate --------------

def _f16_teacher(teacher_ckpt, root):
    run_quantize(teacher_ckpt, root / "quant")
    return root / "quant" / "model.f16.tdck"


def test_distill_from_an_f16_teacher_records_its_file_hash(data_dir, teacher_ckpt,
                                                           tmp_path):
    teacher = _f16_teacher(teacher_ckpt, tmp_path)
    out = tmp_path / "run"
    rc = main(["distill", "--dataset", str(data_dir), "--out", str(out),
               "--teacher", str(teacher), "--steps", "3", "--batch-size", "4",
               "--eval-episodes", "0", "--d-coef", "0.5"])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["teacher_fingerprint"] == file_hash(teacher)
    assert read_checkpoint(out / "model.tdck").metadata["teacher_fingerprint"] \
        == file_hash(teacher)
    assert (out / "losses.csv").exists()
    assert FrozenTeacher.load(teacher).refingerprint() == file_hash(teacher)


# a step that changes the half, one far below an f16 weight's resolution, and
# a NaN, which no half narrows back to
@pytest.mark.parametrize("nudge", [lambda w: w + 1.0,
                                   lambda w: np.nextafter(w, np.float32(np.inf)),
                                   lambda w: np.float32(np.nan)])
def test_write_to_an_f16_teachers_weight_is_caught(data_dir, teacher_ckpt, tmp_path,
                                                   monkeypatch, nudge):
    teacher = _f16_teacher(teacher_ckpt, tmp_path)
    step = experiments_module.distill_train_step

    def mutating_step(frozen, *args):
        # written after the step, so that a NaN reaches no loss
        breakdown = step(frozen, *args)
        weight = frozen.model.heads()["reward"].weights[0].data
        weight[0, 0] = nudge(weight[0, 0])
        return breakdown

    monkeypatch.setattr(experiments_module, "distill_train_step", mutating_step)
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "run"), seed=2,
                    teacher=str(teacher), d_coef=0.5, **{**FAST, "steps": 1})
    with pytest.raises(RuntimeError, match="frozen teacher was mutated"):
        run_training(cfg)
    # checked before model.tdck is written, so no model of a broken run is left
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["config.txt"]


def test_trainstate_teacher_is_usage_error(data_dir, teacher_ckpt, tmp_path, capsys):
    trainstate = teacher_ckpt.parent / "trainstate.tdck"
    out = tmp_path / "run"
    rc = main(["distill", "--dataset", str(data_dir), "--out", str(out),
               "--teacher", str(trainstate), "--steps", "1", "--batch-size", "4",
               "--eval-episodes", "0", "--d-coef", "0.5"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(trainstate) in err and "trainstate" in err
    assert not out.exists()
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(out), "--steps", "1",
               "--eval-episodes", "0", "--grid-teacher", f"{teacher_ckpt},{trainstate}"])
    assert rc == EXIT_USAGE
    assert str(trainstate) in capsys.readouterr().err
    assert not out.exists()


# --- the final eval ----------------------------------------------------------

# (eval_every, the steps the loop evaluates at); a run of 10 steps
@pytest.mark.parametrize("eval_every, periodic", [(1, list(range(1, 11))),
                                                  (5, [5, 10]), (4, [4, 8])])
def test_final_eval_reuses_a_periodic_eval_at_the_last_step(data_dir, tmp_path,
                                                            monkeypatch, eval_every,
                                                            periodic):
    calls = []
    evaluate = experiments_module.evaluate_model

    def counted(model, *args):
        calls.append(model)
        return evaluate(model, *args)

    monkeypatch.setattr(experiments_module, "evaluate_model", counted)
    cfg = RunConfig(dataset=str(data_dir), out=str(tmp_path / "run"), seed=3,
                    **{**FAST, "steps": 10, "eval_every": eval_every,
                       "eval_episodes": 1}, **TINY_PLAN)
    report = run_training(cfg)
    assert len(calls) == len(periodic) + (periodic[-1] != 10)
    rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
    steps = [int(row.split(",")[0]) for row in rows]
    per_eval = len(rows) // (len(periodic) + 1)
    assert steps == [s for s in periodic + [10] for _ in range(per_eval)]
    if periodic[-1] == 10:
        assert rows[-2 * per_eval:-per_eval] == rows[-per_eval:]
    # the final rows score the written model
    model = model_from_checkpoint(read_checkpoint(tmp_path / "run" / "model.tdck"))
    tasks = load_dataset(data_dir).tasks
    fresh = evaluate(model, list(tasks), 1, 3, planner_config(cfg), cfg.gamma,
                     MultiTaskSuite(tuple(tasks)))
    assert report["task_scores"] == fresh.task_scores
    assert rows[-per_eval:] == experiments_module._metrics_rows(10, fresh)


# --- one training command: a teacher alone turns distillation on -------------

def _run_in(root, monkeypatch, argv):
    """`main(argv)` in directory `root`, which it makes: a relative --out
    then records the same `out=` line in every directory."""
    root.mkdir()
    monkeypatch.chdir(root)
    assert main(argv) == EXIT_OK
    return root / "run"


def _distill_argv(command, data_dir, teacher_ckpt, *extra):
    return [command, "--dataset", str(data_dir), "--out", "run", "--seed", "61",
            "--steps", "10", "--batch-size", "8", "--log-interval", "5",
            "--eval-every", "5", "--eval-episodes", "1",
            *(arg for key, value in TINY_PLAN.items() for arg in (cli_flag(key), str(value))),
            "--teacher", str(teacher_ckpt), "--d-coef", "0.5", *extra]


def test_train_from_a_distill_runs_config_equals_that_run(data_dir, teacher_ckpt,
                                                          tmp_path, monkeypatch):
    distilled = _run_in(tmp_path / "a", monkeypatch,
                        _distill_argv("distill", data_dir, teacher_ckpt,
                                      "--mode", "latent_linear"))
    replayed = _run_in(tmp_path / "b", monkeypatch,
                       ["train", "--config", str(distilled / "config.txt"),
                        "--out", "run"])
    assert (distilled / "config.txt").read_text().splitlines()[0] == "command=distill"
    assert "latent_proj.w" in read_checkpoint(replayed / "trainstate.tdck").tensors
    _same_run(distilled, replayed)


def test_train_with_a_teacher_equals_distill(data_dir, teacher_ckpt, tmp_path,
                                             monkeypatch):
    distilled = _run_in(tmp_path / "a", monkeypatch,
                        _distill_argv("distill", data_dir, teacher_ckpt))
    trained = _run_in(tmp_path / "b", monkeypatch,
                      _distill_argv("train", data_dir, teacher_ckpt))
    report = json.loads((trained / "report.json").read_text())
    assert (report["command"], report["teacher_fingerprint"]) \
        == ("distill", file_hash(teacher_ckpt))
    _same_run(distilled, trained)


@pytest.mark.parametrize("by", ["flag", "config"])
def test_distill_without_a_teacher_is_usage_error(data_dir, tmp_path, capsys, by):
    out = tmp_path / "run"
    argv = ["distill", "--dataset", str(data_dir), "--out", str(out), "--steps", "1",
            "--batch-size", "4", "--eval-episodes", "0", "--d-coef", "0.5"]
    if by == "config":
        config = tmp_path / "run.txt"
        config.write_text("command=distill\nd_coef=0.5\nmode=latent_pca\n",
                          encoding="utf-8")
        argv = argv[:-2] + ["--config", str(config)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: distill requires --teacher")
    assert not out.exists()


def test_train_distillation_without_a_teacher_is_usage_error(data_dir, tmp_path,
                                                             capsys):
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(data_dir), "--out", str(out), "--steps", "1",
               "--batch-size", "4", "--eval-episodes", "0", "--d-coef", "0.5"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: distillation requires --teacher: --d-coef is 0.5")
    assert not out.exists()
    with pytest.raises(UsageError, match="--teacher"):
        run_training(RunConfig(dataset=str(data_dir), out=str(out), d_coef=0.5, **FAST))
    assert not out.exists()


def test_train_without_a_teacher_ignores_the_latent_settings(data_dir, tmp_path):
    argv = ["train", "--dataset", str(data_dir), "--steps", "5", "--batch-size", "8",
            "--log-interval", "5", "--eval-episodes", "0", "--seed", "62"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == EXIT_OK
    assert main(argv + ["--out", str(tmp_path / "latent"), "--mode", "latent_pca",
                        "--latent-coef", "2"]) == EXIT_OK
    # the metadata records the settings; the weights and losses are the same
    plain, latent = (read_checkpoint(tmp_path / run / "model.tdck").tensors
                     for run in ("plain", "latent"))
    assert {n: t.data.tobytes() for n, t in plain.items()} \
        == {n: t.data.tobytes() for n, t in latent.items()}
    assert (tmp_path / "plain" / "losses.csv").read_bytes() \
        == (tmp_path / "latent" / "losses.csv").read_bytes()


def test_sweep_without_a_teacher_refuses_distillation_before_any_cell(data_dir,
                                                                      tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--dataset", str(data_dir), "--out", str(out), "--steps", "1",
               "--batch-size", "4", "--eval-episodes", "0", "--grid-d-coef", "0,0.4"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: distillation requires --teacher: --d-coef is 0.4")
    assert not out.exists()


# --- a run's files as of its last loss row: a killed run resumes -------------

class _Killed(Exception):
    """Stands in for a kill between two loss rows."""


# (mode, eval_every): a periodic eval at each loss row, or no eval at all
@pytest.mark.parametrize("mode, eval_every", [
    pytest.param(mode, eval_every, id=f"{mode}{'' if eval_every else '-no-evals'}")
    for eval_every in (5, 0) for mode in (None, "reward_only", "latent_linear", "latent_pca")])
def test_a_killed_run_resumes_to_the_uninterrupted_runs_files(data_dir, teacher_ckpt,
                                                              tmp_path, mode, eval_every):
    settings = {**FAST, "eval_every": eval_every, "eval_episodes": int(eval_every > 0),
                **TINY_PLAN}
    if mode:
        settings.update(d_coef=0.5, mode=mode, teacher=str(teacher_ckpt))

    def run(name, resume=""):
        run_training(RunConfig(dataset=str(data_dir), out=str(tmp_path / name), seed=35,
                               resume=resume, **settings))

    run("full")
    name = "distill_train_step" if mode else "train_step"
    step, calls = getattr(experiments_module, name), []

    def killed_at_step_13(*args):
        calls.append(args)
        if len(calls) == 13:
            raise _Killed
        return step(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments_module, name, killed_at_step_13)
        with pytest.raises(_Killed):
            run("killed")
    killed = tmp_path / "killed"
    # the files of the loss row at step 10, and no model.tdck or report.json:
    # the run did not finish
    assert sorted(p.name for p in killed.iterdir()) == sorted(UNFINISHED_FILES)
    state = read_checkpoint(killed / "trainstate.tdck").metadata
    assert state["step"] == "10"
    assert (killed / "losses.csv").read_text().split() == state["loss_rows"].split(";")
    assert (killed / "metrics.csv").read_text().split() == state["metric_rows"].split(";")
    run("killed", str(killed / "trainstate.tdck"))
    _same_run(tmp_path / "full", killed, RESUMED_FILES)
    assert (killed / "report.json").exists()


# (eval_episodes, eval_every, log_interval, the writes of trainstate.tdck and
# losses.csv, the writes of metrics.csv); a run of 20 steps, which writes at
# each loss row before its last step and once at its end
@pytest.mark.parametrize("eval_episodes, eval_every, log_interval, state_writes, "
                         "metric_writes", [(0, 5, 5, 4, 4), (1, 0, 5, 4, 5),
                                           (1, 5, 5, 4, 5), (0, 0, 6, 4, 4)])
def test_a_run_writes_at_each_loss_row_and_its_model_at_its_end(
        data_dir, tmp_path, monkeypatch, eval_episodes, eval_every, log_interval,
        state_writes, metric_writes):
    writes = []
    real = experiments_module.write_atomic

    def counted(target, parts):
        writes.append(Path(target).name)
        return real(target, parts)

    for module in (experiments_module, checkpoint_module):
        monkeypatch.setattr(module, "write_atomic", counted)
    run_training(RunConfig(dataset=str(data_dir), out=str(tmp_path / "run"), seed=36,
                           **{**FAST, "eval_episodes": eval_episodes,
                              "eval_every": eval_every, "log_interval": log_interval},
                           **TINY_PLAN))
    assert {name: writes.count(name) for name in writes} == {
        "config.txt": 1, "model.tdck": 1, "trainstate.tdck": state_writes,
        "losses.csv": state_writes, "metrics.csv": metric_writes, "report.json": 1}
    # the end write, model.tdck first; then the final eval's rows and the report
    end = ["model.tdck", "trainstate.tdck", "losses.csv", "metrics.csv",
           *["metrics.csv"] * eval_episodes, "report.json"]
    assert writes[-len(end):] == end


def test_a_report_json_left_in_the_directory_is_removed_at_the_start(data_dir, tmp_path,
                                                                     monkeypatch):
    out = tmp_path / "run"
    run_training(RunConfig(dataset=str(data_dir), out=str(out), seed=37, **FAST))

    def diverged(*args):
        raise FloatingPointError("injected: train step diverged")

    monkeypatch.setattr(experiments_module, "train_step", diverged)
    with pytest.raises(FloatingPointError):
        run_training(RunConfig(dataset=str(data_dir), out=str(out), seed=38, **FAST))
    # the finished run's model.tdck and report.json go with its start; the
    # files it left no longer vouch for a finished run
    assert sorted(p.name for p in out.iterdir()) == sorted(UNFINISHED_FILES)


def test_resume_on_another_dataset_is_refused_before_any_write(tmp_path, capsys):
    tasks = ("pendulum-swingup", "cartpole-balance")
    for seed in (1, 2):
        generate_dataset(tmp_path / f"data{seed}", num_episodes=1, policy="random",
                         seed=seed, tasks=tasks)
    done, out = tmp_path / "done", tmp_path / "resumed"
    run_training(RunConfig(dataset=str(tmp_path / "data1"), out=str(done), seed=31,
                           **FAST))
    state = read_checkpoint(done / "trainstate.tdck").metadata
    # the dataset's file hash is in the trainstate only; model.tdck is unchanged
    assert state["dataset_sha256"] == file_hash(tmp_path / "data1" / "dataset.tdck")
    assert "dataset_sha256" not in read_checkpoint(done / "model.tdck").metadata
    rc = main(_resume_argv("train", tmp_path / "data2", out, done / "trainstate.tdck",
                           40, 31, {}))
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "is from another run: dataset_sha256" in err
    assert not out.exists()
    # a trainstate written before trainstates recorded their dataset
    old = read_checkpoint(done / "trainstate.tdck")
    del old.metadata["dataset_sha256"]
    write_checkpoint(done / "old.tdck", old)
    with pytest.raises(ResumeMismatchError, match="holds no dataset_sha256"):
        run_training(RunConfig(dataset=str(tmp_path / "data1"), out=str(out), seed=31,
                               resume=str(done / "old.tdck"), **{**FAST, "steps": 40}))
    assert not out.exists()


def test_eval_reads_its_checkpoint_once_and_reports_its_file_hash(teacher_ckpt, tmp_path,
                                                                  monkeypatch):
    reads = []
    read_bytes = Path.read_bytes

    def counted(path):
        reads.append(Path(path).name)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    report = run_eval(teacher_ckpt, tmp_path / "eval", ["pendulum-swingup"], 1, seed=0,
                      planner_cfg=planner_config(RunConfig(**TINY_PLAN)))
    assert reads == [teacher_ckpt.name]
    monkeypatch.undo()
    assert report["checkpoint_hash"] == file_hash(teacher_ckpt)
