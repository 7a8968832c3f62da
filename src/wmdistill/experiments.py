"""Run orchestration: training runs, which load their dataset and teacher
and then train, evaluation and quantization runs, and grid sweeps, which
load the dataset and each teacher once and share them with every cell.

Every run writes into its output directory, each file through
`checkpoint.write_atomic`, so it is replaced whole or left as it was. A
training run rewrites trainstate.tdck and the CSVs at each loss row, writes
model.tdck once at its end, and report.json last, once it is done:

    config.txt       fully-resolved key=value config (sufficient to
                     reproduce the run bit-for-bit)
    losses.csv       one row per logged step:
                     step,consistency,reward,value,distill,total
    metrics.csv      long-form plot data: step,metric,value,task
    model.tdck       the finished weights (including the target head)
    trainstate.tdck  weights + Adam moments + step counter + the loss and
                     periodic-eval metric rows so far + the run's record:
                     every setting but the paths, and the dataset's sha256
    report.json      scores, checkpoint, teacher and dataset hashes, wall
                     clock, config snapshot

--resume, and a sweep rerun for each cell, continue a trainstate only if its
record equals the run's (`steps` aside). Batches are sampled from per-step
derived rng streams, so a resumed run continues the exact batch sequence of
an uninterrupted run, and its rows continue the uninterrupted run's CSVs.
"""

from __future__ import annotations

import json
import operator
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Adam
from .checkpoint import (Checkpoint, content_hash, read_checkpoint, text_lines,
                         write_atomic, write_checkpoint)
from .dataset import Dataset, check_layout, load_dataset, sample_batch
from .distill import (MODES, FrozenTeacher, LatentProjection, distill_train_step,
                      fit_pca_projection)
from .envs import MultiTaskSuite, UsageError
from .evaluate import EvalResult, evaluate_model, normalized_score
from .planner import PlannerConfig
from .quantize import to_fp16
from .seeding import stream
from .world_model import (ACTIVATIONS, PRESETS, WorldModel, load_param,
                          make_optimizers, model_from_checkpoint, train_step)


class ResumeMismatchError(UsageError):
    """A --resume trainstate belongs to another run or dataset, or is already
    past the run's last step."""


# RunConfig field -> PlannerConfig field
_PLAN_FIELDS = (("plan_horizon", "horizon"), ("plan_samples", "num_samples"),
                ("plan_elites", "num_elites"), ("plan_iterations", "iterations"),
                ("plan_temperature", "temperature"))


def planner_config(cfg: RunConfig) -> PlannerConfig:
    """PlannerConfig from the plan_* settings of `cfg`. A value out of range
    raises UsageError naming its flag."""
    try:
        return PlannerConfig(**{attr: getattr(cfg, name) for name, attr in _PLAN_FIELDS})
    except UsageError as exc:
        message = str(exc)
        for name, attr in _PLAN_FIELDS:
            message = message.replace(attr, cli_flag(name))
        raise UsageError(message) from None


def cli_flag(name: str) -> str:
    """The command-line flag of the RunConfig setting `name`."""
    return "--" + name.replace("_", "-")


# (RunConfig field, comparison, bound) for every bounded field;
# PlannerConfig checks the plan_* ones
_BOUNDS = (("seed", ">=", 0), ("steps", ">=", 0), ("batch_size", ">=", 1),
           ("log_interval", ">=", 1), ("eval_episodes", ">=", 0), ("eval_every", ">=", 0),
           ("horizon", ">=", 1), ("rho", ">", 0), ("rho", "<=", 1),
           ("alpha_consistency", ">=", 0), ("alpha_reward", ">=", 0),
           ("alpha_value", ">=", 0), ("d_coef", ">=", 0), ("latent_coef", ">=", 0),
           ("lr", ">", 0), ("gamma", ">=", 0), ("gamma", "<=", 1), ("tau", ">=", 0),
           ("tau", "<=", 1))
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}

# a RunConfig field's annotation -> the type its flag and config value parse as
SETTING_TYPES = {"int": int, "float": float, "str": str}

# the settings eval and quantize score a stored checkpoint with
SCORING_SETTINGS = ("out", "seed", "gamma", *(name for name, _ in _PLAN_FIELDS))


def _setting(default, help_text: str):
    """A RunConfig field: its default and its flag's help."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    """Every run setting, declared once: each field is a flag and a config key."""

    dataset: str = _setting("", "dataset directory")
    out: str = _setting("", "output directory")
    seed: int = _setting(0, "master seed")
    steps: int = _setting(1000, "training steps")
    batch_size: int = _setting(256, "batch size")
    preset: str = _setting("student", "model size preset (teacher-L, teacher-S, student)")
    activation: str = _setting("mish", "mish or tanh")
    lr: float = _setting(3e-4, "Adam learning rate")
    gamma: float = _setting(0.99, "TD discount")
    tau: float = _setting(0.01, "target-head soft-update rate")
    alpha_consistency: float = _setting(1.0, "consistency loss weight")
    alpha_reward: float = _setting(1.0, "reward loss weight")
    alpha_value: float = _setting(0.5, "value loss weight")
    rho: float = _setting(0.5, "per-horizon-step decay")
    horizon: int = _setting(3, "training window length")
    d_coef: float = _setting(0.0, "distillation loss coefficient")
    mode: str = _setting("reward_only", "reward_only, latent_linear or latent_pca")
    latent_coef: float = _setting(1.0, "latent term weight inside the distill term")
    teacher: str = _setting("", "frozen teacher checkpoint")
    log_interval: int = _setting(50, "steps between loss rows")
    eval_every: int = _setting(0, "steps between periodic evals (0: final eval only)")
    eval_episodes: int = _setting(10, "episodes per task per eval")
    plan_horizon: int = _setting(PlannerConfig.horizon, "planner horizon")
    plan_samples: int = _setting(PlannerConfig.num_samples, "planner candidates")
    plan_elites: int = _setting(PlannerConfig.num_elites, "planner elites")
    plan_iterations: int = _setting(PlannerConfig.iterations, "planner iterations")
    plan_temperature: float = _setting(PlannerConfig.temperature,
                                       "planner softmax temperature")
    resume: str = _setting("", "trainstate checkpoint to resume from")

    def __post_init__(self) -> None:
        for name, op, bound in _BOUNDS:
            if not _COMPARE[op](getattr(self, name), bound):
                raise UsageError(f"{cli_flag(name)} must be {op} {bound}, "
                                 f"got {getattr(self, name)}")
        for name, known in (("preset", PRESETS), ("activation", ACTIVATIONS),
                            ("mode", MODES)):
            if getattr(self, name) not in known:
                raise UsageError(f"{cli_flag(name)} must be one of {', '.join(known)}, "
                                 f"got {getattr(self, name)!r}")
        planner_config(self)


def write_config(path, cfg: RunConfig, command: str) -> None:
    lines = [f"command={command}"]
    for key in sorted(asdict(cfg)):
        lines.append(f"{key}={getattr(cfg, key)}")
    write_atomic(path, [text_lines(lines)])


def read_config(path) -> Dict[str, object]:
    """Parse a key=value config file into RunConfig values, each of its
    field's type. A run's `command=` line is skipped: the teacher alone
    decides whether a run distills.

    A line without `=`, a key that is not a RunConfig field or that an
    earlier line gave, or a value that does not parse as the field's type
    raises UsageError naming the file, the line and the key.
    """
    values: Dict[str, object] = {}
    given_at: Dict[str, int] = {}
    types = {f.name: f.type for f in fields(RunConfig)}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key == "command":
            continue
        if key not in types:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in given_at:
            raise UsageError(f"{path}:{lineno}: config key {key!r} is given twice, "
                             f"first at line {given_at[key]}")
        given_at[key] = lineno
        try:
            values[key] = SETTING_TYPES[types[key]](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: config key {key!r} expects "
                             f"type {types[key]}, got {value!r}") from None
    return values


# the RunConfig fields model.tdck's metadata records; they hold every
# setting the update step reads
_TRAIN_KEYS = ("seed", "steps", "batch_size", "lr", "gamma", "tau",
               "alpha_consistency", "alpha_reward", "alpha_value", "rho",
               "horizon", "d_coef", "mode", "latent_coef")


def _train_metadata(cfg: RunConfig, tasks: Sequence[str],
                    teacher: Optional[FrozenTeacher]) -> Dict[str, str]:
    md = {key: str(getattr(cfg, key)) for key in _TRAIN_KEYS}
    md["tasks"] = ",".join(tasks)
    if teacher is not None and cfg.d_coef > 0:
        md["teacher_fingerprint"] = teacher.fingerprint
    return md


_DATASET_KEY = "dataset_sha256"


def _run_record(cfg: RunConfig, dataset: Dataset,
                teacher: Optional[FrozenTeacher]) -> Dict[str, str]:
    """What makes a run the same run: model.tdck's metadata, every setting
    but the paths, and the sha256 of the dataset (not in model.tdck), which
    with the teacher's fingerprint stands for the paths' content."""
    return {**_train_metadata(cfg, dataset.tasks, teacher),
            **{f.name: str(getattr(cfg, f.name)) for f in fields(RunConfig)
               if f.name not in ("dataset", "out", "teacher", "resume")},
            _DATASET_KEY: dataset.sha256}


# the key each optimizer's step counter and moments are stored under, in
# make_optimizers' order
_ADAM_KEYS = ("adam_main", "adam_policy")

# the metadata keys of a trainstate's losses.csv and metrics.csv rows so far,
# header first, joined by ";"
_ROW_KEYS = ("loss_rows", "metric_rows")


def _trainstate_checkpoint(model: WorldModel, opts: Sequence[Adam], step: int,
                           metadata: Dict[str, str],
                           rows: Sequence[List[str]]) -> Checkpoint:
    """The model checkpoint plus the run's loss and metric `rows` up to
    `step` and, per optimizer, its step counter and the moments of each
    parameter under `<key>.{m,v}.<parameter name>`; a parameter the model
    does not hold (the latent projection) is stored under its own name."""
    ckpt = model.to_checkpoint({**metadata, "step": str(step),
                                **{f"{key}_t": str(opt.t)
                                   for key, opt in zip(_ADAM_KEYS, opts)},
                                **{key: ";".join(r) for key, r in zip(_ROW_KEYS, rows)}})
    for key, opt in zip(_ADAM_KEYS, opts):
        for p, m, v in zip(opt.params, opt.m, opt.v):
            if p.name not in ckpt.tensors:
                ckpt.add_tensor(p.name, "f32", p.data)
            ckpt.add_tensor(f"{key}.m.{p.name}", "f32", m)
            ckpt.add_tensor(f"{key}.v.{p.name}", "f32", v)
    return ckpt


def _read_trainstate(cfg: RunConfig, dataset: Dataset,
                     teacher: Optional[FrozenTeacher]) -> Checkpoint:
    """The --resume trainstate, once it is known to continue this run: it
    holds a step no later than --steps and the rows so far, and its record
    equals the run's (`_run_record`), `steps` aside."""
    ckpt = read_checkpoint(cfg.resume)
    md = ckpt.metadata
    missing = [key for key in ("step", *_ROW_KEYS) if key not in md]
    if missing:
        raise ResumeMismatchError(f"{cfg.resume} is not a trainstate this version "
                                  f"resumes: it holds no {', '.join(missing)}")
    want = _run_record(cfg, dataset, teacher)
    diffs = [f"{key} {md.get(key)!r} (run: {value!r})"
             for key, value in sorted(want.items())
             if key != "steps" and md.get(key) != value]
    if diffs:
        raise ResumeMismatchError(f"trainstate {cfg.resume} is from another run: "
                                  + ", ".join(diffs))
    if int(md["step"]) > cfg.steps:
        raise ResumeMismatchError(f"trainstate {cfg.resume} is at step {md['step']}, "
                                  f"past the run's last step {cfg.steps}")
    return ckpt


def _load_trainstate(ckpt: Checkpoint, model: WorldModel, opts: Sequence[Adam]
                     ) -> Tuple[int, List[str], List[str]]:
    """Restore what `_trainstate_checkpoint` stored, the weights and moments
    in place; returns the step and the loss and metric rows."""
    held = dict(model.named_parameters())
    for p in [*held.values(), *(p for opt in opts for p in opt.params if p.name not in held)]:
        load_param(ckpt, p)
    for key, opt in zip(_ADAM_KEYS, opts):
        opt.load_state([(ckpt.get(f"{key}.m.{p.name}").as_f32(),
                         ckpt.get(f"{key}.v.{p.name}").as_f32())
                        for p in opt.params], int(ckpt.metadata[f"{key}_t"]))
    loss_rows, metric_rows = (ckpt.metadata[key].split(";") for key in _ROW_KEYS)
    return int(ckpt.metadata["step"]), loss_rows, metric_rows


def _write_run(out: Path, step: int, model: WorldModel, opts: Sequence[Adam],
               metadata: Dict[str, str], record: Dict[str, str],
               teacher: Optional[FrozenTeacher], rows, final: bool) -> Dict[str, str]:
    """Write a run's files as of `step`, after the frozen-teacher check (so a
    mutated teacher leaves no model): at the `final` step model.tdck, then
    trainstate.tdck with the run's `record` and the loss and metric `rows` so
    far, and losses.csv and metrics.csv; returns the checkpoints' hashes."""
    if teacher is not None:
        after = teacher.refingerprint()
        if after != teacher.fingerprint:
            raise RuntimeError("frozen teacher was mutated during distillation "
                               f"({teacher.fingerprint} -> {after})")
    state = _trainstate_checkpoint(model, opts, step, record, rows)
    hashes = ({"model": write_checkpoint(out / "model.tdck", model.to_checkpoint(metadata))}
              if final else {})
    hashes["trainstate"] = write_checkpoint(out / "trainstate.tdck", state)
    for name, lines in zip(("losses.csv", "metrics.csv"), rows):
        write_atomic(out / name, [text_lines(lines)])
    return hashes


def _write_report(out: Path, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    write_atomic(out / "report.json", [text.encode("utf-8")])


def _metrics_rows(step: int, result: EvalResult) -> List[str]:
    rows = [f"{step},task_score,{result.task_scores[t]},{t}"
            for t in sorted(result.task_scores)]
    rows.append(f"{step},normalized_score,{result.normalized},")
    return rows


def _training_dataset(cfg: RunConfig) -> Dataset:
    """The run's dataset, once its observations are known to have its task
    list's layout and its shortest episode to hold a training window of
    `cfg.horizon` steps."""
    dataset = load_dataset(cfg.dataset)
    if dataset.obs_dim != MultiTaskSuite(dataset.tasks).obs_dim:
        raise UsageError(f"{cfg.dataset} holds {dataset.obs_dim}-wide observations; its "
                         f"tasks {','.join(dataset.tasks)} give another layout")
    shortest = min(r.length for r in dataset.records)
    if cfg.horizon > shortest:
        raise UsageError(f"--horizon {cfg.horizon} is longer than the shortest "
                         f"episode of {cfg.dataset} ({shortest} steps)")
    return dataset


def _load_teacher(path, dataset: Dataset) -> FrozenTeacher:
    """The frozen teacher at `path`, once it is known to be a model (f32 or
    f16), not a trainstate, that reads `dataset`'s layout (else UsageError)."""
    teacher = FrozenTeacher.load(path)
    if "step" in teacher.metadata:
        raise UsageError(f"teacher {path} is a trainstate checkpoint; "
                         "give its run's model.tdck (or its f16 copy)")
    check_layout(path, teacher.metadata, dataset.tasks, dataset.obs_dim, dataset.act_dim)
    return teacher


def _check_distillation(cfg: RunConfig) -> None:
    """Distillation requires a teacher: d_coef > 0 without one is a UsageError."""
    if cfg.d_coef > 0 and not cfg.teacher:
        raise UsageError(f"distillation requires --teacher: --d-coef is {cfg.d_coef}")


def run_training(cfg: RunConfig) -> dict:
    """Load the run's dataset and its teacher, if it has one, and train: the
    run distills from a teacher and trains from scratch without one."""
    _check_distillation(cfg)
    dataset = _training_dataset(cfg)
    teacher = _load_teacher(cfg.teacher, dataset) if cfg.teacher else None
    return _train(cfg, dataset, teacher)


def _train(cfg: RunConfig, dataset: Dataset, teacher: Optional[FrozenTeacher]) -> dict:
    """The one training loop, on the run's loaded dataset and teacher (None
    trains from scratch); it writes every file of the run into `cfg.out`."""
    t0 = time.perf_counter()
    tasks = list(dataset.tasks)
    trainstate = _read_trainstate(cfg, dataset, teacher) if cfg.resume else None
    command = "distill" if teacher else "train"
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config(out / "config.txt", cfg, command)
    for name in ("report.json", "model.tdck"):  # each marks a finished run
        (out / name).unlink(missing_ok=True)

    suite = MultiTaskSuite(tuple(tasks))
    model = WorldModel(dataset.obs_dim, dataset.act_dim, cfg.preset,
                       activation=cfg.activation, seed=cfg.seed)

    # the projection carries the distill mode: none is reward_only
    projection = None
    if teacher is not None:
        if cfg.mode == "latent_linear":
            projection = LatentProjection(teacher.model.latent_dim,
                                          model.latent_dim,
                                          rng=stream(cfg.seed, "latent-proj"))
        elif cfg.mode == "latent_pca" and cfg.d_coef > 0:
            projection = fit_pca_projection(teacher, dataset,
                                            model.latent_dim, seed=cfg.seed)

    extra = projection.params() if isinstance(projection, LatentProjection) else None
    opts = make_optimizers(model, cfg.lr, extra)
    start_step = 0
    loss_rows = ["step,consistency,reward,value,distill,total"]
    metric_rows = ["step,metric,value,task"]
    if trainstate is not None:
        start_step, loss_rows, metric_rows = _load_trainstate(trainstate, model, opts)

    rows = (loss_rows, metric_rows)
    metadata = _train_metadata(cfg, tasks, teacher)
    record = _run_record(cfg, dataset, teacher)
    eval_every = cfg.eval_every if cfg.eval_episodes else 0
    final_eval: Optional[EvalResult] = None
    for step in range(start_step, cfg.steps):
        rng = stream(cfg.seed, "batch", step)
        batch = sample_batch(dataset, cfg.batch_size, cfg.horizon, rng)
        if teacher is not None:
            bd = distill_train_step(teacher, model, batch, cfg, *opts, projection)
        else:
            bd = train_step(model, batch, cfg, *opts)
        if eval_every and (step + 1) % eval_every == 0:
            res = evaluate_model(model, tasks, cfg.eval_episodes, cfg.seed,
                                 planner_config(cfg), cfg.gamma, suite)
            metric_rows.extend(_metrics_rows(step + 1, res))
            if step + 1 == cfg.steps:  # it scored the final model: the final eval
                final_eval = res
        if (step + 1) % cfg.log_interval == 0:
            loss_rows.append(f"{step + 1},{bd.consistency:.8g},{bd.reward:.8g},"
                             f"{bd.value:.8g},{bd.distill:.8g},{bd.total:.8g}")
            if step + 1 < cfg.steps:  # the end write below holds the last step
                _write_run(out, step + 1, model, opts, metadata, record, teacher, rows,
                           final=False)

    hashes = _write_run(out, cfg.steps, model, opts, metadata, record, teacher, rows,
                        final=True)
    # the final eval's rows belong to the run's end, not to the trainstate
    if cfg.eval_episodes > 0:
        if final_eval is None:
            final_eval = evaluate_model(model, tasks, cfg.eval_episodes, cfg.seed,
                                        planner_config(cfg), cfg.gamma, suite)
        metric_rows.extend(_metrics_rows(cfg.steps, final_eval))
        write_atomic(out / "metrics.csv", [text_lines(metric_rows)])

    report = {
        "command": command,
        "config": asdict(cfg),
        "steps": cfg.steps,
        "task_scores": final_eval.task_scores if final_eval else {},
        "normalized_score": final_eval.normalized if final_eval else None,
        "checkpoint_hashes": hashes,
        "teacher_fingerprint": teacher.fingerprint if teacher else None,
        _DATASET_KEY: dataset.sha256,
        "wall_clock_s": time.perf_counter() - t0,
    }
    _write_report(out, report)
    return report


def run_eval(checkpoint_path, out, tasks: Optional[Sequence[str]], episodes: int,
             seed: int, planner_cfg: Optional[PlannerConfig] = None,
             gamma: float = 0.99) -> dict:
    """Score a stored checkpoint (f32 or f16) with planner rollouts."""
    t0 = time.perf_counter()
    ckpt = read_checkpoint(checkpoint_path)
    model = model_from_checkpoint(ckpt)
    eval_tasks, suite = _eval_tasks(ckpt, tasks)
    result = evaluate_model(model, eval_tasks, episodes, seed,
                            planner_cfg, gamma, suite)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["step,metric,value,task"] + _metrics_rows(0, result)
    write_atomic(out / "metrics.csv", [text_lines(rows)])
    report = {
        "command": "eval",
        "checkpoint": str(checkpoint_path),
        "checkpoint_hash": content_hash(ckpt),
        "tasks": eval_tasks,
        "episodes": episodes,
        "seed": seed,
        **result.as_dict(),
        "wall_clock_s": time.perf_counter() - t0,
    }
    _write_report(out, report)
    return report


def _eval_tasks(ckpt: Checkpoint, requested: Optional[Sequence[str]]
                ) -> Tuple[List[str], MultiTaskSuite]:
    """The tasks to score (`requested`, else those in the checkpoint's
    metadata) and the suite whose observation layout the model was trained on."""
    meta_tasks = ckpt.metadata.get("tasks", "")
    trained = tuple(meta_tasks.split(",")) if meta_tasks else ()
    tasks = list(requested) if requested else list(trained)
    if not tasks:
        raise UsageError("no tasks given and checkpoint metadata lists none")
    if trained:
        unknown = [t for t in tasks if t not in trained]
        if unknown:
            raise UsageError(f"checkpoint was not trained on task(s) "
                             f"{', '.join(unknown)}; it knows {', '.join(trained)}")
    return tasks, MultiTaskSuite(trained or tuple(tasks))


def run_quantize(checkpoint_path, out, evaluate: bool = False,
                 episodes: int = 10, seed: int = 0,
                 planner_cfg: Optional[PlannerConfig] = None,
                 gamma: float = 0.99) -> dict:
    """Quantize a checkpoint to f16 storage; optionally score both versions."""
    t0 = time.perf_counter()
    ckpt = read_checkpoint(checkpoint_path)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt16, qreport = to_fp16(ckpt)
    f16_path = out / (Path(checkpoint_path).stem + ".f16.tdck")
    f16_hash = write_checkpoint(f16_path, ckpt16)
    write_atomic(out / "quant_report.csv", [text_lines(qreport.csv_rows())])
    report = {
        "command": "quantize",
        "checkpoint": str(checkpoint_path),
        "f16_checkpoint": str(f16_path),
        "f16_hash": f16_hash,
        "bytes_before": qreport.bytes_before,
        "bytes_after": qreport.bytes_after,
        "size_ratio": qreport.ratio,
        "overflow_count": qreport.overflow_count,
        "summary": qreport.summary(),
    }
    if evaluate:
        tasks, suite = _eval_tasks(ckpt, None)
        res32 = evaluate_model(model_from_checkpoint(ckpt), tasks, episodes,
                               seed, planner_cfg, gamma, suite)
        res16 = evaluate_model(model_from_checkpoint(ckpt16), tasks, episodes,
                               seed, planner_cfg, gamma, suite)
        report["float_normalized_score"] = res32.normalized
        report["f16_normalized_score"] = res16.normalized
        report["score_delta"] = res16.normalized - res32.normalized
        report["float_task_scores"] = res32.task_scores
        report["f16_task_scores"] = res16.task_scores
    report["wall_clock_s"] = time.perf_counter() - t0
    _write_report(out, report)
    return report


@dataclass
class SweepGrid:
    d_coefs: List[float]
    batch_sizes: List[int]
    steps_list: List[int]
    teachers: List[str]        # checkpoint paths; "" means from scratch


DEFAULT_D_COEF_GRID = (0.05, 0.25, 0.4, 0.55, 0.6, 0.9)


def run_sweep(base: RunConfig, grid: SweepGrid, out) -> dict:
    """One training run per grid cell; sweep.csv, sorted by score, is rewritten
    after each cell, and a rerun into `out` finishes the sweep (`_run_cell`)."""
    if not (grid.d_coefs or grid.batch_sizes or grid.steps_list or grid.teachers):
        raise UsageError("sweep grid is empty: give at least one --grid-* axis")
    t0 = time.perf_counter()
    out = Path(out)

    d_axis = grid.d_coefs or [base.d_coef]
    b_axis = grid.batch_sizes or [base.batch_size]
    s_axis = grid.steps_list or [base.steps]
    t_axis = grid.teachers or [base.teacher]

    # no cell varies the dataset or the horizon; each teacher is loaded and
    # checked once, and the cells share them
    dataset = _training_dataset(base)
    teachers = {path: _load_teacher(path, dataset) for path in dict.fromkeys(t_axis) if path}
    labels = {"": "none", **{path: teacher.metadata.get("preset", Path(path).stem)
                             for path, teacher in teachers.items()}}
    # every cell's config is built, and so checked, before the first cell runs
    cells = [replace(base, d_coef=d, batch_size=b, steps=s, teacher=t, resume="",
                     out=str(out / f"cell{i:03d}_d{d}_b{b}_s{s}_{labels[t]}"))
             for i, (d, b, s, t) in enumerate(product(d_axis, b_axis, s_axis, t_axis))]
    for cfg in cells:
        _check_distillation(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").unlink(missing_ok=True)  # it marks a finished sweep

    def sort_key(row):
        score = row["score"] if row["score"] is not None else -np.inf
        return (-score, str(row["d_coef"]), str(row["batch_size"]),
                str(row["steps"]), row["teacher"])

    rows = []
    for cfg in cells:
        cell_out = Path(cfg.out)
        error = None
        try:
            report = _run_cell(cfg, dataset, teachers.get(cfg.teacher))
            (cell_out / "error.txt").unlink(missing_ok=True)
            score = report["normalized_score"]
            status = "ok"
        except Exception as exc:  # cell failures are recorded, sweep continues
            score, status, error = None, f"error:{type(exc).__name__}", str(exc)
            cell_out.mkdir(parents=True, exist_ok=True)
            write_atomic(cell_out / "error.txt",
                         [traceback.format_exc().encode("utf-8")])
        rows.append({"score": score, "status": status, "error": error,
                     "d_coef": cfg.d_coef, "batch_size": cfg.batch_size,
                     "steps": cfg.steps, "teacher": labels[cfg.teacher],
                     "out_dir": cfg.out})
        rows.sort(key=sort_key)
        csv_lines = ["score,status,d_coef,batch_size,steps,teacher,out_dir"]
        for r in rows:
            score = "" if r["score"] is None else f"{r['score']:.6g}"
            csv_lines.append(f"{score},{r['status']},{r['d_coef']},{r['batch_size']},"
                             f"{r['steps']},{r['teacher']},{r['out_dir']}")
        write_atomic(out / "sweep.csv", [text_lines(csv_lines)])

    report = {
        "command": "sweep",
        "cells": rows,
        "wall_clock_s": time.perf_counter() - t0,
    }
    _write_report(out, report)
    return report


def _run_cell(cfg: RunConfig, dataset: Dataset, teacher: Optional[FrozenTeacher]) -> dict:
    """A sweep cell's report. A trainstate.tdck in the cell's directory goes
    through --resume's checks: at --steps, next to a report.json from the same
    teacher, that report is the cell's; otherwise the cell resumes from it.
    Without one the cell trains."""
    cell_out = Path(cfg.out)
    if (cell_out / "trainstate.tdck").exists():
        cfg = replace(cfg, resume=str(cell_out / "trainstate.tdck"))
        at_end = _read_trainstate(cfg, dataset, teacher).metadata["step"] == str(cfg.steps)
        if at_end and (cell_out / "report.json").exists():
            report = json.loads((cell_out / "report.json").read_text(encoding="utf-8"))
            if report["teacher_fingerprint"] == (teacher and teacher.fingerprint):
                return report
    return _train(cfg, dataset, teacher)
