"""Run orchestration: training/distillation loops, evaluation runs,
quantization runs and grid sweeps, all with reproducible outputs.

Every run writes into its output directory:

    config.txt       fully-resolved key=value config (sufficient to
                     reproduce the run bit-for-bit)
    losses.csv       one row per logged step:
                     step,consistency,reward,value,distill,total
    metrics.csv      long-form plot data: step,metric,value,task
    model.tdck       final weights (including the target head)
    trainstate.tdck  weights + Adam moments + step counter, for resume
    report.json      scores, checkpoint hashes, wall clock, config snapshot

Batches are sampled from per-step derived rng streams, so resuming from a
trainstate checkpoint continues the exact batch sequence of an
uninterrupted run.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Adam
from .checkpoint import (Checkpoint, read_checkpoint, write_atomic,
                         write_checkpoint)
from .dataset import load_dataset, sample_batch
from .distill import (DistillConfig, FrozenTeacher, LatentProjection,
                      distill_train_step, fit_pca_projection)
from .envs import MultiTaskSuite
from .evaluate import EvalResult, evaluate_model, normalized_score
from .planner import PlannerConfig
from .quantize import to_fp16
from .seeding import stream
from .world_model import (LossCoeffs, TrainHyper, WorldModel,
                          make_optimizers, model_from_checkpoint, train_step)


class UsageError(Exception):
    """A run was asked for with bad input: the CLI exits 2 on it."""


class ResumeMismatchError(UsageError):
    """A --resume trainstate belongs to another run, or is already at or past
    the run's last step."""


# RunConfig field / CLI dest -> PlannerConfig field
_PLAN_FIELDS = (("plan_horizon", "horizon"), ("plan_samples", "num_samples"),
                ("plan_elites", "num_elites"), ("plan_iterations", "iterations"),
                ("plan_temperature", "temperature"))


def planner_config(values) -> PlannerConfig:
    """PlannerConfig from the plan_* attributes of `values` (a RunConfig or
    parsed CLI flags); an attribute that is None keeps PlannerConfig's default."""
    chosen = {field: getattr(values, name) for name, field in _PLAN_FIELDS}
    return PlannerConfig(**{k: v for k, v in chosen.items() if v is not None})


@dataclass
class RunConfig:
    dataset: str = ""
    out: str = ""
    seed: int = 0
    steps: int = 1000
    batch_size: int = 256
    preset: str = "student"
    activation: str = "mish"
    lr: float = 3e-4
    gamma: float = 0.99
    tau: float = 0.01
    alpha_consistency: float = 1.0
    alpha_reward: float = 1.0
    alpha_value: float = 0.5
    rho: float = 0.5
    horizon: int = 3
    d_coef: float = 0.0
    mode: str = "reward_only"
    latent_coef: float = 1.0
    teacher: str = ""
    log_interval: int = 50
    eval_every: int = -1          # -1: every 10% of steps; 0: disabled
    eval_episodes: int = 10
    plan_horizon: int = PlannerConfig.horizon
    plan_samples: int = PlannerConfig.num_samples
    plan_elites: int = PlannerConfig.num_elites
    plan_iterations: int = PlannerConfig.iterations
    plan_temperature: float = PlannerConfig.temperature
    resume: str = ""

    def coeffs(self) -> LossCoeffs:
        return LossCoeffs(self.alpha_consistency, self.alpha_reward,
                          self.alpha_value, self.rho, self.horizon)

    def hyper(self) -> TrainHyper:
        return TrainHyper(self.lr, self.gamma, self.tau)


def write_config(path, cfg: RunConfig, command: str) -> None:
    lines = [f"command={command}"]
    for key in sorted(asdict(cfg)):
        lines.append(f"{key}={getattr(cfg, key)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config(path) -> Tuple[Dict[str, str], Optional[str]]:
    """Parse a key=value config file; returns (values, command-if-present).

    A line without `=`, a key that is not a RunConfig field or a value that
    does not parse as the field's type raises UsageError naming the file,
    the line and the key.
    """
    values: Dict[str, str] = {}
    command = None
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
            command = value
            continue
        if key not in types:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            _convert(types[key], value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: config key {key!r} expects "
                             f"type {types[key]}, got {value!r}") from None
        values[key] = value
    return values, command


def _convert(type_name, raw: str):
    if type_name in (int, "int"):
        return int(raw)
    if type_name in (float, "float"):
        return float(raw)
    return raw


def config_from_values(values: Dict[str, str]) -> RunConfig:
    kwargs = {}
    for f in fields(RunConfig):
        if f.name in values:
            kwargs[f.name] = _convert(f.type, values[f.name])
    return RunConfig(**kwargs)


def _train_metadata(cfg: RunConfig, tasks: Sequence[str],
                    teacher: Optional[FrozenTeacher]) -> Dict[str, str]:
    md = {
        "seed": str(cfg.seed),
        "steps": str(cfg.steps),
        "batch_size": str(cfg.batch_size),
        "lr": repr(cfg.lr),
        "gamma": repr(cfg.gamma),
        "tau": repr(cfg.tau),
        "alpha_consistency": repr(cfg.alpha_consistency),
        "alpha_reward": repr(cfg.alpha_reward),
        "alpha_value": repr(cfg.alpha_value),
        "rho": repr(cfg.rho),
        "horizon": str(cfg.horizon),
        "d_coef": repr(cfg.d_coef),
        "mode": cfg.mode,
        "latent_coef": repr(cfg.latent_coef),
        "tasks": ",".join(tasks),
    }
    if teacher is not None and cfg.d_coef > 0:
        md["teacher_fingerprint"] = teacher.fingerprint
    return md


def _named_main_params(model: WorldModel,
                       projection: Optional[LatentProjection]
                       ) -> List[Tuple[str, object]]:
    named = []
    for head in ("encoder", "dynamics", "reward", "value"):
        named.extend(getattr(model, head).named_params(head))
    if projection is not None:
        named.append(("latent_proj.w", projection.w))
    return named


def _trainstate_checkpoint(model: WorldModel, projection, opt_main: Adam,
                           opt_policy: Adam, step: int,
                           metadata: Dict[str, str]) -> Checkpoint:
    ckpt = model.to_checkpoint({**metadata,
                                "step": str(step),
                                "adam_main_t": str(opt_main.t),
                                "adam_policy_t": str(opt_policy.t)})
    if projection is not None:
        ckpt.add_tensor("latent_proj.w", "f32", projection.w.data)
    for (name, _), m, v in zip(_named_main_params(model, projection),
                               opt_main.m, opt_main.v):
        ckpt.add_tensor(f"adam_main.m.{name}", "f32", m)
        ckpt.add_tensor(f"adam_main.v.{name}", "f32", v)
    for (name, _), m, v in zip(model.policy.named_params("policy"),
                               opt_policy.m, opt_policy.v):
        ckpt.add_tensor(f"adam_policy.m.{name}", "f32", m)
        ckpt.add_tensor(f"adam_policy.v.{name}", "f32", v)
    return ckpt


# trainstate metadata that must equal the resuming run's
_RESUME_KEYS = ("seed", "batch_size", "horizon", "mode", "d_coef", "tasks")


def _read_trainstate(cfg: RunConfig, tasks: Sequence[str]) -> Checkpoint:
    """The --resume trainstate, once it is known to continue this run."""
    ckpt = read_checkpoint(cfg.resume)
    md = ckpt.metadata
    if "step" not in md:
        raise ResumeMismatchError(f"{cfg.resume} is not a trainstate checkpoint")
    want = _train_metadata(cfg, tasks, None)
    diffs = [f"{key} {md.get(key)!r} (run: {want[key]!r})"
             for key in _RESUME_KEYS if md.get(key) != want[key]]
    if diffs:
        raise ResumeMismatchError(f"trainstate {cfg.resume} is from another run: "
                                  + ", ".join(diffs))
    if int(md["step"]) >= cfg.steps:
        raise ResumeMismatchError(f"trainstate {cfg.resume} is at step {md['step']}, "
                                  f"not before the run's last step {cfg.steps}")
    return ckpt


def _load_trainstate(ckpt: Checkpoint, model: WorldModel, projection,
                     opt_main: Adam, opt_policy: Adam) -> int:
    model.load_tensors(ckpt)
    if projection is not None:
        projection.w.data[...] = ckpt.get("latent_proj.w").as_f32()
    main_named = _named_main_params(model, projection)
    opt_main.load_state(
        [(ckpt.get(f"adam_main.m.{n}").as_f32(), ckpt.get(f"adam_main.v.{n}").as_f32())
         for n, _ in main_named],
        int(ckpt.metadata["adam_main_t"]))
    pol_named = model.policy.named_params("policy")
    opt_policy.load_state(
        [(ckpt.get(f"adam_policy.m.{n}").as_f32(), ckpt.get(f"adam_policy.v.{n}").as_f32())
         for n, _ in pol_named],
        int(ckpt.metadata["adam_policy_t"]))
    return int(ckpt.metadata["step"])


def _write_report(out: Path, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    write_atomic(out / "report.json", [text.encode("utf-8")])


def _metrics_rows(step: int, result: EvalResult) -> List[str]:
    rows = [f"{step},task_score,{result.task_scores[t]},{t}"
            for t in sorted(result.task_scores)]
    rows.append(f"{step},normalized_score,{result.normalized},")
    return rows


def run_training(cfg: RunConfig, command: str = "train") -> dict:
    """Shared from-scratch / distillation training loop."""
    t0 = time.perf_counter()
    dataset = load_dataset(cfg.dataset)
    tasks = list(dataset.tasks)
    trainstate = _read_trainstate(cfg, tasks) if cfg.resume else None
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config(out / "config.txt", cfg, command)

    suite = MultiTaskSuite(tuple(tasks))
    coeffs, hyper = cfg.coeffs(), cfg.hyper()

    model = WorldModel(dataset.obs_dim, dataset.act_dim, cfg.preset,
                       activation=cfg.activation, seed=cfg.seed)

    teacher: Optional[FrozenTeacher] = None
    projection = None
    dcfg = None
    if command == "distill":
        if not cfg.teacher:
            raise FileNotFoundError("distillation requires a teacher checkpoint")
        teacher = FrozenTeacher.load(cfg.teacher)
        dcfg = DistillConfig(cfg.d_coef, cfg.mode, cfg.teacher, cfg.latent_coef)
        if cfg.mode == "latent_linear":
            projection = LatentProjection(teacher.model.latent_dim,
                                          model.latent_dim,
                                          rng=stream(cfg.seed, "latent-proj"))
        elif cfg.mode == "latent_pca" and cfg.d_coef > 0:
            projection = fit_pca_projection(teacher, dataset,
                                            model.latent_dim, seed=cfg.seed)

    extra = projection.params() if isinstance(projection, LatentProjection) else None
    opt_main, opt_policy = make_optimizers(model, hyper, extra)

    start_step = 0
    if trainstate is not None:
        lin_proj = projection if isinstance(projection, LatentProjection) else None
        start_step = _load_trainstate(trainstate, model, lin_proj,
                                      opt_main, opt_policy)

    eval_every = cfg.eval_every
    if eval_every < 0:
        eval_every = cfg.steps // 10 if cfg.steps >= 10 else 0

    loss_rows = ["step,consistency,reward,value,distill,total"]
    metric_rows = ["step,metric,value,task"]
    for step in range(start_step, cfg.steps):
        rng = stream(cfg.seed, "batch", step)
        batch = sample_batch(dataset, cfg.batch_size, cfg.horizon, rng)
        if teacher is not None:
            bd = distill_train_step(teacher, model, batch, coeffs, dcfg, hyper,
                                    opt_main, opt_policy, projection, step=step)
        else:
            bd = train_step(model, batch, coeffs, hyper, opt_main, opt_policy,
                            step=step)
        if (step + 1) % cfg.log_interval == 0:
            loss_rows.append(f"{step + 1},{bd.consistency:.8g},{bd.reward:.8g},"
                             f"{bd.value:.8g},{bd.distill:.8g},{bd.total:.8g}")
        if eval_every and (step + 1) % eval_every == 0 and cfg.eval_episodes > 0:
            res = evaluate_model(model, tasks, cfg.eval_episodes, cfg.seed,
                                 planner_config(cfg), cfg.gamma, suite)
            metric_rows.extend(_metrics_rows(step + 1, res))

    metadata = _train_metadata(cfg, tasks, teacher)
    model_hash = write_checkpoint(out / "model.tdck", model.to_checkpoint(metadata))
    lin_proj = projection if isinstance(projection, LatentProjection) else None
    state_hash = write_checkpoint(
        out / "trainstate.tdck",
        _trainstate_checkpoint(model, lin_proj, opt_main, opt_policy,
                               cfg.steps, metadata))

    final_eval = None
    if cfg.eval_episodes > 0:
        final_eval = evaluate_model(model, tasks, cfg.eval_episodes, cfg.seed,
                                    planner_config(cfg), cfg.gamma, suite)
        metric_rows.extend(_metrics_rows(cfg.steps, final_eval))

    if teacher is not None:
        after = teacher.refingerprint()
        if after != teacher.fingerprint:
            raise RuntimeError("frozen teacher was mutated during distillation "
                               f"({teacher.fingerprint} -> {after})")

    (out / "losses.csv").write_text("\n".join(loss_rows) + "\n", encoding="utf-8")
    (out / "metrics.csv").write_text("\n".join(metric_rows) + "\n", encoding="utf-8")

    report = {
        "command": command,
        "config": asdict(cfg),
        "steps": cfg.steps,
        "task_scores": final_eval.task_scores if final_eval else {},
        "normalized_score": final_eval.normalized if final_eval else None,
        "checkpoint_hashes": {"model": model_hash, "trainstate": state_hash},
        "teacher_fingerprint": teacher.fingerprint if teacher else None,
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
    (out / "metrics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = {
        "command": "eval",
        "checkpoint": str(checkpoint_path),
        "checkpoint_hash": _hash_of(checkpoint_path),
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
        raise ValueError("no tasks given and checkpoint metadata lists none")
    if trained:
        unknown = [t for t in tasks if t not in trained]
        if unknown:
            raise UsageError(f"checkpoint was not trained on task(s) "
                             f"{', '.join(unknown)}; it knows {', '.join(trained)}")
    return tasks, MultiTaskSuite(trained or tuple(tasks))


def _hash_of(path) -> str:
    from .checkpoint import file_hash
    return file_hash(path)


def run_quantize(checkpoint_path, out, evaluate: bool = False,
                 episodes: int = 10, seed: int = 0,
                 planner_cfg: Optional[PlannerConfig] = None,
                 gamma: float = 0.99) -> dict:
    """Quantize a checkpoint to f16 storage; optionally score both versions."""
    t0 = time.perf_counter()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = read_checkpoint(checkpoint_path)
    ckpt16, qreport = to_fp16(ckpt)
    f16_path = out / (Path(checkpoint_path).stem + ".f16.tdck")
    f16_hash = write_checkpoint(f16_path, ckpt16)
    (out / "quant_report.csv").write_text("\n".join(qreport.csv_rows()) + "\n",
                                          encoding="utf-8")
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

    def is_empty(self) -> bool:
        return not (self.d_coefs or self.batch_sizes or self.steps_list
                    or self.teachers)


DEFAULT_D_COEF_GRID = (0.05, 0.25, 0.4, 0.55, 0.6, 0.9)


def run_sweep(base: RunConfig, grid: SweepGrid, out) -> dict:
    """One training run per grid cell; aggregated CSV sorted by score."""
    if grid.is_empty():
        raise ValueError("sweep grid is empty: give at least one axis")
    t0 = time.perf_counter()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    d_axis = grid.d_coefs or [base.d_coef]
    b_axis = grid.batch_sizes or [base.batch_size]
    s_axis = grid.steps_list or [base.steps]
    t_axis = grid.teachers or [base.teacher]

    def teacher_label(path: str) -> str:
        if not path:
            return "none"
        try:
            return read_checkpoint(path).metadata.get("preset", Path(path).stem)
        except Exception:
            return Path(path).stem

    cells = list(product(d_axis, b_axis, s_axis, t_axis))
    rows = []
    for i, (d_coef, batch, steps, teacher) in enumerate(cells):
        label = teacher_label(teacher)
        cell_out = out / f"cell{i:03d}_d{d_coef}_b{batch}_s{steps}_{label}"
        cfg = replace(base, d_coef=d_coef, batch_size=batch, steps=steps,
                      teacher=teacher, out=str(cell_out), resume="")
        command = "distill" if teacher else "train"
        error = None
        try:
            report = run_training(cfg, command=command)
            score = report["normalized_score"]
            status = "ok"
        except Exception as exc:  # cell failures are recorded, sweep continues
            score, status, error = None, f"error:{type(exc).__name__}", str(exc)
            cell_out.mkdir(parents=True, exist_ok=True)
            (cell_out / "error.txt").write_text(traceback.format_exc(),
                                                encoding="utf-8")
        rows.append({"score": score, "status": status, "error": error,
                     "d_coef": d_coef, "batch_size": batch, "steps": steps,
                     "teacher": label, "out_dir": str(cell_out)})

    def sort_key(row):
        score = row["score"] if row["score"] is not None else -np.inf
        return (-score, str(row["d_coef"]), str(row["batch_size"]),
                str(row["steps"]), row["teacher"])

    rows.sort(key=sort_key)
    csv_lines = ["score,status,d_coef,batch_size,steps,teacher,out_dir"]
    for r in rows:
        score = "" if r["score"] is None else f"{r['score']:.6g}"
        csv_lines.append(f"{score},{r['status']},{r['d_coef']},{r['batch_size']},"
                         f"{r['steps']},{r['teacher']},{r['out_dir']}")
    (out / "sweep.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    report = {
        "command": "sweep",
        "cells": rows,
        "wall_clock_s": time.perf_counter() - t0,
    }
    _write_report(out, report)
    return report
