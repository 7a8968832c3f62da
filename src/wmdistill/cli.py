"""Command-line entry point.

Subcommands: gen-data, train, distill, eval, quantize, sweep.
Common flags: --config PATH (key=value file, overridden by explicit flags),
--seed, --out. Exit codes: 0 ok, 1 runtime failure, 2 usage or missing
input. WM_DISTILL_THREADS caps evaluation parallelism.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional

from .dataset import generate_dataset
from .envs import TASKS
from .experiments import (DEFAULT_D_COEF_GRID, RunConfig, SweepGrid,
                          read_config, run_eval, run_quantize, run_sweep,
                          run_training)
from .planner import PlannerConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file; explicit flags win")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", type=str, help="output directory")


_TRAIN_FLAGS = [
    ("--dataset", str, "dataset directory"),
    ("--steps", int, "training steps"),
    ("--batch-size", int, "batch size"),
    ("--preset", str, "model size preset (teacher-L, teacher-S, student)"),
    ("--activation", str, "mish or tanh"),
    ("--lr", float, "Adam learning rate"),
    ("--gamma", float, "TD discount"),
    ("--tau", float, "target-head soft-update rate"),
    ("--alpha-consistency", float, "consistency loss weight"),
    ("--alpha-reward", float, "reward loss weight"),
    ("--alpha-value", float, "value loss weight"),
    ("--rho", float, "per-horizon-step decay"),
    ("--horizon", int, "training window length"),
    ("--log-interval", int, "steps between loss rows"),
    ("--eval-every", int, "steps between periodic evals (0 disables, -1 auto)"),
    ("--eval-episodes", int, "episodes per task per eval"),
    ("--plan-horizon", int, "planner horizon"),
    ("--plan-samples", int, "planner candidates"),
    ("--plan-elites", int, "planner elites"),
    ("--plan-iterations", int, "planner iterations"),
    ("--plan-temperature", float, "planner softmax temperature"),
    ("--resume", str, "trainstate checkpoint to resume from"),
]

_DISTILL_FLAGS = [
    ("--teacher", str, "frozen teacher checkpoint"),
    ("--d-coef", float, "distillation loss coefficient"),
    ("--mode", str, "reward_only, latent_linear or latent_pca"),
    ("--latent-coef", float, "latent term weight inside the distill term"),
]


def _add_flags(parser, flags) -> None:
    for flag, ftype, help_text in flags:
        parser.add_argument(flag, type=ftype, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmdistill",
        description="world-model distillation lab: offline training, "
                    "frozen-teacher distillation, planner evaluation, fp16 "
                    "quantization and grid sweeps on toy control tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate an offline dataset")
    _add_common(p)
    p.add_argument("--episodes-per-task", type=int, default=10)
    p.add_argument("--policy", type=str, default="mixture",
                   help="random | scripted | mixture | trained:<checkpoint>")
    p.add_argument("--tasks", type=str, default=",".join(TASKS),
                   help="comma-separated task list")

    p = sub.add_parser("train", help="train a model from scratch")
    _add_common(p)
    _add_flags(p, _TRAIN_FLAGS)

    p = sub.add_parser("distill", help="distill from a frozen teacher")
    _add_common(p)
    _add_flags(p, _TRAIN_FLAGS)
    _add_flags(p, _DISTILL_FLAGS)

    p = sub.add_parser("eval", help="score a checkpoint with planner rollouts")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--tasks", type=str, default="",
                   help="comma-separated subset; default: checkpoint metadata")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--plan-horizon", type=int, default=6)
    p.add_argument("--plan-samples", type=int, default=128)
    p.add_argument("--plan-elites", type=int, default=10)
    p.add_argument("--plan-iterations", type=int, default=4)
    p.add_argument("--plan-temperature", type=float, default=0.5)

    p = sub.add_parser("quantize", help="convert a checkpoint to f16 storage")
    _add_common(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--eval", action="store_true",
                   help="also score float and f16 models side by side")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--plan-horizon", type=int, default=6)
    p.add_argument("--plan-samples", type=int, default=128)
    p.add_argument("--plan-elites", type=int, default=10)
    p.add_argument("--plan-iterations", type=int, default=4)
    p.add_argument("--plan-temperature", type=float, default=0.5)

    p = sub.add_parser("sweep", help="grid sweep over training cells")
    _add_common(p)
    _add_flags(p, _TRAIN_FLAGS)
    _add_flags(p, _DISTILL_FLAGS)
    p.add_argument("--grid-d-coef", type=str, default="",
                   help=f"comma list; 'reference' = {DEFAULT_D_COEF_GRID}")
    p.add_argument("--grid-batch-size", type=str, default="",
                   help="comma list of batch sizes")
    p.add_argument("--grid-steps", type=str, default="",
                   help="comma list of step counts")
    p.add_argument("--grid-teacher", type=str, default="",
                   help="comma list of teacher checkpoints ('' cell = from scratch)")
    return parser


def _resolved_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit CLI flags into a RunConfig."""
    values = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        file_values, _ = read_config(path)
        values.update(file_values)
    for f in fields(RunConfig):
        arg_val = getattr(args, f.name, None)
        if arg_val is not None:
            values[f.name] = str(arg_val)
    from .experiments import config_from_values
    cfg = config_from_values(values)
    if not cfg.dataset:
        raise UsageError("a dataset directory is required (--dataset)")
    if not cfg.out:
        raise UsageError("an output directory is required (--out)")
    if not Path(cfg.dataset).exists():
        raise UsageError(f"dataset directory {cfg.dataset} does not exist")
    if cfg.resume and not Path(cfg.resume).exists():
        raise UsageError(f"resume checkpoint {cfg.resume} does not exist")
    return cfg


def _planner_from_args(args: argparse.Namespace) -> PlannerConfig:
    return PlannerConfig(horizon=args.plan_horizon,
                         num_samples=args.plan_samples,
                         num_elites=args.plan_elites,
                         iterations=args.plan_iterations,
                         temperature=args.plan_temperature)


def _parse_grid_axis(raw: str, conv):
    if not raw:
        return []
    return [conv(tok) for tok in raw.split(",")]


def _cmd_gen_data(args) -> int:
    if not args.out:
        raise UsageError("an output directory is required (--out)")
    tasks = tuple(t for t in args.tasks.split(",") if t)
    generate_dataset(args.out, args.episodes_per_task, args.policy,
                     args.seed or 0, tasks)
    print(f"wrote {args.episodes_per_task} episodes/task for {len(tasks)} tasks "
          f"to {args.out}")
    return EXIT_OK


def _cmd_train(args, command: str) -> int:
    cfg = _resolved_run_config(args)
    if command == "distill":
        if not cfg.teacher:
            raise UsageError("distillation requires --teacher")
        if not Path(cfg.teacher).exists():
            raise UsageError(f"teacher checkpoint {cfg.teacher} does not exist")
    report = run_training(cfg, command=command)
    score = report["normalized_score"]
    shown = f"{score:.2f}" if score is not None else "n/a"
    print(f"{command}: {cfg.steps} steps done, normalized score {shown}, "
          f"model {report['checkpoint_hashes']['model'][:12]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if not args.out:
        raise UsageError("an output directory is required (--out)")
    if not Path(args.checkpoint).exists():
        raise UsageError(f"checkpoint {args.checkpoint} does not exist")
    tasks = [t for t in args.tasks.split(",") if t] or None
    report = run_eval(args.checkpoint, args.out, tasks, args.episodes,
                      args.seed or 0, _planner_from_args(args), args.gamma)
    print(f"eval: normalized score {report['normalized_score']:.2f} over "
          f"{len(report['task_scores'])} tasks")
    return EXIT_OK


def _cmd_quantize(args) -> int:
    if not args.out:
        raise UsageError("an output directory is required (--out)")
    if not Path(args.checkpoint).exists():
        raise UsageError(f"checkpoint {args.checkpoint} does not exist")
    report = run_quantize(args.checkpoint, args.out, evaluate=args.eval,
                          episodes=args.episodes, seed=args.seed or 0,
                          planner_cfg=_planner_from_args(args),
                          gamma=args.gamma)
    print(report["summary"])
    if args.eval:
        print(f"float score {report['float_normalized_score']:.2f}  "
              f"f16 score {report['f16_normalized_score']:.2f}  "
              f"delta {report['score_delta']:+.3f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _resolved_run_config(args)
    d_raw = args.grid_d_coef
    if d_raw == "reference":
        d_axis = list(DEFAULT_D_COEF_GRID)
    else:
        d_axis = _parse_grid_axis(d_raw, float)
    grid = SweepGrid(
        d_coefs=d_axis,
        batch_sizes=_parse_grid_axis(args.grid_batch_size, int),
        steps_list=_parse_grid_axis(args.grid_steps, int),
        teachers=_parse_grid_axis(args.grid_teacher, str),
    )
    if grid.is_empty():
        raise UsageError("sweep grid is empty: give at least one --grid-* axis")
    report = run_sweep(cfg, grid, cfg.out)
    ok = sum(1 for c in report["cells"] if c["status"] == "ok")
    print(f"sweep: {ok}/{len(report['cells'])} cells ok, "
          f"table at {Path(cfg.out) / 'sweep.csv'}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command in ("train", "distill"):
            return _cmd_train(args, args.command)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "quantize":
            return _cmd_quantize(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
