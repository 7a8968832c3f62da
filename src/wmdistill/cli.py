"""Command-line entry point.

Subcommands: gen-data, train, distill, eval, quantize, sweep. A run
setting's flag is its RunConfig field (`--batch-size` is `batch_size`);
train, distill and sweep also read settings from a --config key=value file,
which explicit flags override. train distills when it is given a teacher;
distill is train with the teacher required. Exit codes: 0 ok, 1 runtime
failure, 2 usage or missing input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import List, Optional

from .dataset import generate_dataset
from .envs import TASKS
from .experiments import (DEFAULT_D_COEF_GRID, SCORING_SETTINGS, SETTING_TYPES,
                          RunConfig, SweepGrid, UsageError, cli_flag, planner_config,
                          read_config, run_eval, run_quantize, run_sweep, run_training)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


# (name, flag, type, help) of each RunConfig field, worked out once per process
_SETTING_FLAGS = [(f.name, cli_flag(f.name), SETTING_TYPES[f.type], f.metadata["help"])
                  for f in fields(RunConfig)]


def _add_settings(parser: argparse.ArgumentParser, names=None) -> None:
    """One flag per RunConfig field in `names` (every field when None), typed
    as the field and defaulting to None (unset)."""
    for name, flag, ftype, help_text in _SETTING_FLAGS:
        if names is None or name in names:
            parser.add_argument(flag, type=ftype, help=help_text)


def _add_scoring(parser: argparse.ArgumentParser) -> None:
    """Flags shared by eval and quantize, which score a stored checkpoint."""
    _add_settings(parser, SCORING_SETTINGS)
    parser.add_argument("--checkpoint", type=str, required=True)
    parser.add_argument("--episodes", type=int, default=10)


def _add_run(parser: argparse.ArgumentParser) -> None:
    """A training subcommand's flags: --config plus every setting."""
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file; explicit flags win")
    _add_settings(parser)


def _gen_data_flags(parser: argparse.ArgumentParser) -> None:
    _add_settings(parser, ("out", "seed"))
    parser.add_argument("--episodes-per-task", type=int, default=10)
    parser.add_argument("--policy", type=str, default="mixture",
                        help="random | scripted | mixture | trained:<checkpoint>")
    parser.add_argument("--tasks", type=str, default=",".join(TASKS),
                        help="comma-separated task list")


def _eval_flags(parser: argparse.ArgumentParser) -> None:
    _add_scoring(parser)
    parser.add_argument("--tasks", type=str, default="",
                        help="comma-separated subset; default: checkpoint metadata")


def _quantize_flags(parser: argparse.ArgumentParser) -> None:
    _add_scoring(parser)
    parser.add_argument("--eval", action="store_true",
                        help="also score float and f16 models side by side")


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_run(parser)
    parser.add_argument("--grid-d-coef", type=str, default="",
                        help=f"comma list; 'reference' = {DEFAULT_D_COEF_GRID}")
    parser.add_argument("--grid-batch-size", type=str, default="",
                        help="comma list of batch sizes")
    parser.add_argument("--grid-steps", type=str, default="",
                        help="comma list of step counts")
    parser.add_argument("--grid-teacher", type=str, default="",
                        help="comma list of teacher checkpoints ('' cell = from scratch)")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of subcommand `command` alone, or of every subcommand when
    `command` is None. Both parse that command's argv to the same Namespace;
    `main` builds one command's flags, since argparse builds a help formatter
    for every flag it adds."""
    parser = argparse.ArgumentParser(
        prog="wmdistill",
        description="world-model distillation lab: offline training, "
                    "frozen-teacher distillation, planner evaluation, fp16 "
                    "quantization and grid sweeps on toy control tasks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in COMMANDS.items():
        if command in (None, name):
            add_flags(sub.add_parser(name, help=help_text))
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < --config file (train, distill and sweep) < explicit
    flags into a RunConfig. Every command writes into --out, so it is required."""
    file_values = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file {path} does not exist")
        file_values = read_config(path)
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    cfg = RunConfig(**{**file_values, **given})
    if not cfg.out:
        raise UsageError("an output directory is required (--out)")
    return cfg


def _training_config(args: argparse.Namespace) -> RunConfig:
    """The run's RunConfig, once it names a dataset."""
    cfg = _run_config(args)
    if not cfg.dataset:
        raise UsageError("a dataset directory is required (--dataset)")
    return cfg


def _scoring_args(args: argparse.Namespace) -> dict:
    """Scoring keywords for eval and quantize, after checking their settings
    and --episodes."""
    cfg = _run_config(args)
    if args.episodes < 1:
        raise UsageError(f"--episodes must be >= 1, got {args.episodes}")
    return dict(episodes=args.episodes, seed=cfg.seed,
                planner_cfg=planner_config(cfg), gamma=cfg.gamma)


def _parse_grid_axis(raw: str, conv):
    if not raw:
        return []
    return [conv(tok) for tok in raw.split(",")]


def _cmd_gen_data(args) -> int:
    cfg = _run_config(args)
    tasks = tuple(t for t in args.tasks.split(",") if t)
    generate_dataset(cfg.out, args.episodes_per_task, args.policy, cfg.seed, tasks)
    print(f"wrote {args.episodes_per_task} episodes/task for {len(tasks)} tasks "
          f"to {cfg.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    """train and distill: one runner, which distills when the run has a
    teacher; distill refuses a run without one."""
    cfg = _training_config(args)
    if args.command == "distill" and not cfg.teacher:
        raise UsageError("distill requires --teacher")
    report = run_training(cfg)
    score = report["normalized_score"]
    shown = f"{score:.2f}" if score is not None else "n/a"
    print(f"{args.command}: {cfg.steps} steps done, normalized score {shown}, "
          f"model {report['checkpoint_hashes']['model'][:12]}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    scoring = _scoring_args(args)
    tasks = [t for t in args.tasks.split(",") if t] or None
    report = run_eval(args.checkpoint, args.out, tasks, **scoring)
    print(f"eval: normalized score {report['normalized_score']:.2f} over "
          f"{len(report['task_scores'])} tasks")
    return EXIT_OK


def _cmd_quantize(args) -> int:
    report = run_quantize(args.checkpoint, args.out, evaluate=args.eval,
                          **_scoring_args(args))
    print(report["summary"])
    if args.eval:
        print(f"float score {report['float_normalized_score']:.2f}  "
              f"f16 score {report['f16_normalized_score']:.2f}  "
              f"delta {report['score_delta']:+.3f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _training_config(args)
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
    report = run_sweep(cfg, grid, cfg.out)
    ok = sum(1 for c in report["cells"] if c["status"] == "ok")
    print(f"sweep: {ok}/{len(report['cells'])} cells ok, "
          f"table at {Path(cfg.out) / 'sweep.csv'}")
    return EXIT_OK


# subcommand -> (help, function adding its flags, function running it)
COMMANDS = {
    "gen-data": ("generate an offline dataset", _gen_data_flags, _cmd_gen_data),
    "train": ("train a model; distill when given --teacher", _add_run, _cmd_train),
    "distill": ("train with --teacher required", _add_run, _cmd_train),
    "eval": ("score a checkpoint with planner rollouts", _eval_flags, _cmd_eval),
    "quantize": ("convert a checkpoint to f16 storage", _quantize_flags, _cmd_quantize),
    "sweep": ("grid sweep over training cells", _sweep_flags, _cmd_sweep),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # anything but a known command first (--help, a typo) gets every command's
    # parser, so its usage and errors list all six
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
