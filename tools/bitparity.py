"""Check that two checkouts of wmdistill give bit-identical results.

    python3 tools/bitparity.py PARENT CHANGE [--seed N] [--batch-size B]

For each checkout, in a fresh interpreter with OPENBLAS_NUM_THREADS=1 and
the package imported from that checkout's src/, it runs at a fixed seed:

    gen-data   mixture policy, 40 episodes per task
    train      teacher-L, batch 16 (or B)
    distill    student, batch 32 (or B), against that teacher, in the
               reward_only, latent_linear and latent_pca modes
    quantize   the reward_only student to f16
    eval       the f16 student, one episode per task

and compares the dataset bytes, the model.tdck and trainstate.tdck hashes
and losses.csv of every training run, the f16 checkpoint hash and the f16
task scores. It prints one line per item and, last, one JSON object with
every value of both sides. Exit status 0 when everything agrees, 1 when
anything differs, 2 when a command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_FLAGS = ["--horizon", "3", "--log-interval", "10", "--eval-episodes", "0",
               "--eval-every", "0"]
MODES = ("reward_only", "latent_linear", "latent_pca")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_checkout(root: Path, work: Path, seed: int, batch: int | None) -> dict:
    """Every compared value of one checkout, keyed by item name."""
    env = {k: v for k, v in os.environ.items() if k != "WM_DISTILL_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root.resolve() / "src"))

    def cli(*args: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "wmdistill", *args], env=env,
                              cwd=work, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{root}: wmdistill {' '.join(args)} exited "
                               f"{proc.returncode}\n{proc.stderr}")

    def training(name: str) -> dict:
        out = work / name
        hashes = json.loads((out / "report.json").read_text())["checkpoint_hashes"]
        return {f"{name}.model": hashes["model"],
                f"{name}.trainstate": hashes["trainstate"],
                f"{name}.losses_csv": _sha256(out / "losses.csv")}

    s = str(seed)
    cli("gen-data", "--out", "data", "--episodes-per-task", "40",
        "--policy", "mixture", "--seed", s)
    values = {"dataset": _dir_hash(work / "data")}
    cli("train", "--dataset", "data", "--out", "teacher", "--preset", "teacher-L",
        "--steps", "60", "--batch-size", str(batch or 16), "--seed", s, *TRAIN_FLAGS)
    values.update(training("teacher"))
    for mode in MODES:
        cli("distill", "--dataset", "data", "--out", mode,
            "--teacher", "teacher/model.tdck", "--preset", "student", "--steps", "60",
            "--batch-size", str(batch or 32), "--d-coef", "0.5", "--mode", mode, "--seed", s,
            *TRAIN_FLAGS)
        values.update(training(mode))
    cli("quantize", "--checkpoint", "reward_only/model.tdck", "--out", "quant",
        "--seed", s)
    values["f16.hash"] = json.loads((work / "quant" / "report.json").read_text())["f16_hash"]
    cli("eval", "--checkpoint", "quant/model.f16.tdck", "--out", "eval",
        "--episodes", "1", "--seed", s)
    scores = json.loads((work / "eval" / "report.json").read_text())["task_scores"]
    for task in sorted(scores):
        values[f"f16.eval.{task}"] = repr(scores[task])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=None,
                        help="one batch size for train and distill "
                             "(default 16 and 32)")
    args = parser.parse_args(argv)
    sides = {}
    try:
        for side in ("parent", "change"):
            with tempfile.TemporaryDirectory(prefix=f"bitparity-{side}-") as work:
                sides[side] = run_checkout(getattr(args, side), Path(work), args.seed,
                                            args.batch_size)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parent, change = sides["parent"], sides["change"]
    same = True
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        same &= a == b
        print(f"{key:28s} {'same     ' if a == b else 'DIFFERENT'} {a}"
              + ("" if a == b else f" -> {b}"))
    print(json.dumps({"seed": args.seed, "batch_size": args.batch_size,
                      "identical": same, **sides}, sort_keys=True))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
