"""Check that two checkouts of wmdistill give bit-identical results.

    python3 tools/bitparity.py PARENT CHANGE [--seed N] [--batch-size B]

For each checkout, in a fresh interpreter with OPENBLAS_NUM_THREADS=1 and
the package imported from that checkout's src/, it runs at a fixed seed:

    gen-data   mixture policy, 40 episodes per task
    train      teacher-L, batch 16 (or B), then once more from that run's
               config.txt alone (config-replay)
    distill    student, batch 32 (or B), against that teacher, in the
               reward_only, latent_linear and latent_pca modes, the
               latent_linear run once more, resumed from a 30-step
               trainstate, a reward_only student with tanh activations, and
               a reward_only student with a periodic eval every 10 of its 30
               steps (one episode per task, a cut-down planner), the only
               run with periodic evals
    sweep      a student sweep with d_coef 0 and 0.5 against two teachers,
               that teacher and the reward_only student (4 cells, each
               teacher shared by two), batch 32 (or B), 60 steps each
    quantize   the reward_only student to f16
    eval       the f16 student, one episode per task, the f32 teacher, one
               pendulum-swingup episode (the 256-wide planner path), and the
               f32 tanh student, one cartpole-balance episode

and compares the dataset's bytes and its content, the model.tdck and
trainstate.tdck hashes and the config.txt, losses.csv and metrics.csv bytes
of every training run (the resumed one and each sweep cell included), the
sweep.csv bytes (not report.json's, which hold the wall clock), the f16
checkpoint hash and quant_report.csv, the f16 task scores, the teacher's
score and both evals' metrics.csv. Within each checkout the config-replay
model must also equal the teacher's, byte for byte (config-replay), and
the resumed latent_linear run must equal the uninterrupted one in its
model.tdck and trainstate.tdck hashes and its losses.csv and metrics.csv
bytes (resume), and the sweep, run once more into its --out after its first
cell's report.json is deleted (the state a kill in that cell's final eval
leaves), must leave sweep.csv and every cell's model.tdck, trainstate.tdck,
losses.csv and metrics.csv as its first pass wrote them (sweep-rerun). The
dataset's content
is hashed by the checkout's own load_dataset: the packed obs, actions and
rewards bytes plus each episode's task, policy, seed and length, so a
change of container is checked on what it holds. It prints one line per
item and, last, one JSON object with every value of both sides. Exit
status 0 when everything agrees, 1 when anything differs, 2 when a command
fails.
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
# the periodic-eval run's flags, which override TRAIN_FLAGS' evals
PERIODIC_FLAGS = ["--eval-every", "10", "--eval-episodes", "1", "--plan-horizon", "1",
                  "--plan-samples", "8", "--plan-elites", "2", "--plan-iterations", "1"]
MODES = ("reward_only", "latent_linear", "latent_pca")
# the items of a resumed run that must equal its uninterrupted run's
RESUMED_ITEMS = ("model", "trainstate", "losses_csv", "metrics_csv")
# the files of each sweep cell that a rerun of the sweep must leave as they were
SWEEP_CELL_FILES = ("model.tdck", "trainstate.tdck", "losses.csv", "metrics.csv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# Run by each checkout's interpreter on its own dataset. Checkouts from
# before the one-file dataset keep the per-episode records in `manifest`.
DATASET_CONTENT = """
import hashlib, sys
from wmdistill.dataset import load_dataset
ds = load_dataset(sys.argv[1])
digest = hashlib.sha256()
for arr in (ds.obs, ds.actions, ds.rewards):
    digest.update(f"{arr.dtype}{arr.shape}".encode())
    digest.update(arr.tobytes())
records = getattr(ds, "records", None) or ds.manifest
for ep, rec in zip(ds.episodes, records, strict=True):
    digest.update(f"{ep.task_id},{rec.policy},{rec.seed},{ep.length};".encode())
print(digest.hexdigest())
"""


def run_checkout(root: Path, work: Path, seed: int, batch: int | None) -> dict:
    """Every compared value of one checkout, keyed by item name."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(root.resolve() / "src"))

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
                **{f"{name}.{file.replace('.', '_')}": _sha256(out / file)
                   for file in ("config.txt", "losses.csv", "metrics.csv")}}

    s = str(seed)
    cli("gen-data", "--out", "data", "--episodes-per-task", "40",
        "--policy", "mixture", "--seed", s)
    content = subprocess.run([sys.executable, "-c", DATASET_CONTENT, "data"], env=env,
                             cwd=work, capture_output=True, text=True)
    if content.returncode != 0:
        raise RuntimeError(f"{root}: hashing the dataset's content exited "
                           f"{content.returncode}\n{content.stderr}")
    values = {"dataset": _dir_hash(work / "data"),
              "dataset.content": content.stdout.strip()}
    cli("train", "--dataset", "data", "--out", "teacher", "--preset", "teacher-L",
        "--steps", "60", "--batch-size", str(batch or 16), "--seed", s, *TRAIN_FLAGS)
    values.update(training("teacher"))
    cli("train", "--config", "teacher/config.txt", "--out", "replay")
    values["config-replay.model"] = _sha256(work / "replay" / "model.tdck")

    def distill(mode: str, out: str, steps: str, *extra: str) -> None:
        cli("distill", "--dataset", "data", "--out", out,
            "--teacher", "teacher/model.tdck", "--preset", "student", "--steps", steps,
            "--batch-size", str(batch or 32), "--d-coef", "0.5", "--mode", mode, "--seed", s,
            *TRAIN_FLAGS, *extra)

    for mode in MODES:
        distill(mode, mode, "60")
        values.update(training(mode))
    distill("latent_linear", "latent_linear-half", "30")
    distill("latent_linear", "latent_linear-resumed", "60",
            "--resume", "latent_linear-half/trainstate.tdck")
    values.update(training("latent_linear-resumed"))
    distill("reward_only", "tanh", "60", "--activation", "tanh")
    values.update(training("tanh"))
    distill("reward_only", "periodic", "30", *PERIODIC_FLAGS)
    values.update(training("periodic"))
    sweep = ("sweep", "--dataset", "data", "--out", "sweep",
             "--grid-teacher", "teacher/model.tdck,reward_only/model.tdck",
             "--preset", "student", "--steps", "60", "--batch-size", str(batch or 32),
             "--seed", s, "--grid-d-coef", "0,0.5", *TRAIN_FLAGS)
    cli(*sweep)
    values["sweep.sweep_csv"] = _sha256(work / "sweep" / "sweep.csv")
    cells = sorted(p for p in (work / "sweep").iterdir() if p.is_dir())
    for cell in cells:
        values.update(training(f"sweep/{cell.name}"))

    def sweep_files() -> str:
        digest = hashlib.sha256()
        for path in [work / "sweep" / "sweep.csv",
                     *(cell / name for cell in cells for name in SWEEP_CELL_FILES)]:
            digest.update(f"{path.relative_to(work)}:{_sha256(path)};".encode())
        return digest.hexdigest()

    values["sweep.files"] = sweep_files()
    (cells[0] / "report.json").unlink()
    cli(*sweep)
    values["sweep-rerun.files"] = sweep_files()
    cli("quantize", "--checkpoint", "reward_only/model.tdck", "--out", "quant",
        "--seed", s)
    values["f16.hash"] = json.loads((work / "quant" / "report.json").read_text())["f16_hash"]
    values["f16.quant_report_csv"] = _sha256(work / "quant" / "quant_report.csv")
    cli("eval", "--checkpoint", "quant/model.f16.tdck", "--out", "eval",
        "--episodes", "1", "--seed", s)
    scores = json.loads((work / "eval" / "report.json").read_text())["task_scores"]
    for task in sorted(scores):
        values[f"f16.eval.{task}"] = repr(scores[task])
    values["f16.eval.metrics_csv"] = _sha256(work / "eval" / "metrics.csv")
    cli("eval", "--checkpoint", "teacher/model.tdck", "--out", "eval-teacher",
        "--tasks", "pendulum-swingup", "--episodes", "1", "--seed", s)
    scores = json.loads((work / "eval-teacher" / "report.json").read_text())["task_scores"]
    values["teacher.eval.pendulum-swingup"] = repr(scores["pendulum-swingup"])
    values["teacher.eval.metrics_csv"] = _sha256(work / "eval-teacher" / "metrics.csv")
    cli("eval", "--checkpoint", "tanh/model.tdck", "--out", "eval-tanh",
        "--tasks", "cartpole-balance", "--episodes", "1", "--seed", s)
    scores = json.loads((work / "eval-tanh" / "report.json").read_text())["task_scores"]
    values["tanh.eval.cartpole-balance"] = repr(scores["cartpole-balance"])
    values["tanh.eval.metrics_csv"] = _sha256(work / "eval-tanh" / "metrics.csv")
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
    keys = sorted(set(parent) | set(change))
    width = max(map(len, keys))
    for key in keys:
        a, b = parent.get(key), change.get(key)
        same &= a == b
        print(f"{key:{width}s} {'same     ' if a == b else 'DIFFERENT'} {a}"
              + ("" if a == b else f" -> {b}"))
    for side, values in sides.items():
        checks = {
            "config-replay": (values["config-replay.model"] == values["teacher.model"],
                              "model.tdck against teacher.model"),
            "resume": (all(values[f"latent_linear-resumed.{item}"]
                           == values[f"latent_linear.{item}"] for item in RESUMED_ITEMS),
                       f"latent_linear-resumed against latent_linear in "
                       f"{', '.join(RESUMED_ITEMS)}"),
            "sweep-rerun": (values["sweep-rerun.files"] == values["sweep.files"],
                            f"sweep.csv and each cell's {', '.join(SWEEP_CELL_FILES)} "
                            "against the sweep's first pass"),
        }
        for check, (ok, what) in checks.items():
            same &= ok
            print(f"{side + ' ' + check:{width}s} {'same     ' if ok else 'DIFFERENT'} {what}")
    print(json.dumps({"seed": args.seed, "batch_size": args.batch_size,
                      "identical": same, **sides}, sort_keys=True))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
