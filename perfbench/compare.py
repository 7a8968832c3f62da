"""Spread of one set of benchmark runs, and comparison of two sets.

    python3 perfbench/compare.py spread --workload W [--runs 10] [--root DIR]
    python3 perfbench/compare.py pairs BASE_DIR CHANGE_DIR --workload W [--pairs 10]

``spread`` runs the end-to-end benchmark on N seeds and prints, per metric,
the interquartile range as a share of the median against the metric's
bound. ``pairs`` runs a parent checkout and a change checkout alternately,
the same seed on both sides of a pair and the side that goes first
swapping every pair, and judges every end-to-end metric:

- ``win``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range, in the metric's better direction;
- ``unresolved``: either side's spread exceeds the metric's bound, and not
  every change run reads better than every parent run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``no regression``: none of the above.

A win does not count when the change fails more operations. Both
checkouts must hold the same benchmark code. Both commands print every
run's result as one JSON line before their verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def bench_digest(root):
    """Hash of BENCHMARK.json and every file under the benchmark's paths."""
    root = Path(root)
    digest = hashlib.sha256((root / "BENCHMARK.json").read_bytes())
    for rel in load_spec(root)["paths"]:
        for path in sorted((root / rel).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(root, workload, seed, seconds, trace=0):
    """One benchmark run in ``root``; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run in {root} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def judge(metric, base, change, base_failed=0, change_failed=0):
    """Verdict on one end-to-end metric from paired runs ``base[i]``/``change[i]``."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    gain = sign * (cmed - bmed)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    row = {"metric": metric["name"], "base_median": bmed, "change_median": cmed,
           "wins": wins, "pairs": len(base), "base_spread": spread(base),
           "change_spread": spread(change), "bound": metric["bound"]}
    if (wins >= WIN_SHARE * len(base) and gain > bq3 - bq1
            and change_failed <= base_failed):
        row["verdict"] = "win"
    elif max(row["base_spread"], row["change_spread"]) > metric["bound"] and not all_better:
        row["verdict"] = "unresolved"
    elif -gain > metric["bound"] * bmed:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def _values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def judge_all(spec, base_runs, change_runs):
    base_failed = sum(r["failed"] for r in base_runs)
    change_failed = sum(r["failed"] for r in change_runs)
    return [judge(m, _values(base_runs, m["name"]), _values(change_runs, m["name"]),
                  base_failed, change_failed) for m in spec["end_to_end"]]


def cmd_spread(args):
    spec = load_spec(args.root)
    runs = []
    for i in range(args.runs):
        runs.append(run_once(args.root, args.workload, args.seed + i, spec["run_seconds"]))
        print(json.dumps({"seed": args.seed + i, "result": runs[-1]}), flush=True)
    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(r['failed'] for r in runs)} failed operations")
    steady = True
    for m in spec["end_to_end"]:
        values = _values(runs, m["name"])
        q1, median, q3 = quartiles(values)
        share = (q3 - q1) / median
        ok = share < m["bound"] / 3
        steady &= ok
        print(f"  {m['name']:14s} median {median:.6g} {m['unit']}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  spread {share:.4f}  bound {m['bound']}  "
              f"{'steady' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


def cmd_pairs(args):
    if bench_digest(args.base) != bench_digest(args.change):
        print("error: the two checkouts hold different benchmark code", file=sys.stderr)
        return 2
    spec = load_spec(args.base)
    entries = []
    for i in range(args.pairs):
        sides = [("base", args.base), ("change", args.change)]
        for side, root in sides if i % 2 == 0 else sides[::-1]:
            result = run_once(root, args.workload, args.seed + i, spec["run_seconds"])
            entries.append({"side": side, "pair": i, "seed": args.seed + i,
                            "result": result})
            print(json.dumps(entries[-1]), flush=True)
    by_side = {side: [e["result"] for e in entries if e["side"] == side]
               for side in ("base", "change")}
    for row in judge_all(spec, by_side["base"], by_side["change"]):
        print(f"{row['metric']:14s} {row['verdict']:14s} base {row['base_median']:.6g} "
              f"change {row['change_median']:.6g}  wins {row['wins']}/{row['pairs']}  "
              f"spread {row['base_spread']:.4f}/{row['change_spread']:.4f}  "
              f"bound {row['bound']}")
    print(f"failed operations: base {sum(r['failed'] for r in by_side['base'])}, "
          f"change {sum(r['failed'] for r in by_side['change'])}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread", help="spread of N runs of one checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--root", type=Path, default=HERE.parent)
    p = sub.add_parser("pairs", help="alternate a parent and a change checkout")
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    return cmd_spread(args) if args.cmd == "spread" else cmd_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
