"""Run the benchmark in alternating pairs against a parent checkout and
write one BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --out BENCH_1.json

For each workload and seed it runs ``perfbench/run.py --trace 0`` once in
the parent checkout and once in this tree, alternating which side runs
first, then one ``--trace 1`` run per side (first seed). Both checkouts
must be committed, so that each side's commit names the code that ran.
The file holds the CPU count, the Python version, each side's commit and
the git tree of its ``src/`` (which a later commit can be checked
against), every run's result line and, per workload and end-to-end
metric, each side's median and inter-quartile range, the change's win
count over the pairs (ties count for neither side; "better" is taken
from BENCHMARK.json) and whether the metric is unresolved: the parent's
own spread is wider than the metric's bound, and not every change run
reads better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = tuple(range(1, 11))
WORKLOADS = ("oltp", "migrate", "tpcc")


def commit_of(tree: Path) -> dict:
    """HEAD of the checkout and the git tree of its ``src/``; exits when
    tracked files differ from HEAD, which then does not name what runs."""
    def git(*args: str) -> str:
        return subprocess.run(("git", "-C", str(tree)) + args, text=True,
                              capture_output=True, check=True).stdout.strip()
    if git("status", "--porcelain", "--untracked-files=no"):
        sys.exit(f"{tree}: uncommitted changes; commit them first")
    return {"commit": git("rev-parse", "HEAD"),
            "src_tree": git("rev-parse", "HEAD:src")}


def run_one(tree: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    """One benchmark process; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"exit": proc.returncode, "result": result}


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each side's failed share, and per end-to-end metric
    each side's median and IQR, the change's wins over the seeds both
    sides ran, the change's median relative to the parent's (positive is
    worse) and whether the metric regressed beyond its bound or is
    unresolved (the parent's IQR wider than the bound, unless every
    change run reads better than every parent run)."""
    out: dict = {}
    untraced = [r for r in runs if r["trace"] == 0 and r["result"]]
    for wl in sorted({r["workload"] for r in untraced}):
        by = {s: {r["seed"]: r["result"] for r in untraced
                  if r["workload"] == wl and r["side"] == s} for s in SIDES}
        seeds = sorted(set(by["parent"]) & set(by["change"]))
        row: dict = {"pairs": len(seeds)}
        for s in SIDES:
            res = [by[s][k] for k in seeds]
            row[s] = {"correct": all(r["correct"] for r in res),
                      "failed_frac": sum(r["failed"] for r in res)
                      / max(1, sum(r["attempted"] for r in res))}
        for m in end_to_end if seeds else ():
            name, lower = m["name"], m["better"] == "lower"
            vals = {s: [by[s][k]["metrics"][name]["value"] for k in seeds]
                    for s in SIDES}
            stats = {}
            for s in SIDES:
                q1, med, q3 = quartiles(vals[s])
                stats[s] = {"median": med, "iqr": q3 - q1}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            pmed = stats["parent"]["median"]
            worse = (stats["change"]["median"] - pmed) * (1 if lower else -1)
            rel = worse / pmed if pmed else 0.0
            iqr_frac = stats["parent"]["iqr"] / pmed if pmed else 0.0
            all_better = (max(vals["change"]) < min(vals["parent"])
                          if lower else
                          min(vals["change"]) > max(vals["parent"]))
            row[name] = {"parent": vals["parent"], "change": vals["change"],
                         "parent_median": pmed,
                         "parent_iqr": stats["parent"]["iqr"],
                         "change_median": stats["change"]["median"],
                         "change_iqr": stats["change"]["iqr"],
                         "change_wins": wins, "rel_worse": rel,
                         "regressed": rel > m["bound"],
                         "unresolved": iqr_frac > m["bound"]
                         and not all_better}
        out[wl] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    p.add_argument("--parent", required=True, type=Path,
                   help="checkout of the parent commit")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    commits = {s: commit_of(t) for s, t in trees.items()}
    runs: list[dict] = []

    def record(side: str, wl: str, seed: int, trace: int) -> None:
        got = run_one(trees[side], wl, seed, seconds, trace)
        runs.append({"workload": wl, "seed": seed, "side": side,
                     "trace": trace, **got})
        print(f"{wl} seed {seed} trace {trace} {side}: exit {got['exit']}",
              file=sys.stderr, flush=True)

    for wl in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                record(side, wl, seed, 0)
        for side in SIDES:
            record(side, wl, SEEDS[0], 1)
    doc = {
        "command": "python3 perfbench/run.py --seconds "
                   f"{seconds} --trace {{0,1}}",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commits": commits,
        "seeds": list(SEEDS),
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
