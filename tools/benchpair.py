#!/usr/bin/env python3
"""Paired benchmark runs of two commits.

    python3 tools/benchpair.py BASE HEAD --label L [--workloads a,b]
        [--pairs 6] [--seconds 8] [--seeds 7] [--same-digests]

Run from inside the repository.  Each commit is checked out with
`git worktree` in a temporary directory, removed again at the end.  For
each workload the tool runs `perfbench/run.py --trace 0` from each tree,
one process at a time, and alternates which side runs first from pair
to pair.  Pair i uses seed i of --seeds, cycling, on both sides.

It writes BENCH_<label>.json at the repository root.  Per workload it
holds every run (seed, digest, correct, failed and the end-to-end
metrics) and, per end-to-end metric of BENCHMARK.json, each side's
median and quartiles, how many pairs each side won and whether every
HEAD run beat every BASE run.  It then prints one verdict line per
workload and end-to-end metric (see verdict).
With --same-digests it exits 1 when the two sides' digests differ for a
seed, which is what a change that claims no new behaviour asserts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def read_result(path: str) -> dict:
    """What a pair compares of one perfbench result file."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "seed": report["seed"],
        "digest": report["digest"],
        "correct": not report["wrong"],  # as run.py prints it
        "attempted": report["attempted"],
        "failed": report["failed"],
        "python": report["python"],
        "nproc": report["nproc"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Each side's quartiles and the pair wins per metric, whether every
    HEAD run is better than every BASE run ("apart"), and the checks.

    pairs holds {"seed", "first", "base": run, "head": run} records, a
    run as read_result gives it.  better maps each metric to "lower" or
    "higher".
    """
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = {"base": 0, "head": 0, "tie": 0}
        for b, h in zip(values["base"], values["head"]):
            wins["head" if sign * h < sign * b else "base" if sign * b < sign * h else "tie"] += 1
        metrics[name] = {
            "better": direction,
            **{side: quartiles(values[side]) for side in SIDES},
            "wins": wins,
            "apart": max(sign * h for h in values["head"]) < min(sign * b for b in values["base"]),
        }
    return {
        "metrics": metrics,
        "digests_equal": all(p["base"]["digest"] == p["head"]["digest"] for p in pairs),
        "correct": {side: all(p[side]["correct"] for p in pairs) for side in SIDES},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "pairs": pairs,
    }


def verdict(label: str, metric: dict, bound: float) -> str:
    """One metric's line: each side's median (quartiles), the pairs HEAD
    won, and three flags.  "worse" says HEAD's median is worse than
    BASE's by more than bound, a fraction of BASE's median.  "gain" says
    the gain rule holds: HEAD won at least 9 of 10 pairs, ties counting
    for neither, and the medians differ its way by more than BASE's
    interquartile range.  "unresolved" says BASE's own runs spread wider
    than the bound allows, its interquartile range past bound times its
    median, so "worse" cannot tell a change from noise; it does not hold
    when every HEAD run is better than every BASE run."""
    base, head, wins = metric["base"], metric["head"], metric["wins"]
    sign = 1 if metric["better"] == "lower" else -1
    pairs = sum(wins.values())
    worse = sign * (head["median"] - base["median"]) > bound * abs(base["median"])
    spread = base["q3"] - base["q1"]
    gain = 10 * wins["head"] >= 9 * pairs and sign * (base["median"] - head["median"]) > spread
    unresolved = spread > bound * abs(base["median"]) and not metric["apart"]
    sides = ", ".join(f"{side} {q['median']:.6g} ({q['q1']:.6g}-{q['q3']:.6g})" for side, q in (("base", base), ("head", head)))
    return (f"{label}: {sides}, head won {wins['head']}/{pairs}, "
            f"worse by more than {bound:.0%}: {'yes' if worse else 'no'}, gain rule: {'yes' if gain else 'no'}, "
            f"unresolved: {'yes' if unresolved else 'no'}")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


@contextmanager
def worktrees(commits: dict[str, str]):
    """A detached worktree per side, removed on the way out."""
    tmp = tempfile.mkdtemp(prefix="benchpair-")
    trees: dict[str, str] = {}
    try:
        for side, commit in commits.items():
            trees[side] = os.path.join(tmp, side)
            git("worktree", "add", "--detach", trees[side], commit)
        yield trees
    finally:
        for tree in trees.values():
            git("worktree", "remove", "--force", tree)
        shutil.rmtree(tmp, ignore_errors=True)


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return read_result(os.path.join(tree, "perfbench", "out", f"result_{workload}_seed{seed}_trace0.json"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", metavar="BASE")
    ap.add_argument("head", metavar="HEAD")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", default=None, help="comma list (default: every BENCHMARK.json workload)")
    ap.add_argument("--pairs", type=int, default=6, help="pairs of runs per workload")
    ap.add_argument("--seconds", type=float, default=8.0, help="--seconds of each run")
    ap.add_argument("--seeds", default="7", help="comma list, cycled over the pairs")
    ap.add_argument("--same-digests", action="store_true", help="exit 1 if the sides' digests differ")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    commits = {"base": git("rev-parse", f"{args.base}^{{commit}}"), "head": git("rev-parse", f"{args.head}^{{commit}}")}

    out: dict = {"label": args.label, "commits": commits, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    with worktrees(commits) as trees:
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}", file=sys.stderr)
            out["workloads"][workload] = summarize(pairs, better)
    first = out["workloads"][workloads[0]]["pairs"][0]["base"]
    out["python"], out["nproc"] = first["python"], first["nproc"]

    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    for workload, summary in out["workloads"].items():
        for name, metric in summary["metrics"].items():
            print(verdict(f"{workload} {name}", metric, bounds[name]))
    split = [w for w, s in out["workloads"].items() if not s["digests_equal"]]
    if args.same_digests and split:
        print(f"digests differ: {', '.join(split)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
