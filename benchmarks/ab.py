#!/usr/bin/env python3
"""Compare two commits on the end-to-end benchmark, in alternating pairs.

Both revisions are exported with ``git archive`` into fresh directories
under one temporary directory, so neither side reads the other's files or a
stale ``__pycache__``; every run has ``PYTHONDONTWRITEBYTECODE=1``.  For each
workload, pair i runs ``perfbench/run.py --workload W --seconds S --seed
N+i`` once per side, BASE first in even pairs and HEAD first in odd ones.
Then one traced run per side gives the per-layer metrics; their counts
repeat exactly, so they resolve an algorithmic change on their own.

Per end-to-end metric of ``BENCHMARK.json`` the script reports both medians,
the base's quartiles (``statistics.quantiles``, exclusive method), the
pairs HEAD wins and loses (ties count for neither), the relative change of
the medians against the metric's bound, and a verdict:

* ``better`` / ``worse``: HEAD wins / loses at least nine tenths of the
  pairs, and the medians differ by more than the base's interquartile range;
* ``equal``: every pair ties, as a deterministic count does;
* ``unresolved``: anything else, for example pairs that straddle the base's
  quartiles.

Times are reported scaled, as the benchmark reports them, and raw, as
``perfbench/run.py`` keeps them under ``info.raw_s``: the scaling's
reference loop can drift by itself between processes.

Run from a git checkout:

    python benchmarks/ab.py BASE HEAD [--workload W ...] [--pairs N]
        [--seconds S] [--seed N] [--record LABEL [--note TEXT]]

``--record LABEL`` stores the comparison as the column LABEL of
``benchmarks/BENCH_e2e.json`` and keeps the file's other columns.  The exit
code is 1 when a run fails an output check of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "BENCH_e2e.json"
SIDES = ("base", "head")
RESOLVE_SHARE = 0.9  # the share of pairs a side must win before a difference counts
ABOUT = (
    "Each column compares BASE with HEAD on fresh exports, in alternating pairs of "
    "perfbench/run.py runs of `seconds` each (pair i uses seed seeds[0]+i). Per metric: the "
    "medians, the base's quartiles, HEAD's wins and losses, the relative change of the "
    "medians and a verdict: better/worse when HEAD wins/loses at least 9 of 10 pairs and "
    "the medians differ by more than the base's interquartile range, equal when every pair "
    "ties, unresolved otherwise. Times are scaled as the benchmark scales them; `raw` holds "
    "the unscaled seconds. `per_layer` is one traced run per side."
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` into the new directory ``dest``."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", "--format=tar", commit),
                   check=True)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in ``tree``: its result, and the run facts of its result file."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    kept = tree / "perfbench" / "work" / f"result-{workload}-{seed}-trace{int(trace)}.json"
    info = json.loads(kept.read_text(encoding="utf-8"))["info"]
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "info": info,
    }


def summarize(base: list[float], head: list[float], better: str, bound: float | None) -> dict:
    """Medians, the base's quartiles, wins and the verdict of one metric's pairs."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    base_median, head_median = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base_median,) * 3
    gain = sign * (base_median - head_median)
    if wins == losses == 0:
        verdict = "equal"
    elif wins >= RESOLVE_SHARE * len(base) and gain > q3 - q1:
        verdict = "better"
    elif losses >= RESOLVE_SHARE * len(base) and -gain > q3 - q1:
        verdict = "worse"
    else:
        verdict = "unresolved"
    change = (head_median - base_median) / base_median if base_median else None
    summary = {
        "base": {"median": base_median, "q1": q1, "q3": q3},
        "head": {"median": head_median},
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "change": change,
        "verdict": verdict,
    }
    if bound is not None:
        summary["bound"] = bound
        summary["over_bound"] = change is not None and sign * change > bound
    return summary


def compare(trees: dict, workload: str, pairs: int, seconds: float, seed: int,
            end_to_end_spec: list[dict]) -> dict:
    """Alternating pairs and one traced run per side on one workload."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            print(f"{workload} pair {i + 1}/{pairs}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run(trees[side], workload, seed + i, seconds, trace=False))
    traced = {side: run(trees[side], workload, seed, seconds, trace=True) for side in SIDES}

    end_to_end = {}
    for metric in end_to_end_spec:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        entry = summarize(values["base"], values["head"], metric["better"], metric["bound"])
        entry["runs"] = values
        if name in runs["base"][0]["info"]["raw_s"]:  # a time: its raw seconds too
            raw = {side: [r["info"]["raw_s"][name] for r in runs[side]] for side in SIDES}
            entry["raw"] = summarize(raw["base"], raw["head"], metric["better"], None)
            entry["raw"]["runs"] = raw
        end_to_end[name] = entry
    per_layer = {
        name: {side: traced[side]["metrics"][name] for side in SIDES}
        for name in traced["base"]["metrics"]
    }
    return {
        "backend": traced["head"]["info"]["backend"],
        "models": traced["head"]["info"]["models"],
        "seeds": [seed, seed + pairs - 1],
        "failed": {side: sum(r["failed"] for r in runs[side] + [traced[side]]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side] + [traced[side]])
                      for side in SIDES},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def report(workload: str, result: dict) -> None:
    """A markdown table of one workload's comparison."""
    print(f"\n### {workload} (seeds {result['seeds'][0]}-{result['seeds'][1]}; failed "
          f"{result['failed']['base']}/{result['attempted']['base']} base, "
          f"{result['failed']['head']}/{result['attempted']['head']} head)\n")
    print("| metric | base median [q1, q3] | head median | change | wins/losses | verdict "
          "| raw base → head | raw verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for name, e in result["end_to_end"].items():
        b, raw = e["base"], e.get("raw")
        change = "–" if e["change"] is None else f"{e['change']:+.1%}"
        raw_cells = (f"{raw['base']['median']:.4g} → {raw['head']['median']:.4g} | "
                     f"{raw['verdict']}" if raw else "– | –")
        print(f"| {name} | {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] | "
              f"{e['head']['median']:.4g} | {change} | {e['wins']}/{e['losses']} of "
              f"{e['pairs']} | {e['verdict']}{' (over bound)' if e.get('over_bound') else ''} | "
              f"{raw_cells} |")
    print("\n| per-layer metric (one traced run) | base | head |")
    print("|---|---|---|")
    for name, values in result["per_layer"].items():
        print(f"| {name} | {values['base']:.4g} | {values['head']:.4g} |")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="the commit compared against")
    parser.add_argument("head", metavar="HEAD", help="the commit whose change is measured")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload to run (repeatable; default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=0, help="the first pair's seed")
    parser.add_argument("--record", metavar="LABEL", help=f"store as a column of {RECORD.name}")
    parser.add_argument("--note", default="", help="text stored with the recorded column")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.base, args.head))}

    results = {}
    with tempfile.TemporaryDirectory(prefix="cosma-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload in args.workload or workloads:
            results[workload] = compare(trees, workload, args.pairs, args.seconds, args.seed,
                                        spec["end_to_end"])
            report(workload, results[workload])

    if args.record:
        document = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
        document["about"] = ABOUT
        document.setdefault("columns", {})[args.record] = {
            "base": commits["base"],
            "head": commits["head"],
            "python": platform.python_version(),
            "pairs": args.pairs,
            "seconds": args.seconds,
            "note": args.note,
            "workloads": results,
        }
        RECORD.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    failed = any(r["failed"]["base"] or r["failed"]["head"] for r in results.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
