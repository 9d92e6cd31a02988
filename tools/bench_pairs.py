"""Alternating parent/change pairs of one benchmark workload, written as BENCH_<workload>.json.

Run from the repository root, after committing the change:

    python tools/bench_pairs.py --parent HEAD~1 --change HEAD --workload evolve-wide \\
        --pairs 10 --first-seed 501 --seconds 10 --claim "wall_s on evolve-wide improves"

Each side is extracted with `git archive` into a directory of its own, a clean copy of
that commit, and runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` there
with `PYTHONDONTWRITEBYTECODE=1`.  Pair i runs seed first_seed + i - 1 on both sides; the
parent runs first in odd pairs and the change first in even pairs.  The output file keeps
each run's raw result file (`perfbench/out/result-<W>-seed<S>-trace0.json` of that copy)
and, per end-to-end metric, the number of pairs, the pairs the change wins (ties count for
neither side), and each side's median and quartiles.  The copies are deleted at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _extract(rev: str, into: str) -> str:
    """A clean copy of commit ``rev`` in ``into``, and the commit's short hash."""
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(copy: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a copy: its raw result file."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"], cwd=copy, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(copy, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: pairs, the pairs the change wins, and each side's median and quartiles."""
    out = {}
    for metric, direction in better.items():
        sides = {side: [r["result"]["metrics"][metric]["value"] for r in runs
                        if r["side"] == side] for side in ("parent", "change")}
        sign = 1 if direction == "lower" else -1
        entry = {"pairs": len(sides["parent"]),
                 "change_wins": sum(sign * (c - p) < 0
                                    for p, c in zip(sides["parent"], sides["change"]))}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        out[metric] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--claim", required=True, help="the gain claimed, or why none is")
    p.add_argument("--out", help="output file (default BENCH_<workload>.json in the root)")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    work = tempfile.mkdtemp(prefix="lrqc-bench-pairs-")
    try:
        commits = {side: _extract(rev, os.path.join(work, side))
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        runs = []
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for i, side in enumerate(order):
                result = _run(os.path.join(work, side), args.workload, seed, args.seconds)
                runs.append({"pair": pair, "side": side, "seed": seed, "ran_first": i == 0,
                             "result": result})
                print(f"pair {pair} {side} seed {seed}: " + ", ".join(
                    f"{m} {result['metrics'][m]['value']:.4g}" for m in better), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    last = args.first_seed + args.pairs - 1
    doc = {
        "workload": args.workload,
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0",
        "protocol": f"{args.pairs} pairs at seeds {args.first_seed}-{last}, one seed per pair "
                    "and the same seed on both sides; the parent runs first in odd pairs and "
                    "the change first in even pairs; each side runs from its own clean "
                    "`git archive` copy with PYTHONDONTWRITEBYTECODE=1; `result` is the raw "
                    "result-*.json of each run; written by tools/bench_pairs.py",
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}",
        "parent": {"commit": commits["parent"]},
        "change": {"commit": commits["change"]},
        "summary": _summary(runs, better),
        "runs": runs,
    }
    for side in ("parent", "change"):
        doc[side]["src_sha256"] = next(r["result"]["machine"]["src_sha256"] for r in runs
                                       if r["side"] == side)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for metric, entry in doc["summary"].items():
        print(f"{metric}: change wins {entry['change_wins']} of {entry['pairs']}; parent "
              f"{entry['parent_median']:.4g} [{entry['parent_q1']:.4g}, {entry['parent_q3']:.4g}]"
              f", change {entry['change_median']:.4g} [{entry['change_q1']:.4g}, "
              f"{entry['change_q3']:.4g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
