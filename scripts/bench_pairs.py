#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload, and their verdicts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload residual --pairs 10 --seconds 30 --seed 0

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
`python3 perfbench/run.py --workload W --seconds S --seed K` once in each
checkout, in its own process; the parent goes first in even pairs and the
change first in odd ones, so a drift of the host's speed over the session
falls on both sides alike.  The last line of each run's stdout is its JSON
result.  For every end-to-end metric of CHANGE's BENCHMARK.json the script
prints the median and quartiles of each side, the pairs the change won
(ties count for neither side), the gain verdict and the no-regression
verdict; then each side's failed outputs.

The gain verdict holds when the change wins at least 9 in 10 pairs and its
median is better than the parent's by more than the parent's interquartile
range.  The no-regression verdict holds when the change's median is worse
than the parent's by no more than the metric's relative bound; it is
marked unresolved when the parent's interquartile range is wider than
the bound, unless every change run reads better than every parent run.  Only
perfbench/ and BENCHMARK.json are read; nothing is written.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seconds, seed):
    """The JSON result of one `perfbench/run.py` run in `checkout`."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_pairs(parent, change, workload, pairs, seconds, seed):
    """(parent results, change results), one of each per pair, the order
    swapped each pair."""
    checkouts, results = (parent, change), ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            results[side].append(run_once(checkouts[side], workload, seconds, seed))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return results


def verdict(parent, change, better, bound):
    """Medians, quartiles, wins and both verdicts of paired samples of one
    metric: parent[i] and change[i] come from pair i.  `better` is "lower"
    or "higher"; `bound` is the largest relative worsening of the median
    that is no regression."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal-length samples of at least 2 pairs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    q_parent = statistics.quantiles(parent, n=4)
    q_change = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (q_parent[1] - q_change[1])  # > 0 when the change's median is better
    iqr = q_parent[2] - q_parent[0]
    return {
        "parent_quartiles": q_parent,
        "change_quartiles": q_change,
        "wins": wins,
        "pairs": len(parent),
        "gain": 10 * wins >= 9 * len(parent) and gain > iqr,
        "no_regression": -gain <= bound * abs(q_parent[1]),
        # a spread wider than the bound cannot show the bound held, unless
        # every run of the change reads better than every run of the parent
        "resolved": iqr <= bound * abs(q_parent[1])
        or max(sign * c for c in change) < min(sign * p for p in parent),
    }


def report(parent_runs, change_runs, end_to_end):
    """One line per end-to-end metric, then each side's failed outputs."""
    for metric in end_to_end:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        v = verdict(parent, change, metric["better"], metric["bound"])
        p1, pm, p3 = v["parent_quartiles"]
        c1, cm, c3 = v["change_quartiles"]
        print(f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}] {metric['unit']}  wins {v['wins']}/{v['pairs']}  "
              f"gain {'yes' if v['gain'] else 'no'}  "
              f"no-regression (bound {metric['bound']:.0%}) "
              f"{'yes' if v['no_regression'] else 'NO'}"
              f"{'' if v['resolved'] else ' (unresolved: parent IQR wider than the bound)'}")
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        print(f"{side} failed outputs: {sum(r['failed'] for r in runs)} "
              f"of {sum(r['attempted'] for r in runs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    parent_runs, change_runs = run_pairs(args.parent.resolve(), args.change.resolve(),
                                         args.workload, args.pairs, args.seconds, args.seed)
    print(f"{args.workload}: {args.pairs} pairs of --seconds {args.seconds:g} --seed {args.seed}")
    report(parent_runs, change_runs, bench["end_to_end"])


if __name__ == "__main__":
    main()
