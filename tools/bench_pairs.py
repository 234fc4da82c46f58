#!/usr/bin/env python3
"""
Paired benchmark of two checkouts: the generator of the ``BENCH_<pr>.json`` files.

    python3 tools/bench_pairs.py <parent-checkout> <change-checkout> --out BENCH_18.json \\
        [--about "what the change does"] [--claim learn_angles:pipeline_s]

Runs each checkout's own, unchanged ``perfbench/run.py --workload <w> --seed
<seed> --seconds <run_seconds> --trace 0`` in that checkout, one process at
a time, with ``run_seconds`` from the parent's BENCHMARK.json. There are
twenty pairs per workload: pair i (1..20) runs seed i on both sides, the
parent first in odd-numbered pairs and the change first in the others, so
neither side always runs on a machine the other has just warmed. A run's
values are the end-to-end metrics of its last JSON line plus ``correct``,
``attempted`` and ``failed``; a run that exits non-zero or prints no
result is kept with ``failed: null`` and its error. ``env`` holds, per
side, the environment line that side's first run printed, less its
workload and seed; a later run whose environment differs keeps its own.

The file is rewritten after every pair, so an interrupted bench keeps the
pairs it finished. Per workload and end-to-end metric the summary holds the
parent's and the change's medians, the parent's quartiles (numpy linear
percentiles) and spread ((max - min) / median), ``rel`` (change median /
parent median - 1), the bound and direction from the parent's
BENCHMARK.json, ``change_wins`` (pairs where the change is strictly
better), ``resolved`` (the parent's spread is within the bound) and
``beyond_parent_iqr`` (the medians differ by more than the parent's q3 - q1).
Beside them, ``ratio_median`` is the median over the pairs of change / parent
and ``ratio_ci95`` its percentile bootstrap 95% confidence interval: the
2.5th and 97.5th percentiles of the medians of ``BOOTSTRAP`` resamples of the
pairs, drawn with replacement from a generator of fixed seed, so one file's
pairs always give one interval. A pair divides out the host's drift, which
the parent's spread carries; a gain shows as an interval that excludes 1 on
the better side.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

PAIRS = 20
BOOTSTRAP = 20000
BOOTSTRAP_SEED = 0
RUN_FIELDS = ("correct", "attempted", "failed")
# the fields of perfbench's environment line that name the run, not the machine
RUN_NAMES = ("workload", "seed")
METHOD = ("unchanged perfbench run from each checkout; pair i runs seed i on both sides, "
          "parent first in odd pairs and change first in even ones; values are each "
          "run's end-to-end metrics (its last JSON line); quartiles are numpy linear percentiles "
          "over the parent's runs; spread is (max - min) / median; a win is a change value "
          "strictly better than the parent's in the same pair; rel is change median / parent "
          "median - 1; a metric is resolved when the parent's spread is within its bound; "
          "beyond_parent_iqr when the medians differ by more than the parent's q3 - q1; "
          "ratio_median is the median over the pairs of change / parent, and ratio_ci95 the "
          "2.5th and 97.5th numpy linear percentiles of the medians of %d resamples of the "
          "pairs with replacement (numpy default_rng(%d)); failed sums the failed operations, "
          "failed_runs counts runs that gave no result" % (BOOTSTRAP, BOOTSTRAP_SEED))


def run_once(checkout, workload, seed, seconds):
    """
    One perfbench run in ``checkout``: its end-to-end values and health, or an
    error, and the environment line it printed (None if it printed none).
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if env is not None:
        for name in RUN_NAMES:
            env.pop(name, None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"failed": None, "error": "exit %d: %s" % (proc.returncode, tail)}, env
    run = {name: entry["value"] for name, entry in result["metrics"].items()}
    run.update((name, result[name]) for name in RUN_FIELDS)
    return run, env


def paired_ratio(parent, change):
    """The median of the per-pair ratios change / parent and its bootstrap 95% CI."""
    ratio = np.asarray(change, dtype=float) / np.asarray(parent, dtype=float)
    resamples = np.random.default_rng(BOOTSTRAP_SEED).integers(0, len(ratio),
                                                               (BOOTSTRAP, len(ratio)))
    low, high = np.percentile(np.median(ratio[resamples], axis=1), [2.5, 97.5])
    return float(np.median(ratio)), [float(low), float(high)]


def summarize(parent, change, bound, better="lower"):
    """Summary of one metric over paired runs: ``parent[i]`` and ``change[i]`` are pair i."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q1, q3 = (float(q) for q in np.percentile(parent, [25, 75]))
    spread = float((parent.max() - parent.min()) / p_med)
    wins = change < parent if better == "lower" else change > parent
    ratio, ci = paired_ratio(parent, change)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_q1": q1,
        "parent_q3": q3,
        "parent_spread": spread,
        "rel": c_med / p_med - 1.0,
        "bound": bound,
        "better": better,
        "change_wins": int(wins.sum()),
        "resolved": bool(spread <= bound),
        "beyond_parent_iqr": bool(abs(c_med - p_med) > q3 - q1),
        "ratio_median": ratio,
        "ratio_ci95": ci,
    }


def summarize_workload(runs, end_to_end):
    """Per-metric summaries over the pairs where both sides ran, and failure counts."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p["failed"] is not None and c["failed"] is not None]
    summary = {"failed": {side: sum(r["failed"] or 0 for r in rs) for side, rs in runs.items()},
               "failed_runs": {side: sum(r["failed"] is None for r in rs)
                               for side, rs in runs.items()}}
    for metric in end_to_end:
        if pairs:
            summary[metric["name"]] = summarize(
                [p[metric["name"]] for p, _ in pairs], [c[metric["name"]] for _, c in pairs],
                metric["bound"], metric.get("better", "lower"))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--about", default="", help="what the change does")
    parser.add_argument("--claim", default=None, help="workload:metric the change claims")
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric}
    out = {
        "bench": os.path.splitext(os.path.basename(args.out))[0],
        "change": args.about,
        "claim": claim,
        "command": "python3 perfbench/run.py --workload <w> --seed <seed> --seconds %g --trace 0"
                   % seconds,
        "method": METHOD,
        "env": {},
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        entry = out["workloads"][workload] = {"pairs": 0, "pair_order": [], "runs": runs}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                run, env = run_once(checkout, workload, seed, seconds)
                if env is not None and out["env"].setdefault(side, env) != env:
                    run["env"] = env
                runs[side].append(run)
            entry["pairs"] += 1
            entry["pair_order"].append("%s first" % order[0])
            entry["summary"] = summarize_workload(runs, bench["end_to_end"])
            with open(args.out, "w") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
            print("%s pair %d/%d done" % (workload, i + 1, len(seeds)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
