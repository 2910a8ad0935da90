"""Paired comparison of two benchmark result sets.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by bench/run.py (bench/out/results.jsonl),
made with the same benchmark code and --seconds on one machine, ideally
with parent and change runs alternating.  Runs are paired by workload and
seed.  Each workload and each end-to-end metric gets its own row:

  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  gain        at least 10 pairs, the change wins at least 9/10 of them (ties
              count for neither side), and the medians differ, in the
              better direction, by more than the parent's interquartile
              distance; not granted when the change failed more items
  unresolved  the parent's own interquartile spread, as a share of its
              median, is wider than the bound, unless every change run reads
              better than every parent run
  same        none of the above

Exit code 1 when any row regresses or any change run failed an item.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent, change, workload):
    """(parent value dicts, change value dicts) paired by seed, in run order."""
    by_seed = {}
    for r in parent:
        if r["workload"] == workload and r["trace"] == 0:
            by_seed.setdefault(r["seed"], []).append(r)
    pairs = []
    for r in change:
        if r["workload"] == workload and r["trace"] == 0 and by_seed.get(r["seed"]):
            pairs.append((by_seed[r["seed"]].pop(0), r))
    return pairs


def verdict(metric: dict, pairs) -> dict:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0  # positive = worse
    pv = [p["metrics"][name] for p, _ in pairs]
    cv = [c["metrics"][name] for _, c in pairs]
    pq1, pmed, pq3 = quartiles(pv)
    cq1, cmed, cq3 = quartiles(cv)
    wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) < 0)
    losses = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
    worse = sign * (cmed - pmed) / pmed
    spread = (pq3 - pq1) / pmed
    p_failed = sum(p["failed"] for p, _ in pairs)
    c_failed = sum(c["failed"] for _, c in pairs)
    if worse > bound:
        v = "regression"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and -sign * (cmed - pmed) > pq3 - pq1 and c_failed <= p_failed):
        v = "gain"
    elif spread > bound and not max(sign * x for x in cv) < min(sign * x for x in pv):
        v = "unresolved"
    else:
        v = "same"
    return {
        "metric": name, "pairs": len(pairs), "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
        "wins": wins, "losses": losses, "worse": worse, "spread": spread, "bound": bound,
        "verdict": v,
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load_records(argv[0]), load_records(argv[1])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = False
    print("%-16s %-12s %5s %30s %30s %7s %8s %7s  %s" % (
        "workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3",
        "wins", "worse", "spread", "verdict"))
    for w in spec["workloads"]:
        pairs = pair_up(parent, change, w["name"])
        if not pairs:
            print("%-16s no paired runs" % w["name"])
            continue
        for metric in spec["end_to_end"]:
            row = verdict(metric, pairs)
            bad |= row["verdict"] == "regression"
            print("%-16s %-12s %5d %30s %30s %3d/%-3d %+7.1f%% %6.1f%%  %s" % (
                w["name"], row["metric"], row["pairs"],
                "%.4g / %.4g / %.4g" % row["parent"], "%.4g / %.4g / %.4g" % row["change"],
                row["wins"], row["pairs"], 100 * row["worse"], 100 * row["spread"], row["verdict"]))
        failed = sum(c["failed"] for _, c in pairs)
        if failed:
            bad = True
            print("%-16s change runs failed %d items" % (w["name"], failed))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
