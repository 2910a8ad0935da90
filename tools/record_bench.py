"""Record a BENCH_<n>.json file: repeated benchmark runs and a Tier-1 time.

    python3 tools/record_bench.py N CHECKOUT [CHANGE] [--seed S]

CHECKOUT is a directory holding a copy of this repository.  Given a second
directory CHANGE, the first is the parent and the second the change, and
the file also holds bench/compare.py's rows for the pair.  Round i runs
`bench/run.py --workload all --trace 0 --seed S+i` once in every checkout,
in reverse order on odd rounds so that no side always runs first, and keeps
the records that run appended to the checkout's bench/out/results.jsonl.
There are compare.MIN_PAIRS rounds for a pair, the fewest compare.py gives
a verdict on, and MIN_SAMPLES for one checkout.  After the rounds, each
checkout's Tier-1 run is timed once, raw and rescaled by
bench/calibration.py from the loop timed just before and just after it.

BENCH_<N>.json, written at the root of the repository holding this script,
holds for each checkout its git sha, whether its src/ differs from that
commit, the env record of its first run, every run's end-to-end metrics,
and their median and interquartile range per workload.  An existing file is
never rewritten.  Exit code 1 when a run failed an item; a run that could
not run, crashed or appended other than one record per workload stops the
tool with an error and writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import calibration  # noqa: E402
import compare  # noqa: E402

MIN_SAMPLES = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def end_to_end_metrics() -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def summarize(records, names) -> dict:
    """workload -> metric -> n, median, q1, q3 and iqr over the records, in
    the order the workloads first appear.  Fewer than MIN_SAMPLES runs of a
    workload is an error: a median of one or two runs says little."""
    values = {}
    for r in records:
        per = values.setdefault(r["workload"], {n: [] for n in names})
        for n in names:
            per[n].append(r["metrics"][n])
    out = {}
    for workload, per in values.items():
        out[workload] = {}
        for n, xs in per.items():
            if len(xs) < MIN_SAMPLES:
                raise ValueError(
                    "%s %s has %d samples, fewer than %d" % (workload, n, len(xs), MIN_SAMPLES)
                )
            q1, med, q3 = compare.quartiles(xs)
            out[workload][n] = {"n": len(xs), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return out


def workloads() -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def bench_once(checkout: Path, seed: int) -> list:
    """The records one `run.py --workload all --trace 0` appended in checkout:
    one per workload, or RuntimeError."""
    results = checkout / "bench" / "out" / "results.jsonl"
    start = results.stat().st_size if results.is_file() else 0
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--trace", "0",
           "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    records = []
    if results.is_file():
        with open(results, encoding="utf-8") as fh:
            fh.seek(start)
            records = [json.loads(line) for line in fh if line.strip()]
    got = sorted(r["workload"] for r in records)
    if done.returncode not in (0, 1) or got != sorted(workloads()):
        raise RuntimeError("%s: benchmark exited %d and appended records for %s: %s" % (
            checkout, done.returncode, got, done.stderr.strip()[-2000:]))
    return records


def tier1(checkout: Path) -> dict:
    """One timed Tier-1 run, with the calibration loop timed on either side."""
    before, _ = calibration.measure()
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(TIER1, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    raw = time.perf_counter() - t0
    after, _ = calibration.measure()
    lines = done.stdout.strip().splitlines()
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?|skipped)",
                                               lines[-1] if lines else "")}
    return {
        "command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
        "exit_code": done.returncode,
        "counts": counts,
        "raw_s": raw,
        "scaled_s": raw * calibration.factor(before, after),
        "calibration_loop_s": [before, after],
    }


def src_dirty(checkout: Path):
    """Whether src/ differs from the checked-out commit; None without git."""
    done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                          capture_output=True, text=True)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def side(records, names, checkout: Path) -> dict:
    failed = {}
    for r in records:
        f = failed.setdefault(r["workload"], [0, 0])
        f[0] += r["failed"]
        f[1] += r["attempted"]
    return {
        "git_sha": records[0]["env"]["git_sha"],
        "src_dirty": src_dirty(checkout),
        "env": records[0]["env"],
        "failed_of_attempted": failed,
        "summary": summarize(records, names),
        "runs": [
            {k: r[k] for k in ("workload", "seed", "failed", "attempted", "passes")}
            | {"metrics": {n: r["metrics"][n] for n in names},
               "raw": r["raw"]}
            for r in records
        ],
    }


def comparison(parent, change, metrics) -> list:
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in parent):
        pairs = compare.pair_up(parent, change, workload)
        for metric in metrics:
            rows.append({"workload": workload} | compare.verdict(metric, pairs))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("number", type=int)
    ap.add_argument("checkout", type=Path)
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    out = ROOT / ("BENCH_%d.json" % args.number)
    if out.exists():
        ap.error("%s exists; a BENCH file is never rewritten" % out.name)
    if args.change is None:
        sides = {"checkout": args.checkout.resolve()}
        rounds = MIN_SAMPLES
    else:
        sides = {"parent": args.checkout.resolve(), "change": args.change.resolve()}
        rounds = compare.MIN_PAIRS

    metrics = end_to_end_metrics()
    names = [m["name"] for m in metrics]
    records = {label: [] for label in sides}
    seeds = [args.seed + i for i in range(rounds)]
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for label in order:
            records[label] += bench_once(sides[label], seed)
            print("round %d seed %d: %s done" % (i + 1, seed, label), flush=True)

    first = next(iter(records.values()))[0]
    doc = {
        "bench": args.number,
        "command": "python3 bench/run.py --workload all --trace 0 --seed SEED",
        "seconds": first["seconds"],
        "seeds": seeds,
        "sides": {},
    }
    for label, path in sides.items():
        doc["sides"][label] = side(records[label], names, path)
        doc["sides"][label]["tier1"] = tier1(path)
        print("tier-1 %s done" % label, flush=True)
    if args.change is not None:
        doc["comparison"] = comparison(records["parent"], records["change"], metrics)
    with open(out, "x", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print("wrote %s" % out)
    bad = any(r["failed"] for rs in records.values() for r in rs)
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
