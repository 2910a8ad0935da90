"""Run the cppo benchmark and print its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads: corpus_theorems, lemma_battery, tower_certify (see README.md);
"all" runs the three in turn.  With --trace 0 each workload is set up in
SETUP_SAMPLES fresh processes; the last one then runs whole passes for at
least --seconds seconds, and the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb) are printed by name with their units, together with the
error rate.  With --trace 1 one process runs the kernel microbenchmark, a
counting pass, an untraced pass and a traced pass, and the per-layer
metrics are printed instead.

Every item's output is checked against bench/golden.json.  The last line of
output is one JSON object with the keys correct, attempted, failed and
metrics; each run is also appended, with its environment, to
bench/out/results.jsonl for bench/compare.py.  The exit code is 1 when an
item failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "out" / "results.jsonl"
WORKLOADS = ("corpus_theorems", "lemma_battery", "tower_certify")

SETUP_SAMPLES = 9
# one workload, all its processes included, must end inside the 180 s limit
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def declared_metrics() -> dict:
    """BENCHMARK.json metric name -> (unit, trace flag)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: (m["unit"], 0) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["unit"], 1) for m in spec["per_layer"]})
    return out


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float):
    """Run one worker process.

    Returns its result, its raw set-up time, and that time rescaled by the
    calibration loop run here just before and just after the process.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = calibration.measure()[0]
    started = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), mode, workload, str(seed), repr(seconds)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s worker for %s passed the %.0f s deadline" % (mode, workload, DEADLINE_S))
    if proc.returncode != 0:
        raise BenchError("%s worker for %s exited %d:\n%s" % (mode, workload, proc.returncode, err[-3000:]))
    result = json.loads(out.strip().splitlines()[-1])
    raw = result["ready_at"] - started
    return result, raw, raw * calibration.factor(before, calibration.measure()[0])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = monotonic() + DEADLINE_S
    raw = {}
    if trace:
        result = spawn("trace", workload, seed, seconds, deadline)[0]
        metrics = result["metrics"]
    else:
        samples = [spawn("setup", workload, seed, seconds, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
        samples.append(spawn("run", workload, seed, seconds, deadline))
        result = samples[-1][0]
        metrics = {
            "setup_s": statistics.median(s[2] for s in samples),
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        raw = {
            "setup_s": statistics.median(s[1] for s in samples),
            "wall_s": result["raw_wall_s"],
            "cpu_s": result["raw_cpu_s"],
        }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": result.get("passes", 1),
        "metrics": metrics,
        "raw": raw,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"],
    }


def report(record: dict, declared: dict) -> None:
    wanted = {n for n, (_, t) in declared.items() if t == record["trace"]}
    got = set(record["metrics"])
    if got != wanted:
        raise BenchError("%s metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            record["workload"], sorted(wanted - got), sorted(got - wanted)))
    print("%s  seed=%d  trace=%d" % (record["workload"], record["seed"], record["trace"]))
    for name in sorted(record["metrics"]):
        print("  %-40s %14.6g %s" % (name, record["metrics"][name], declared[name][0]))
    for name in sorted(record["raw"]):
        print("  %-40s %14.6g as measured, before calibration" % ("raw." + name, record["raw"][name]))
    print("  %-40s %14.6g ratio (%d failed of %d items)" % (
        "error_rate", record["failed"] / record["attempted"], record["failed"], record["attempted"]))
    for line in record["failures"][:20]:
        print("  FAILED " + line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    env = environment()
    try:
        declared = declared_metrics()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in names:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
            record["env"] = env
            report(record, declared)
            records.append(record)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2

    RESULTS.parent.mkdir(exist_ok=True)
    with open(RESULTS, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    for r in records:
        for name, value in r["metrics"].items():
            key = "%s.%s" % (r["workload"], name) if len(records) > 1 else name
            metrics[key] = {"value": value, "unit": declared[name][0]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
