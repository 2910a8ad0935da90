"""One benchmark process: set up a workload, then run it.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is "setup" (set up, then exit), "run" (timed passes with tracing off)
or "trace" (kernel microbenchmark, a counting pass, an untraced pass and a
traced pass).  The process prints one JSON object as its last line.  Set-up
ends when the inputs and golden digests are ready; the moment is reported
on the system-wide monotonic clock so that the parent, which started the
process, can time interpreter start, package import and input generation.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"

# harness.classify_s.<group> is reported for these, the largest corpus
# groups still in corpus_theorems
LARGE_GROUPS = ("sz8", "sl2_9", "psl34_phi_ext", "psl3_4")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(workload: str, seed: int):
    workloads.import_package()
    golden = workloads.load_golden()
    items = workloads.make_items(workload, seed, golden)
    return golden, items


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_mode(workload, seconds, state):
    """Whole passes until `seconds` have elapsed, at least one."""
    golden, items = state
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workloads.run_pass(items, golden, workload))
    return {
        "passes": len(passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "raw_cpu_s": statistics.median(p.raw_cpu_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": sum(p.attempted for p in passes),
        "failures": [f for p in passes for f in p.failures],
    }


def counted_pass(workload, items, golden):
    import tracing

    counter = tracing.Counter()
    with counter.active():
        result = workloads.run_pass(items, golden, workload)
    counts = dict(counter.counts)
    sifts = counts["bsgs.sifts"]
    counts["bsgs.insert_per_sift"] = counts["bsgs.inserts"] / sifts if sifts else 0.0
    return counts, result


def trace_mode(workload, seed, state):
    import kernel
    import tracing
    from cppo import lemmas

    golden, items = state
    metrics = dict(kernel.run(seed))
    # The counting pass goes first and warms the process up, so that the
    # untraced and traced passes compared for the overhead start alike.
    counts, counted = counted_pass(workload, items, golden)
    plain = workloads.run_pass(items, golden, workload)
    recorder = tracing.SpanRecorder()
    with recorder.active():
        traced = workloads.run_pass(items, golden, workload)
    recorder.write(OUT_DIR / ("spans-%s-%d.jsonl.gz" % (workload, seed)))

    self_times = recorder.self_times()
    for name in tracing.SPAN_POINTS:
        metrics[name + "_s"] = self_times.get(name, 0.0)
    # a lemma family is the top layer, so its inclusive time is the useful one
    inclusive = recorder.inclusive_times()
    for lid in lemmas.REGISTRY:
        metrics["lemmas.%s_s" % lid] = inclusive.get("lemmas." + lid, 0.0)
    per_group = recorder.inclusive_times(by_label=True)
    for name in LARGE_GROUPS:
        metrics["harness.classify_s." + name] = per_group.get(name, 0.0)
    metrics.update(counts)
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s - 1.0
    passes = (plain, traced, counted)
    return {
        "metrics": metrics,
        "attempted": sum(p.attempted for p in passes),
        "failures": [f for p in passes for f in p.failures],
    }


def main(argv) -> int:
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if workload not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r" % workload)
    state = setup(workload, seed)
    ready_at = monotonic()
    if mode == "setup":
        out = {}
    elif mode == "run":
        out = run_mode(workload, seconds, state)
    elif mode == "trace":
        out = trace_mode(workload, seed, state)
    else:
        raise SystemExit("unknown mode %r" % mode)
    out["ready_at"] = ready_at
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
