"""The benchmark's own checks.  Run with: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

COUNTED = """
import json, sys
sys.path.insert(0, %r)
import worker
golden, items = worker.setup("tower_certify", 3)
counts, result = worker.counted_pass("tower_certify", items[:8], golden)
print(json.dumps({"counts": counts, "failures": result.failures}))
""" % str(HERE)


def _counted_in_fresh_process():
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", COUNTED], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_counted_passes_give_identical_counts():
    first = _counted_in_fresh_process()
    second = _counted_in_fresh_process()
    assert first["failures"] == []
    assert first["counts"] == second["counts"]
    assert first["counts"]["permutation.mul_calls"] > 0
    assert first["counts"]["bsgs.builds"] > 0


def test_a_changed_output_or_an_exception_fails_its_item():
    workloads.import_package()
    golden = workloads.load_golden()
    items = workloads.make_items("tower_certify", 0, golden)[:3]
    assert workloads.run_pass(items, golden, "tower_certify").failures == []

    tampered = {"tower_certify": dict(golden["tower_certify"])}
    tampered["tower_certify"][items[0].key] = "0" * 64

    def boom():
        raise RuntimeError("boom")

    broken = items + [workloads.Item("k", "raiser", boom)]
    failures = workloads.run_pass(broken, tampered, "tower_certify").failures
    assert len(failures) == 2
    assert "digest" in failures[0] and "RuntimeError" in failures[1]


def _records(values):
    return [{"workload": "w", "seed": s, "trace": 0, "failed": 0, "metrics": {"wall_s": v}}
            for s, v in enumerate(values)]


def test_compare_verdicts():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    parent = _records([10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05])

    def verdict(values):
        return compare.verdict(metric, compare.pair_up(parent, _records(values), "w"))["verdict"]

    assert verdict([8.0] * 10) == "gain"
    assert verdict([12.0] * 10) == "regression"
    assert verdict([10.0] * 10) == "same"
    noisy = _records([6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 10.0])
    rows = compare.verdict(metric, compare.pair_up(noisy, _records([10.5] * 10), "w"))
    assert rows["verdict"] == "unresolved"
