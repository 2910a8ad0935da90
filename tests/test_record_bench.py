"""tools/record_bench.py summarizes benchmark records into a BENCH file.

The summarizer reads records in the form bench/run.py appends to
bench/out/results.jsonl; synthetic ones stand in here, since no benchmark
runs inside the tests.  Every BENCH_*.json at the repository root must
carry at least three samples per metric.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(record_bench)

NAMES = [m["name"] for m in record_bench.end_to_end_metrics()]


def synthetic_record(workload, seed, scale):
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "failed": 0,
        "attempted": 10,
        "passes": 3,
        "metrics": {name: scale * (k + 1) for k, name in enumerate(NAMES)},
        "raw": {"wall_s": scale},
        "env": {"git_sha": "0" * 40},
    }


def write_results(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def test_summary_of_synthetic_results_has_every_metric_with_three_samples(tmp_path):
    results = tmp_path / "results.jsonl"
    write_results(
        results,
        [synthetic_record(w, seed, seed) for seed in (1, 2, 3, 4) for w in ("a", "b")],
    )
    summary = record_bench.summarize(record_bench.compare.load_records(results), NAMES)
    assert list(summary) == ["a", "b"]
    for per in summary.values():
        assert set(per) == set(NAMES)
        for k, name in enumerate(NAMES):
            stats = per[name]
            assert stats["n"] == 4
            assert stats["median"] == pytest.approx(2.5 * (k + 1))
            assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert stats["iqr"] == pytest.approx(stats["q3"] - stats["q1"])


def test_fewer_than_three_samples_are_refused(tmp_path):
    results = tmp_path / "results.jsonl"
    write_results(results, [synthetic_record("a", seed, 1.0) for seed in (1, 2)])
    with pytest.raises(ValueError, match="2 samples, fewer than 3"):
        record_bench.summarize(record_bench.compare.load_records(results), NAMES)


def test_comparison_rows_pair_the_sides_by_seed():
    parent = [synthetic_record("a", seed, 2.0) for seed in range(10)]
    change = [synthetic_record("a", seed, 1.0) for seed in range(10)]
    metrics = record_bench.end_to_end_metrics()
    rows = record_bench.comparison(parent, change, metrics)
    assert [(r["workload"], r["metric"], r["pairs"]) for r in rows] == [
        ("a", name, 10) for name in NAMES
    ]
    assert {r["verdict"] for r in rows} == {"gain"}


def fake_run(returncode, workloads):
    """A stand-in for subprocess.run that appends one record per workload
    to the checkout's results.jsonl and exits with returncode."""

    def run(cmd, cwd, **kwargs):
        results = Path(cwd) / "bench" / "out" / "results.jsonl"
        if workloads:
            results.parent.mkdir(parents=True, exist_ok=True)
            with open(results, "a", encoding="utf-8") as fh:
                for w in workloads:
                    fh.write(json.dumps(synthetic_record(w, 7, 1.0)) + "\n")
        return record_bench.subprocess.CompletedProcess(cmd, returncode, None, "boom")

    return run


def test_a_run_keeps_one_record_per_workload_and_skips_earlier_ones(tmp_path, monkeypatch):
    names = record_bench.workloads()
    monkeypatch.setattr(record_bench.subprocess, "run", fake_run(0, names))
    record_bench.bench_once(tmp_path, 7)
    monkeypatch.setattr(record_bench.subprocess, "run", fake_run(1, names))
    records = record_bench.bench_once(tmp_path, 7)
    assert [r["workload"] for r in records] == names


@pytest.mark.parametrize(
    "returncode, appended",
    [(1, []), (1, ["corpus_theorems"]), (2, []), (0, ["corpus_theorems"] * 3), (-9, None)],
    ids=["crash-wrote-nothing", "crash-wrote-one", "could-not-run", "wrong-records", "killed"],
)
def test_a_run_that_crashed_or_appended_other_records_stops_the_tool(
    tmp_path, monkeypatch, returncode, appended
):
    if appended is None:
        appended = record_bench.workloads()
    monkeypatch.setattr(record_bench.subprocess, "run", fake_run(returncode, appended))
    with pytest.raises(RuntimeError, match="benchmark exited %d" % returncode):
        record_bench.bench_once(tmp_path, 7)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_landed_bench_files_have_three_samples_per_metric(path):
    doc = json.loads(path.read_text())
    assert doc["sides"]
    for side in doc["sides"].values():
        assert side["git_sha"] and side["tier1"]["raw_s"] > 0
        assert set(side["summary"]) == {"corpus_theorems", "lemma_battery", "tower_certify"}
        for per in side["summary"].values():
            assert set(per) == set(NAMES)
            assert all(stats["n"] >= 3 for stats in per.values())
