"""The benchmark's tracing hooks still name real entry points of the package.

bench/tracing.py rebinds package functions and methods by name to time and
count each layer.  Renaming one of them would break the traced benchmark
run without failing anything under tests/, so this file resolves every name
it lists.  The benchmark file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cppo import FiniteGroup, parse_permutation, towers

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

POINTS = sorted(
    {
        point
        for table in (tracing.SPAN_POINTS, tracing.COUNT_POINTS)
        for points in table.values()
        for point in points
    }
)


@pytest.mark.parametrize("point", POINTS, ids=".".join)
def test_hooked_name_resolves(point):
    module = importlib.import_module("cppo." + point[0])
    if len(point) == 2:
        assert callable(getattr(module, point[1]))
    else:
        cls = getattr(module, point[1])
        # the rebinder replaces the entry in the class's own namespace
        assert point[2] in vars(cls)


def test_each_closure_entry_point_counts_once():
    s4 = FiniteGroup([parse_permutation(t, 4) for t in ("(1 2)", "(1 2 3 4)")], degree=4)
    x = parse_permutation("(1 2 3)", 4).raw
    counter = tracing.Counter()
    with counter.active():
        s4._normal_closure_raw([x])
        s4._subgroup_from_raw_elements([x])
        towers._closure_under_conjugation(s4, [x], s4._raw_gens)
    assert counter.counts["group.closures"] == 3
