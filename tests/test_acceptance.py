"""The acceptance gate.

One test per criterion, run in order.  Each timed criterion asserts its own
wall-clock bound, so a pass line here certifies both the mathematics and
the runtime.  The corpus-wide theorem and lemma sweep runs once in a module
fixture; the determinism criterion repeats it from scratch.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from cppo.arith import is_prime_power
from cppo.atlas import build, exceptional_automorphism_witness, reproduce_psl34_commutators
from cppo.corpus import corpus_groups, default_corpus
from cppo.harness import full_suite_to_text, reports_to_text, run_full_suite
from cppo.lemmas import MICRO_SUITE
from cppo.permutation import comm_raw
from cppo.structure import fitting_height, is_soluble
from cppo.towers import (
    find_max_tower,
    is_irreducible_tower,
    tower_probe,
    validate_tower,
)

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.fixture(scope="module")
def full_run():
    result = run_full_suite(default_corpus(), seed=0)
    return result, full_suite_to_text(result)


def test_criterion_01_commutator_set_matches_all_pairs_oracle():
    start = time.monotonic()
    small = [(n, g) for n, g in corpus_groups() if g.order() <= 200]
    assert len(small) >= 25
    names = " ".join(n for n, _ in small)
    for family in ("cyclic", "dihedral", "sym(4)", "sl2_3", "q8",
                   "extraspecial(3", "extraspecial(2", "agl1(5)", "agl1(7)", "alt(5)"):
        assert family in names, family
    for name, g in small:
        elems = [x.raw for x in g.elements()]
        oracle = {comm_raw(a, b) for a in elems for b in elems}
        assert {c.raw for c in g.commutator_set()} == oracle, name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print("criterion 1: PASS (%d groups, %.1fs)" % (len(small), elapsed))


def test_criterion_02_prime_power_element_order_list():
    start = time.monotonic()
    eppo_ids = ["psl2(4)", "psl2(7)", "psl2(8)", "psl2(9)", "psl2(17)", "psl3_4", "sz8"]
    for atlas_id in eppo_ids:
        assert build(atlas_id).group.is_eppo() is True, atlas_id
    for atlas_id in ["psl2(11)", "psl2(13)", "alt(7)", "alt(8)"]:
        assert build(atlas_id).group.is_eppo() is False, atlas_id
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    print("criterion 2: PASS (%.1fs)" % elapsed)


def test_criterion_03_every_element_is_a_commutator_in_small_psl2():
    for q in (4, 5, 7, 8, 9):
        g = build("psl2(%d)" % q).group
        assert g.commutator_set() == set(g.elements()), q
    print("criterion 3: PASS")


def test_criterion_04_soluble_height_and_prime_bounds(full_run):
    result, _ = full_run
    reports = result.theorems.reports
    soluble_cppo = [r for r in reports if r.is_soluble and r.is_cppo is True]
    assert soluble_cppo
    for r in soluble_cppo:
        assert r.theorem1 == "pass", r.name
        assert r.fitting_height <= 3 and len(r.derived_primes) <= 3, r.name
    assert not any("theorem1" in f for f in result.theorems.failures)
    sharp = [r for r in soluble_cppo if r.fitting_height == 3]
    assert any(r.name == "sym(4)" for r in sharp)
    print("criterion 4: PASS (%d soluble groups, height 3 attained)" % len(soluble_cppo))


def test_criterion_05_insoluble_structure_for_the_two_extensions(full_run):
    result, _ = full_run
    by_name = {r.name: r for r in result.theorems.reports}
    expectations = {"asl2_4": "PSL2_4", "m10": "PSL2_9"}
    for name, tag in expectations.items():
        r = by_name[name]
        assert r.second_derived_equals_derived is True, name
        assert r.derived_radical_is_2_group is True, name
        assert r.derived_radical_order == r.derived_radical_closure_order, name
        assert r.simple_quotient == tag, name
        assert r.theorem2 == "pass", name
    print("criterion 5: PASS (asl2_4 -> PSL2_4, m10 -> PSL2_9)")


def test_criterion_06_projective_plane_commutator_orders():
    start = time.monotonic()
    out = reproduce_psl34_commutators()
    assert out == {
        "c1_order": 2,
        "c1_delta_commutes": True,
        "g1_witness_order": 6,
        "c2_order": 2,
        "g2_witness_order": 6,
    }
    w1 = build("psl34_g1").group.cppo_witness()
    assert w1 is not None and not is_prime_power(w1.order)
    w2 = build("psl34_g2").group.cppo_witness()
    assert w2 is not None and not is_prime_power(w2.order)
    assert build("psl34_phi_ext").group.cppo_witness() is None
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print("criterion 6: PASS (%.1fs)" % elapsed)


def test_criterion_07_degree_ten_witness_has_order_3():
    x, t, order = exceptional_automorphism_witness()
    assert order == 3
    assert (~x * ~t * x * t).order() == 3
    print("criterion 7: PASS")


def test_criterion_08_tower_certification():
    start = time.monotonic()
    checked = 0
    for name, g in corpus_groups():
        if not is_soluble(g) or g.order() > 500:
            continue
        h, tower = find_max_tower(g)
        assert h == fitting_height(g), name
        assert validate_tower(tower).valid, name
        assert tower_probe(g, h + 1) is None, name
        if tower.height >= 3:
            for p, sub in tower.stages[2:]:
                assert not sub.is_cyclic(), name
        checked += 1
    s4 = build("s4").group
    _, witness = find_max_tower(s4)
    assert validate_tower(witness).valid
    assert is_irreducible_tower(witness).verdict == "yes"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("criterion 8: PASS (%d groups, %.1fs)" % (checked, elapsed))


def test_criterion_09_micro_suite_is_clean(full_run):
    result, _ = full_run
    micro = [c for c in result.lemmas if c.lemma_id in MICRO_SUITE]
    assert len(micro) >= 100
    assert all(c.status == "pass" for c in micro)
    assert not any(c.status == "undecided" for c in micro)
    assert any("quaternion" in str(c.witness) for c in micro if c.lemma_id == "kurzweil")
    print("criterion 9: PASS (%d instances)" % len(micro))


def test_criterion_10_byte_identical_reports(full_run):
    result_a, text_a = full_run
    result_b = run_full_suite(default_corpus(), seed=0)
    text_b = full_suite_to_text(result_b)
    assert result_a.ok and result_b.ok
    assert text_a.encode() == text_b.encode()
    print("criterion 10: PASS (%d bytes)" % len(text_a))


def test_reports_match_the_benchmark_golden_digests(full_run):
    # the benchmark's recorded sha256 of each corpus group's report text,
    # keyed by its spec document; psl34_g1 is left out of the benchmark
    result, _ = full_run
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["corpus_theorems"]
    docs = default_corpus()
    reports = result.theorems.reports
    assert len(reports) == len(docs)
    undigested = []
    for doc, rep in zip(docs, reports):
        key = json.dumps(doc, sort_keys=True)
        if key not in golden:
            undigested.append(rep.name)
            continue
        text = reports_to_text([rep])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden[key], rep.name
    assert undigested == ["psl34_g1"]
    assert len(golden) == len(docs) - 1
