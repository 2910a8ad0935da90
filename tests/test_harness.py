"""Classification reports, suite runners, and the structured results format."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cppo import harness, permutation, structure
from cppo.arith import is_prime_power
from cppo.atlas import build, load_group_spec
from cppo.corpus import INSOLUBLE_AND_LARGE
from cppo.errors import SchemaError, TowerDefectError
from cppo.group import FiniteGroup, QuotientGroup
from cppo.harness import (
    SCHEMA_VERSION,
    ClassificationReport,
    classify,
    full_suite_to_text,
    lemma_suite_to_text,
    load_results,
    persist_results,
    reports_to_text,
    run_full_suite,
    run_lemma_suite,
    run_theorem_suite,
    skipped_fields,
    theorem_suite_to_text,
)
from cppo.structure import SeriesChain, identify_simple_eppo, upper_fitting_series

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"

TINY_DOCS = [
    {"atlas": "q8"},
    {"atlas": "dihedral", "params": [12]},
    {"atlas": "alt", "params": [5]},
]


def test_classify_computes_element_orders_per_class(monkeypatch):
    """Orders are constant on a class, so classify of the EPPO group sz8
    (11 classes, 29120 elements) computes a few per class, not one per
    element or commutator."""
    calls = []
    real = permutation.order_raw

    def counting(x, base=None):
        calls.append(x)
        return real(x, base)

    for name, module in list(sys.modules.items()):
        if name.startswith("cppo") and getattr(module, "order_raw", None) is real:
            monkeypatch.setattr(module, "order_raw", counting)
    g = build("sz8").group
    r = classify(g)
    assert r.theorem2 == "pass"
    assert len(g._raw_classes()) == 11
    assert 0 < len(calls) <= 3 * 11


def test_classify_the_trivial_group_past_the_bytes_kernel():
    # degree 300 holds tuples, and the trivial group's chain has no base point
    r = classify(FiniteGroup([], degree=300))
    assert (r.order, r.is_cppo, r.theorem1) == (1, True, "pass")


@pytest.mark.parametrize("atlas_id, kernel_orders", [("sl2_5", [2]), ("sym(5)", [])])
def test_classify_forms_only_the_quotients_of_the_series(monkeypatch, atlas_id, kernel_orders):
    # SL(2,5) is perfect with R = Z(SL(2,5)) of order 2, so its series forms
    # G/R once and classify reads G'/R(G') from it; S5 and A5 have trivial
    # radicals, so no quotient is formed at all
    kernels = []
    init = QuotientGroup.__init__

    def counting(self, *args, **kwargs):
        kernels.append(kwargs["kernel"].order())
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuotientGroup, "__init__", counting)
    classify(build(atlas_id).group)
    assert kernels == kernel_orders


@pytest.mark.parametrize(
    "atlas_id, radical_order",
    [("sl2_5", 2), ("direct_product(sym(4),alt(5))", 12)],
)
def test_classify_identifies_the_top_quotient_of_the_series(monkeypatch, atlas_id, radical_order):
    # G'/R(G') is (G/R(G))', the derived subgroup of the last quotient of G's
    # own series; for the perfect SL(2,5) that is the quotient itself
    received = []

    def recording(group):
        received.append(group)
        return identify_simple_eppo(group)

    monkeypatch.setattr(harness, "identify_simple_eppo", recording)
    g = build(atlas_id).group
    r = classify(g)
    series = upper_fitting_series(g)
    assert len(received) == 1
    assert received[0] is series.quotients[len(series.terms) - 1].derived_subgroup()
    assert r.simple_quotient == "PSL2_4" and r.derived_radical_order == radical_order


@pytest.mark.parametrize(
    "atlas_id, fields",
    [
        ("direct_product(sym(4),alt(5))", (12, False, 12, "PSL2_4")),
        ("direct_product(sl2_3,sym(5))", (8, True, 8, "PSL2_4")),
        ("direct_product(q8,pgl2_9)", (2, True, 1, "PSL2_9")),
    ],
)
def test_classify_reads_the_derived_radical_off_the_radical_of_g(atlas_id, fields):
    # insoluble, not perfect and R(G) != 1, which no corpus group is:
    # R(G') = G' n R(G), so |R(G')| = |G'| / |(G/R(G))'|
    r = classify(build(atlas_id).group)
    assert not r.is_perfect and r.radical_order > 1
    assert (
        r.derived_radical_order,
        r.derived_radical_is_2_group,
        r.derived_radical_closure_order,
        r.simple_quotient,
    ) == fields


@pytest.mark.parametrize("atlas_id", ["pgl2_9", "direct_product(sym(4),alt(5))"])
def test_classify_builds_one_upper_fitting_series(monkeypatch, atlas_id):
    built = []
    init = SeriesChain.__init__

    def counting(self, *args, **kwargs):
        # only the upper Fitting series keeps quotients
        built.append("quotients" in kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SeriesChain, "__init__", counting)
    classify(build(atlas_id).group)
    assert built.count(True) == 1


def test_classify_of_insoluble_corpus_groups_needs_no_normal_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("the normal-subgroup lattice was computed")

    monkeypatch.setattr(structure, "normal_subgroups", refuse)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["corpus_theorems"]
    checked = 0
    for doc in INSOLUBLE_AND_LARGE:
        g = load_group_spec(dict(doc))
        if g.order() > 30_000:
            continue
        text = reports_to_text([classify(g)])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == golden[json.dumps(doc, sort_keys=True)], g.name
        checked += 1
    assert checked == 20


def test_classify_s4():
    r = classify(build("s4").group)
    assert r.name == "sym(4)"
    assert r.order == 24 and r.primes == [2, 3]
    assert r.is_soluble and not r.is_perfect
    assert r.is_eppo is True and r.is_cppo is True
    assert r.derived_order == 12 and r.derived_primes == [2, 3]
    assert r.derived_is_eppo is True
    assert r.radical_order == 24
    assert r.fitting_height == 3 and r.tower_height == 3
    assert [p for p, _ in r.tower_witness] == [2, 3, 2]
    assert r.theorem1 == "pass" and r.theorem2 == "not_applicable"
    assert r.witnesses == {}


def test_classify_reports_a_tower_defect_and_still_checks_theorem1(monkeypatch):
    def defect(G):
        raise TowerDefectError("no tower realizing fitting height 3 was found")

    monkeypatch.setattr(harness, "find_max_tower", defect)
    r = classify(build("s4").group)
    assert r.tower_height == "defect: no tower realizing fitting height 3 was found"
    assert r.tower_witness is None
    assert r.fitting_height == 3 and r.theorem1 == "pass"


def test_classify_commutator_counterexample():
    r = classify(build("dihedral(12)").group)
    assert r.is_cppo is False and r.is_eppo is False
    assert r.witnesses["cppo"]["order"] == 6
    assert not is_prime_power(r.witnesses["eppo"]["order"])
    # verdicts only apply to groups with the commutator property
    assert r.theorem1 == "not_applicable" and r.theorem2 == "not_applicable"
    # the witness entries are strings a reader can replay
    assert "(" in r.witnesses["cppo"]["left"]


def test_classify_a5():
    r = classify(build("alt(5)").group)
    assert not r.is_soluble and r.is_perfect
    assert r.is_eppo is True and r.is_cppo is True
    assert r.fitting_height is None and r.tower_height is None
    assert r.second_derived_equals_derived is True
    assert r.derived_radical_order == 1
    assert r.derived_radical_is_2_group is True
    assert r.derived_radical_closure_order == 1
    assert r.simple_quotient == "PSL2_4"
    assert r.theorem1 == "not_applicable" and r.theorem2 == "pass"


def test_classify_quasisimple_near_miss():
    r = classify(build("sl2_5").group)
    assert r.is_cppo is False
    assert not is_prime_power(r.witnesses["cppo"]["order"])
    assert r.theorem2 == "not_applicable"


def test_low_cap_produces_skip_markers():
    r = classify(build("s4").group.with_cap(10))
    marker = "skipped: too large (cap=10)"
    assert r.is_eppo == marker and r.is_cppo == marker
    assert r.tower_height == marker
    # one budget: R(G) and the Fitting height need G's elements too
    assert r.radical_order == marker and r.fitting_height == marker
    # the chain-only structural facts are still present
    assert r.order == 24 and r.derived_order == 12
    assert r.theorem1 == "not_applicable"


def test_low_cap_skips_simple_quotient_identification():
    r = classify(build("alt(5)").group.with_cap(30))
    marker = "skipped: too large (cap=30)"
    assert r.radical_order == marker
    assert r.simple_quotient == marker
    assert r.theorem2 == "not_applicable"


def test_group_cap_below_the_order_gives_skip_markers():
    s4 = FiniteGroup(build("s4").group.generators, degree=4, cap=20)
    marker = "skipped: too large (cap=20)"
    r = classify(s4)
    assert r.radical_order == marker and r.fitting_height == marker
    assert r.is_eppo == marker and r.is_cppo == marker and r.tower_height == marker
    assert r.order == 24 and r.derived_order == 12
    assert r.theorem1 == "not_applicable" and r.theorem2 == "not_applicable"
    assert [f for f, _ in skipped_fields(r)] == [
        "is_eppo", "is_cppo", "radical_order", "fitting_height", "tower_height"
    ]


def test_group_cap_skips_the_derived_radical_block():
    a5 = FiniteGroup(build("alt(5)").group.generators, degree=5, cap=30)
    r = classify(a5)
    marker = "skipped: too large (cap=30)"
    assert r.radical_order == marker and r.fitting_height is None
    # G'' needs no enumeration, so it is exact past the cap
    assert r.second_derived_equals_derived is True
    assert r.derived_radical_order == r.derived_radical_closure_order == marker
    assert r.derived_radical_is_2_group == r.simple_quotient == marker
    assert r.theorem2 == "not_applicable"


def test_theorem_suite_on_a_tiny_corpus():
    suite = run_theorem_suite(TINY_DOCS)
    assert suite.ok and suite.skips == []
    assert [r.name for r in suite.reports] == ["q8", "dihedral(12)", "alt(5)"]
    assert [r.theorem1 for r in suite.reports] == ["pass", "not_applicable", "not_applicable"]
    assert [r.theorem2 for r in suite.reports] == ["not_applicable", "not_applicable", "pass"]


def test_strict_mode_promotes_skips():
    relaxed = run_theorem_suite(TINY_DOCS, cap=30)
    assert relaxed.ok and relaxed.skips
    strict = run_theorem_suite(TINY_DOCS, cap=30, strict=True)
    assert not strict.ok
    assert all(f.startswith("strict: ") for f in strict.failures)
    assert len(strict.failures) == len(relaxed.skips)


def test_lemma_suite_runner():
    checks = run_lemma_suite(["cc_iii", "quasisimple_negative"])
    assert {c.lemma_id for c in checks} == {"cc_iii", "quasisimple_negative"}
    assert all(c.status == "pass" for c in checks)
    with pytest.raises(ValueError):
        run_lemma_suite(["no_such_family"])


def test_full_suite_combines_both_halves():
    result = run_full_suite(TINY_DOCS, ids=["cc_iii"])
    assert result.ok
    text = full_suite_to_text(result)
    payload = json.loads(text)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["failures"] == [] and len(payload["lemma_checks"]) >= 3


def test_results_roundtrip(tmp_path):
    suite = run_theorem_suite(TINY_DOCS)
    path = tmp_path / "results.json"
    persist_results(suite.reports, path)
    back = load_results(path)
    assert back == suite.reports


def test_roundtrip_preserves_skip_markers(tmp_path):
    suite = run_theorem_suite(TINY_DOCS, cap=30)
    path = tmp_path / "results.json"
    persist_results(suite.reports, path)
    back = load_results(path)
    assert back == suite.reports
    assert any(
        isinstance(r.is_eppo, str) and r.is_eppo == "skipped: too large (cap=30)"
        for r in back
    )


def test_empty_results_roundtrip(tmp_path):
    path = tmp_path / "empty.json"
    persist_results([], path)
    assert load_results(path) == []


def test_load_results_schema_validation(tmp_path):
    path = tmp_path / "results.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(SchemaError):
        load_results(path)
    path.write_text(json.dumps({"schema_version": 99, "reports": []}))
    with pytest.raises(SchemaError):
        load_results(path)
    path.write_text("{broken")
    with pytest.raises(SchemaError):
        load_results(path)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "reports": [{"name": "x", "order": 1, "primes": [], "is_soluble": True,
                     "is_perfect": False, "mystery_field": 7}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_results(path)


def test_structured_text_is_deterministic():
    a = theorem_suite_to_text(run_theorem_suite(TINY_DOCS))
    b = theorem_suite_to_text(run_theorem_suite(TINY_DOCS))
    assert a == b
    assert a.endswith("\n")
    c = lemma_suite_to_text(run_lemma_suite(["cc_iii"]))
    d = lemma_suite_to_text(run_lemma_suite(["cc_iii"]))
    assert c == d


def test_reports_to_text_key_order_is_fixed():
    text = reports_to_text([classify(build("q8").group)])
    keys = list(json.loads(text)["reports"][0])
    assert keys == [f for f in ClassificationReport.__dataclass_fields__]
