"""The lemma check families: registry shape, the registry as the one maker
of records, determinism, a clean sweep whose bytes match the benchmark's
golden digests, the affine instances, and families reporting a failure on
instances where the claimed identity is false."""

import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

from cppo import lemmas
from cppo.atlas import build
from cppo.harness import lemma_checks_to_doc
from cppo.lemmas import MICRO_SUITE, REGISTRY, LemmaCheck, _affine

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden.json"
LEMMAS = ROOT / "src" / "cppo" / "lemmas.py"

EXPECTED_IDS = {
    "cc_i",
    "cc_ii",
    "cc_iii",
    "cc_v",
    "cc_vi",
    "kurzweil",
    "acnoncop",
    "orderofav",
    "autoofextra",
    "autodoquaternion",
    "aaa_scenario",
    "opelinha",
    "directproduct",
    "solubleperfect",
    "existelemabelqsub",
    "quasisimple_negative",
    "ore_spotcheck",
    "casolo_quotient",
    "p3_noncyclic",
}


def test_registry_is_complete():
    assert set(REGISTRY) == EXPECTED_IDS
    assert set(MICRO_SUITE) <= EXPECTED_IDS
    assert len(MICRO_SUITE) == len(set(MICRO_SUITE))


# minimum instance counts per family; the builders may grow but not shrink
FLOOR = {
    "cc_i": 13,
    "cc_ii": 13,
    "cc_iii": 3,
    "cc_v": 3,
    "cc_vi": 4,
    "kurzweil": 11,
    "acnoncop": 5,
    "orderofav": 11,
    "autoofextra": 2,
    "autodoquaternion": 10,
    "aaa_scenario": 4,
    "opelinha": 80,
    "directproduct": 6,
    "solubleperfect": 9,
    "existelemabelqsub": 12,
    "quasisimple_negative": 2,
    "ore_spotcheck": 5,
    "casolo_quotient": 30,
    "p3_noncyclic": 4,
}


@pytest.mark.parametrize("lemma_id", sorted(EXPECTED_IDS))
def test_family_passes_cleanly(lemma_id):
    checks = REGISTRY[lemma_id](seed=0)
    assert len(checks) >= FLOOR[lemma_id]
    for c in checks:
        assert isinstance(c, LemmaCheck)
        assert c.lemma_id == lemma_id
        assert c.instance
        assert c.status == "pass", (c.instance, c.witness)
    # the report bytes are the ones the benchmark recorded; this only reads the file
    text = json.dumps(lemma_checks_to_doc(checks), sort_keys=True)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["lemma_battery"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == golden["seed0/" + lemma_id]


def test_the_registry_makes_every_record():
    """Families yield verdicts; one call in the package builds a LemmaCheck,
    and no family names its lemma id or a status."""
    sites = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(LEMMAS.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LemmaCheck"
    ]
    assert len(sites) == 1 and sites[0].startswith("lemmas.py:"), sites
    tree = ast.parse(LEMMAS.read_text(encoding="utf-8"))
    forbidden = set(REGISTRY) | {"pass", "fail"}
    named = [
        (fn.name, node.value)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and node.value in forbidden
    ]
    assert named == []


def test_each_registry_entry_returns_a_list():
    """The entries run eagerly, so a timer wrapped around one sees all its work."""
    for lemma_id, run in REGISTRY.items():
        assert isinstance(run(seed=0), list), lemma_id


def test_micro_suite_reaches_one_hundred_instances():
    total = sum(len(REGISTRY[i](seed=0)) for i in MICRO_SUITE)
    assert total >= 100


def test_same_seed_means_same_checks():
    a = REGISTRY["orderofav"](seed=3)
    b = REGISTRY["orderofav"](seed=3)
    assert [(c.instance, c.status, c.witness) for c in a] == [
        (c.instance, c.status, c.witness) for c in b
    ]


def test_kurzweil_notes_the_quaternion_exception():
    checks = REGISTRY["kurzweil"](seed=0)
    noted = [c for c in checks if "quaternion" in str(c.witness)]
    assert noted, "the Q8 fixed-point-free action should be flagged"


@pytest.mark.parametrize("qs", [(4,), (5,), (7,), (8,), (9,), (5, 7), (4, 4), (5, 5), (9, 9)])
def test_affine_splits_translations_from_scalings(qs):
    amb, trans, scales = _affine(*qs)
    assert amb.order() == math.prod(q * (q - 1) for q in qs)
    assert trans.order() == math.prod(qs)
    assert trans.is_abelian()
    assert trans.normalized_by(amb._raw_gens)
    assert len(scales) == len(qs)
    for q, s in zip(qs, scales):
        assert s.order() == q - 1
        assert s in amb and s not in trans


# ---------------------------------------------------------------------------
# families that can fail: each instance source is swapped for one on which
# the claimed identity is false, so the family must report it


def _d8_rotations_and_a_reflection():
    """D8 with G = <r> and A = <s>: not a coprime pair, so [G, A, A] < [G, A]
    and the fixed points of A on G/<r^2> are more than N C_G(A)."""
    d8 = build("dihedral(4)").group
    rot, ref = d8.generators
    return d8, d8.subgroup([rot]), d8.subgroup([ref]), d8.subgroup([rot * rot])


def test_cc_ii_reports_a_pair_whose_commutator_span_shrinks(monkeypatch):
    amb, g, a, _ = _d8_rotations_and_a_reflection()
    monkeypatch.setattr(lemmas, "_coprime_pairs", lambda: [("d8", amb, g, a)])
    monkeypatch.setattr(lemmas, "_check_action_preconditions", lambda amb, g, a: None)
    assert list(lemmas.check_cc_ii(0)) == [("d8", False, {"once": 2, "twice": 1})]


def test_cc_iii_reports_fixed_points_beyond_n_times_the_centralizer(monkeypatch):
    amb, g, a, n = _d8_rotations_and_a_reflection()
    monkeypatch.setattr(lemmas, "_cc_iii_instances", lambda: [("d8", amb, g, a, n)])
    monkeypatch.setattr(lemmas, "_check_action_preconditions", lambda amb, g, a: None)
    assert list(lemmas.check_cc_iii(0)) == [("d8", False, {"lhs": 4, "rhs": 2})]


def test_ore_spotcheck_reports_a_group_with_non_commutators(monkeypatch):
    monkeypatch.setattr(lemmas, "build", lambda spec: build("sym(3)"))
    results = list(lemmas.check_ore_spotcheck(0))
    assert results and all(
        not passed and witness == {"commutators": 3, "order": 6} for _, passed, witness in results
    )


def test_quasisimple_negative_reports_a_cppo_quasisimple_group(monkeypatch):
    # PSL(2,7) is simple, so quasisimple, and all its commutators have prime-power order
    monkeypatch.setattr(lemmas, "build", lambda spec: build(("psl2", [7])))
    results = list(lemmas.check_quasisimple_negative(0))
    assert results and all(
        not passed and witness == {"witness_order": None} for _, passed, witness in results
    )
