"""The lemma check families: registry shape, the registry as the one maker
of records, determinism, a clean sweep whose bytes match the benchmark's
golden digests, and the affine instances."""

import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

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
