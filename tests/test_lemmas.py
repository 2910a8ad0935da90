"""The lemma check families: registry shape, the registry as the one maker
of records, determinism, a clean sweep whose bytes match the benchmark's
golden digests, the affine instances, every verdict reporting a failure on
an instance where the claimed identity is false, and every instance check
a source makes refusing a bad instance."""

import ast
import gc
import hashlib
import json
import itertools
import math
import weakref
from pathlib import Path

import pytest

from cppo import lemmas
from cppo.arith import is_prime_power
from cppo.atlas import build
from cppo.errors import GroupError
from cppo.group import FiniteGroup
from cppo.harness import lemma_checks_to_doc
from cppo.lemmas import MICRO_SUITE, REGISTRY, LemmaCheck, _affine
from cppo.permutation import Permutation, identity_raw, mul_raw, order_raw
from cppo.permutation import parse_permutation as perm
from cppo.structure import _element_orders
from cppo.towers import (
    Tower,
    _commutator_span,
    _p_subgroup_sets,
    find_max_tower,
)

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
    """One call in the package builds a LemmaCheck, and no source or verdict
    that REGISTRY pairs names a lemma id or a status."""
    sites = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(LEMMAS.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LemmaCheck"
    ]
    assert len(sites) == 1 and sites[0].startswith("lemmas.py:"), sites
    tree = ast.parse(LEMMAS.read_text(encoding="utf-8"))
    registry = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REGISTRY"]
    )
    paired = {
        name.id
        for triple in ast.walk(registry)
        if isinstance(triple, ast.Tuple) and len(triple.elts) == 3
        for name in triple.elts[1:]
        if isinstance(name, ast.Name)
    }
    assert set(REGISTRY) <= paired
    forbidden = set(REGISTRY) | {"pass", "fail"}
    named = [
        (fn.name, node.value)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in paired
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


def test_s4_wreath_2_ambient_is_pinned():
    # S4 x S4 on points 1-4 and 5-8, each by (1 2) and (1 2 3 4), then the block swap
    amb = lemmas._s4_wreath_2()[0]
    assert [list(g.raw) for g in amb.generators] == [
        [1, 0, 2, 3, 4, 5, 6, 7],
        [1, 2, 3, 0, 4, 5, 6, 7],
        [0, 1, 2, 3, 5, 4, 6, 7],
        [0, 1, 2, 3, 5, 6, 7, 4],
        [4, 5, 6, 7, 0, 1, 2, 3],
    ]
    assert (amb.name, amb.degree, amb.order()) == ("s4wr2", 8, 1152)



def _existelemabelqsub_cases():
    cases = [(g, q) for _, g, q in lemmas._existelemabelqsub_instances(0)]
    return cases + [(build("cyclic(6)").group, 2)]


EXISTELEMABELQSUB_CASES = _existelemabelqsub_cases()
EXISTELEMABELQSUB_IDS = ["%s q=%d" % (g.name, q) for g, q in EXISTELEMABELQSUB_CASES]


def _elementary_abelian_gens(gens, p):
    """Whether the raw elements gens have order p and commute, that is,
    generate an elementary abelian p-group."""
    return all(order_raw(x) == p for x in gens) and all(
        mul_raw(a, b) == mul_raw(b, a) for a, b in itertools.combinations(gens, 2)
    )


def reference_existelemabelqsub(g, qprime):
    """existelemabelqsub as it searched before it tried the subgroups of
    order q first: every q-subgroup listed, normalizing tested on chains."""
    candidates = [
        gens for _, gens in _p_subgroup_sets(g, qprime) if _elementary_abelian_gens(gens, qprime)
    ]
    elems, orders = g._raw_elements(), _element_orders(g)
    for gens in candidates[:40]:
        cand = g._subgroup_raw(gens)
        size = cand.order()
        for a, o in zip(elems, orders):
            if o == 1 or not is_prime_power(o) or o % qprime == 0:
                continue
            if not cand.normalized_by([a]):
                continue
            if _commutator_span(g, [a], cand).order() == size:
                return True, {"q_order": size, "a_order": o}
    return False, {}


@pytest.mark.parametrize("g, q", EXISTELEMABELQSUB_CASES, ids=EXISTELEMABELQSUB_IDS)
def test_existelemabelqsub_matches_the_full_listing_reference(g, q):
    assert lemmas.existelemabelqsub(g, q) == reference_existelemabelqsub(g, q)


# ---------------------------------------------------------------------------
# verdicts that can fail: each verdict is called on an instance outside its
# lemma's hypotheses where the claimed conclusion is false


def _f2_cube(units):
    """F2^3 on its 8 points (bit i of a point is coordinate i + 1), with its
    translations and the unipotent maps v -> v(I + E_ij) for (i, j) in units."""

    def unipotent(i, j):
        return Permutation.from_zero_based(v ^ (((v >> (i - 1)) & 1) << (j - 1)) for v in range(8))

    trans = [Permutation.from_zero_based(v ^ (1 << k) for v in range(8)) for k in range(3)]
    mats = [unipotent(i, j) for i, j in units]
    amb = FiniteGroup(trans + mats, degree=8)
    return amb, amb.subgroup(trans), amb.subgroup(mats)


def _d8_rotations_and_a_reflection():
    """D8 with G = <r>, A = <s> and N = <r^2>: not a coprime pair, so
    [G, A] = N = C_G(A), [G, A, A] = 1, and A fixes all of G/N."""
    d8 = build("dihedral(4)").group
    rot, ref = d8.generators
    return d8, d8.subgroup([rot]), d8.subgroup([ref]), d8.subgroup([rot * rot])


def _s3_subgroups(*cycles):
    """S3 and the subgroup each cycle generates."""
    s3 = build("sym(3)").group
    return (s3, *(s3.subgroup([perm(c, 3)]) for c in cycles))


def _s3_under_a_3_cycle():
    s3, c3 = _s3_subgroups("(1 2 3)")
    return s3, s3, c3


def _cyclic2_and_its_generator():
    c2 = build("cyclic(2)").group
    return c2, c2, c2.generators[0].raw


def _q8_and_the_trivial_automorphism():
    q8 = build("q8").group
    return q8, identity_raw(q8.degree)


def _the_identity_automorphism_of_q8():
    elems, _ = lemmas._q8_automorphisms()
    return elems, [{x: x for x in elems}]


def _the_wreath_tower_upside_down():
    amb, p1, p2, p3 = lemmas._s4_wreath_2()
    return amb, p3, p2, p1


def _c6_with_a_trivial_centre():
    c6 = FiniteGroup([perm("(1 2 3)(4 5)", 5)])
    return c6, c6.trivial_subgroup()


def _s4_mod_a4_with_its_max_tower():
    s4 = build("s4").group
    return s4, find_max_tower(s4)[1], s4.derived_subgroup()


def _s4_tower_with_a_cyclic_third_stage():
    s4 = build("s4").group
    stages = find_max_tower(s4)[1].stages[:2] + [(2, s4.subgroup([perm("(1 2)(3 4)", 4)]))]
    return (Tower(s4, stages),)


def _one(spec):
    return lambda: (build(spec).group,)


# (lemma id, the verdict's arguments, its witness)
FAILING = [
    ("cc_i", lambda: _d8_rotations_and_a_reflection()[:3], {"comm_order": 2, "cent_order": 2}),
    ("cc_ii", lambda: _d8_rotations_and_a_reflection()[:3], {"once": 2, "twice": 1}),
    ("cc_iii", _d8_rotations_and_a_reflection, {"lhs": 4, "rhs": 2}),
    ("cc_v", lambda: _f2_cube([(1, 2), (1, 3)]), {"product_order": 4, "group_order": 8}),
    ("acnoncop", lambda: _f2_cube([(1, 3), (2, 3)]), {"intersection_order": 2}),
    ("cc_vi", _s3_under_a_3_cycle, {"2": "missing", "3": "found"}),
    ("orderofav", _cyclic2_and_its_generator, {"qualifying_elements": 1, "comm_order": 1}),
    (
        "kurzweil",
        _one("elem_abelian(2,2)"),
        {"note": "the permitted quaternion exception: noncyclic yet fixed point free"},
    ),
    ("autoofextra", _q8_and_the_trivial_automorphism, {"value_count": 1, "missed": 6}),
    ("autodoquaternion", _the_identity_automorphism_of_q8, {"u_found": False}),
    ("aaa_scenario", _the_wreath_tower_upside_down, {"hypotheses": False}),
    ("directproduct", _one("s4"), {"derived_order": 12}),
    ("opelinha", _c6_with_a_trivial_centre, {"p": None}),
    ("solubleperfect", lambda: (*_s3_subgroups(), perm("(1 2)", 3).raw), {"span_order": 3}),
    ("existelemabelqsub", lambda: (build("cyclic(6)").group, 2), {}),
    ("quasisimple_negative", _one("psl2(7)"), {"witness_order": None}),
    ("ore_spotcheck", _one("sym(3)"), {"commutators": 3, "order": 6}),
    ("casolo_quotient", _s4_mod_a4_with_its_max_tower, {"image_height": 2}),
    ("p3_noncyclic", _s4_tower_with_a_cyclic_third_stage, {"cyclic_stages": [3]}),
]


def test_every_verdict_has_a_failing_instance():
    assert sorted(row[0] for row in FAILING) == sorted(REGISTRY)


@pytest.mark.parametrize("lemma_id, args, witness", FAILING, ids=[row[0] for row in FAILING])
def test_verdict_fails_outside_its_hypotheses(lemma_id, args, witness):
    assert getattr(lemmas, lemma_id)(*args()) == (False, witness)


def test_directproduct_passes_a_product_that_is_not_cppo_as_out_of_scope():
    # a commutator of order 2 in Q8 beside one of order 3 in the Heisenberg group
    g = build("direct_product(q8,extraspecial(3,+))").group
    assert lemmas.directproduct(g) == (True, {"note": "not cppo, out of scope", "witness_order": 6})


# ---------------------------------------------------------------------------
# instance checks: each GroupError a source raises, reached through a stubbed
# builder that hands it one bad instance


def _c35_under_the_diagonal():
    """C35 under a cyclic group of order 12: coprime, fixed point free, cyclic."""
    amb, v, diag, _ = lemmas._c35()
    return amb, v, diag


def _c35_under_a_c5_scaling():
    """C35 under a scaling of its C5 part alone, which fixes the C7 part."""
    amb, v, (s1, _) = lemmas._affine(5, 7)
    return amb, v, amb.subgroup([s1])


@pytest.mark.parametrize(
    "instance, message",
    [
        (lambda: ("d8", *_d8_rotations_and_a_reflection()[:3]), "instance is not coprime"),
        (
            lambda: ("s3", *_s3_subgroups("(1 2)", "(1 2 3)")),
            "acting subgroup fails to normalize the instance",
        ),
    ],
    ids=["not-coprime", "not-normalizing"],
)
def test_actions_refuses_a_bad_action(instance, message):
    with pytest.raises(GroupError, match=message):
        list(lemmas._actions([instance()]))


@pytest.mark.parametrize(
    "lemma_id, message",
    [("cc_v", "cc_v instance out of scope"), ("acnoncop", "acnoncop instance out of scope")],
    ids=["cc_v", "acnoncop"],
)
def test_noncyclic_abelian_sources_refuse_a_cyclic_acting_group(monkeypatch, lemma_id, message):
    instance = ("c35", *_c35_under_the_diagonal())
    monkeypatch.setattr(lemmas, "_noncyclic_abelian_pairs", lambda: [instance])
    with pytest.raises(GroupError, match=message):
        REGISTRY[lemma_id](0)


def _f5_plane_under_dic3():
    """F5^2 with its translations and, acting on it freely, the dicyclic
    group of order 12 in SL(2,5): nonabelian and not of prime-power order."""

    def linear(m00, m01, m10, m11):
        return Permutation.from_zero_based(
            5 * ((x * m00 + y * m10) % 5) + (x * m01 + y * m11) % 5 for x in range(5) for y in range(5)
        )

    t1 = Permutation.from_zero_based(5 * ((x + 1) % 5) + y for x in range(5) for y in range(5))
    t2 = Permutation.from_zero_based(5 * x + (y + 1) % 5 for x in range(5) for y in range(5))
    dic3 = [linear(0, 4, 1, 4), linear(0, 2, 2, 0)]
    amb = FiniteGroup([t1, t2] + dic3, degree=25)
    return amb, amb.subgroup([t1, t2]), amb.subgroup(dic3)


@pytest.mark.parametrize(
    "plane, message",
    [
        (_c35_under_a_c5_scaling, "kurzweil instance is not fixed point free"),
        (_f5_plane_under_dic3, "kurzweil instance misses every hypothesis"),
    ],
    ids=["fixed-points", "nonabelian-non-p-group"],
)
def test_kurzweil_source_refuses_a_bad_action(monkeypatch, plane, message):
    amb, v, a = plane()
    monkeypatch.setattr(lemmas, "_affine_plane_3", lambda: (amb, v, a))
    with pytest.raises(GroupError, match=message):
        REGISTRY["kurzweil"](0)


def test_orderofav_source_refuses_an_element_of_order_dividing_the_group(monkeypatch):
    # AGL(1,4) in place of AGL(1,5): its first translation is taken for V and
    # its second for a, both of order 2
    monkeypatch.setattr(lemmas, "build", lambda spec: build("agl1(4)" if spec == "agl1(5)" else spec))
    with pytest.raises(GroupError, match="orderofav instance is not coprime"):
        REGISTRY["orderofav"](0)


@pytest.mark.parametrize(
    "P, phi, message",
    [
        ("(1 2 3)", "(3 4)", "automorphism fails to normalize the instance"),
        ("(1 2)(3 4)", "(1 3)(2 4)", "automorphism order is not coprime"),
        ("(1 2 3)", "(4)", "fixed points differ from the frattini subgroup"),
    ],
    ids=["not-normalizing", "not-coprime", "fixed-points"],
)
def test_autoofextra_source_refuses_a_bad_automorphism(monkeypatch, P, phi, message):
    pair = (FiniteGroup([perm(P, 4)]), perm(phi, 4))
    monkeypatch.setattr(lemmas, "_heisenberg_with_flip", lambda: pair)
    with pytest.raises(GroupError, match=message):
        REGISTRY["autoofextra"](0)


def test_autodoquaternion_source_counts_the_automorphisms_it_finds(monkeypatch):
    # C4 x C2 has 8 automorphisms, and the search for Q8's finds fewer than 24
    monkeypatch.setattr(lemmas, "build", lambda spec: build("direct_product(cyclic(4),cyclic(2))"))
    with pytest.raises(GroupError, match="expected 24 automorphisms of q8, found"):
        REGISTRY["autodoquaternion"](0)


def test_directproduct_source_refuses_an_abelian_factor(monkeypatch):
    monkeypatch.setattr(lemmas, "build", lambda spec: build("cyclic(2)" if spec == "q8" else spec))
    with pytest.raises(GroupError, match="direct product instance needs nonabelian factors"):
        REGISTRY["directproduct"](0)


@pytest.mark.parametrize(
    "stand_in, message",
    [
        ("sym(3)", "instance group is not perfect"),
        # ASL(2,4) is perfect with a trivial centre, and not simple
        ("asl2_4", "quotient by the normal part is not simple"),
    ],
    ids=["not-perfect", "quotient-not-simple"],
)
def test_solubleperfect_source_refuses_a_bad_group(monkeypatch, stand_in, message):
    monkeypatch.setattr(lemmas, "build", lambda spec: build(stand_in))
    with pytest.raises(GroupError, match=message):
        REGISTRY["solubleperfect"](0)


def test_quasisimple_negative_source_refuses_a_group_that_is_not_quasisimple(monkeypatch):
    monkeypatch.setattr(lemmas, "build", lambda spec: build("sym(3)"))
    with pytest.raises(GroupError, match="sl2_5 should be quasisimple"):
        REGISTRY["quasisimple_negative"](0)


@pytest.mark.parametrize("lemma_id", ["opelinha", "casolo_quotient", "p3_noncyclic"])
def test_a_corpus_source_holds_one_group_at_a_time(monkeypatch, lemma_id):
    # a weakref to each corpus group as it is built; once the source yields
    # an instance of a later group, every earlier one is garbage
    refs = []
    real = lemmas.corpus_groups_upto

    def recording(bound):
        for name, g in real(bound):
            refs.append(weakref.ref(g))
            yield name, g

    monkeypatch.setattr(lemmas, "corpus_groups_upto", recording)
    groups_with_instances = set()
    for instance in getattr(lemmas, "_%s_instances" % lemma_id)(0):
        del instance
        gc.collect()
        groups_with_instances.add(len(refs))
        assert [k for k, ref in enumerate(refs) if ref() is not None] in ([], [len(refs) - 1])
    assert len(groups_with_instances) >= 2
