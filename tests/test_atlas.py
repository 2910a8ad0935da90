"""Catalog constructions: orders, determinism, and the hand-checkable facts
about the projective-plane groups and the degree-10 model of S6."""

import hashlib
import json
import re

import pytest

import cppo.bsgs
from cppo import atlas, lemmas
from cppo.atlas import (
    Matrix,
    build,
    catalog_names,
    exceptional_automorphism_witness,
    load_group_spec,
    parse_atlas_id,
    projective_permutation,
    reproduce_psl34_commutators,
)
from cppo.corpus import default_corpus
from cppo.errors import AtlasError, SchemaError
from cppo.fields import gf
from cppo.group import FiniteGroup
from cppo.permutation import mul_raw, parse_permutation
from cppo.structure import is_simple

# one concrete id per catalog entry, with its expected order
SAMPLES = [
    ("agl1(8)", 56),
    ("alt(6)", 360),
    ("asl2_4", 960),
    ("cyclic(9)", 9),
    ("dihedral(7)", 14),
    ("direct_product(q8,cyclic(3))", 24),
    ("elem_abelian(5,2)", 25),
    ("extraspecial(2,+)", 32),
    ("extraspecial(2,-)", 32),
    ("extraspecial(3,+)", 27),
    ("extraspecial(3,-)", 27),
    ("extraspecial(5,+)", 125),
    ("m10", 720),
    ("pgammal2_9", 1440),
    ("pgl2_9", 720),
    ("psigmal2_9", 720),
    ("psl2(17)", 2448),
    ("psl34_g1", 120960),
    ("psl34_g2", 120960),
    ("psl34_phi_ext", 40320),
    ("psl3_4", 20160),
    ("q8", 8),
    ("s4", 24),
    ("s6_in_pgammal29", 720),
    ("sl2_3", 24),
    ("sl2_5", 120),
    ("sl2_9", 720),
    ("sym(5)", 120),
    ("sz8", 29120),
]


@pytest.mark.parametrize("atlas_id,order", SAMPLES)
def test_catalog_orders(atlas_id, order):
    assert build(atlas_id).group.order() == order


def test_every_catalog_name_is_sampled():
    sampled = {parse_atlas_id(i)[0] for i, _ in SAMPLES}
    assert sampled == set(catalog_names())


def test_psl2_7_degree_and_order():
    g = build("psl2(7)").group
    assert g.degree == 8 and g.order() == 168


def test_build_is_deterministic():
    a = build("psl3_4").group
    b = build("psl3_4").group
    assert [x.raw for x in a.generators] == [x.raw for x in b.generators]


def _pinned_generators():
    """(id, degree, raw generator tables) for every group whose generators the
    pin below fixes: the catalog samples, the corpus documents, PSL(2,q) at
    eight q, the S6 model's extras and the two hand-built lemma instances."""
    out = []
    for atlas_id in [i for i, _ in SAMPLES] + ["psl2(%d)" % q for q in (4, 5, 7, 8, 9, 11, 13, 17)]:
        g = build(atlas_id).group
        out.append((atlas_id, g.degree, [list(x.raw) for x in g.generators]))
    for doc in default_corpus():
        g = load_group_spec(doc)
        out.append((json.dumps(doc, sort_keys=True), g.degree, [list(x.raw) for x in g.generators]))
    extras = build("s6_in_pgammal29").extras
    out.append(("s6 phi", 10, [list(extras["phi"].raw)]))
    out.append(("s6 socle", 10, [list(x.raw) for x in extras["socle_generators"]]))
    amb, _, _ = lemmas._affine_plane_3()
    out.append(("affine plane 3", amb.degree, [list(x.raw) for x in amb.generators]))
    P, flip = lemmas._heisenberg_with_flip()
    out.append(("heisenberg with flip", 9, [list(x.raw) for x in P.generators + [flip]]))
    return out


def test_generators_match_the_pinned_digest():
    # every generator table, byte for byte, as the constructions first made them
    text = json.dumps(_pinned_generators())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "ad950db27c9162d81c7f7e687e3ac0164b305776d20428997bfd39a95795b405"
    )


def _two_pass_images(mat_gens):
    """Reference regular representation: close the generators under right
    multiplication, sort the elements by rows, then multiply every element by
    every generator a second time."""
    ident = Matrix.identity(mat_gens[0].field, mat_gens[0].n)
    seen = {ident.rows: ident}
    todo = [ident]
    while todo:
        x = todo.pop()
        for g in mat_gens:
            y = x * g
            if y.rows not in seen:
                seen[y.rows] = y
                todo.append(y)
    elems = [seen[k] for k in sorted(seen)]
    index = {m.rows: i for i, m in enumerate(elems)}
    return [tuple(index[(x * g).rows] for x in elems) for g in mat_gens]


@pytest.mark.parametrize("atlas_id", ["q8", "sl2_3", "sl2_5", "sl2_9"])
def test_regular_rep_matches_the_two_pass_reference(atlas_id, monkeypatch):
    calls = []
    original = atlas._regular_rep

    def recording(id_text, mat_gens, expected, notes=""):
        calls.append((mat_gens, expected))
        return original(id_text, mat_gens, expected, notes)

    monkeypatch.setattr(atlas, "_regular_rep", recording)
    built = build(atlas_id)
    (mat_gens, expected), = calls
    assert [tuple(g.raw) for g in built.group.generators] == _two_pass_images(mat_gens)
    with pytest.raises(AtlasError):
        original(atlas_id, mat_gens, expected + 1)


def test_q8_has_unique_central_involution():
    g = build("q8").group
    invs = [x for x in g.elements() if x.order() == 2]
    assert len(invs) == 1
    assert g.center().order() == 2 and g.center().contains(invs[0])


def test_psl3_4_is_simple_eppo_with_the_right_order_set():
    g = build("psl3_4").group
    assert is_simple(g)
    assert g.is_eppo()
    orders = {c.representative.order() for c in g.conjugacy_classes()}
    assert orders == {1, 2, 3, 4, 5, 7}  # no order 15, unlike alt(8)
    a8 = build("alt(8)").group
    assert 15 in {c.representative.order() for c in a8.conjugacy_classes()}


def test_pgammal29_mod_socle_is_klein_four():
    from cppo.group import quotient_by_normal

    # the socle PSL(2,9) is PGammaL(2,9)'
    g = build("pgammal2_9").group
    s = g.derived_subgroup()
    assert s.order() == 360
    q = quotient_by_normal(g, s)
    assert q.order() == 4
    assert all(x.order() <= 2 for x in q.elements())


def test_s6_model_phi_is_outer():
    built = build("s6_in_pgammal29")
    h = built.group
    phi = built.extras["phi"]
    assert not h.contains(phi)
    # phi normalizes the S6 copy and nothing in the big group centralizes it
    big = build("pgammal2_9").group
    assert all(h.contains(x.conjugate(phi)) for x in h.generators)
    cent = [x for x in big.elements() if all((~x * y * x) == y for y in h.generators)]
    assert len(cent) == 1


def test_projective_permutation_identity_and_orders():
    F = gf(4)
    a = 2
    ident = Matrix(F, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert projective_permutation(ident, "points").is_identity()
    A1 = Matrix(F, [[1, 0, 0], [0, 1, a], [0, 0, 1]])
    assert projective_permutation(A1, "points").order() == 2
    delta = Matrix(F, [[a, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert projective_permutation(delta, "points").order() == 3


def test_projective_permutation_rejects_singular_matrices():
    F = gf(4)
    with pytest.raises(AtlasError):
        projective_permutation(Matrix(F, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]), "points")


@pytest.mark.parametrize(
    "matrix,domain,message",
    [
        (Matrix.identity(gf(8), 3), "points", "expects a 3x3 matrix over F4"),
        (Matrix.identity(gf(4), 2), "points", "expects a 3x3 matrix over F4"),
        (Matrix.identity(gf(4), 3), "lines", "domain must be"),
    ],
)
def test_projective_permutation_names_each_bad_input(matrix, domain, message):
    with pytest.raises(AtlasError, match=message):
        projective_permutation(matrix, domain)


def test_psl34_commutator_reproduction():
    out = reproduce_psl34_commutators()
    assert out == {
        "c1_order": 2,
        "c1_delta_commutes": True,
        "g1_witness_order": 6,
        "c2_order": 2,
        "g2_witness_order": 6,
    }


def test_exceptional_automorphism_witness_has_order_3():
    x, t, order = exceptional_automorphism_witness()
    assert order == 3
    w = ~x * ~t * x * t
    assert w.order() == 3


def test_load_group_spec_documents():
    g = load_group_spec({"name": "S4", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]})
    assert g.order() == 24 and g.name == "S4"
    assert load_group_spec({"atlas": "psl2", "params": [17]}).order() == 2448
    assert load_group_spec({"atlas": "asl2_4"}).order() == 960


def test_load_group_spec_rejects_malformed_documents():
    with pytest.raises(SchemaError):
        load_group_spec({"degree": 4})
    with pytest.raises(SchemaError):
        load_group_spec({"name": "x", "degree": 4, "generators": "(1 2)"})
    with pytest.raises(SchemaError):
        load_group_spec({"name": "x", "degree": True, "generators": []})
    with pytest.raises(AtlasError):
        load_group_spec({"atlas": "no_such_entry_anywhere"})


@pytest.mark.parametrize(
    "document",
    [
        {"atlas": "cyclic", "params": ["a"]},
        {"atlas": "sym", "params": [True]},
        {"atlas": "sym", "params": [3.0]},
        {"atlas": "extraspecial", "params": [3, 1]},
        {"atlas": "direct_product", "params": [3, 4]},
        {"atlas": "direct_product", "params": [["sym", [3]], "q8"]},
    ],
    ids=str,
)
def test_load_group_spec_rejects_parameters_of_the_wrong_kind(document):
    with pytest.raises(AtlasError):
        load_group_spec(document)


@pytest.mark.parametrize("name", [["x"], 5, None])
def test_load_group_spec_rejects_a_non_string_atlas_name(name):
    with pytest.raises(SchemaError):
        load_group_spec({"atlas": name})


def test_unknown_and_malformed_ids():
    with pytest.raises(AtlasError):
        build("made_up_group")
    with pytest.raises(AtlasError):
        build("psl2(6)")
    with pytest.raises(AtlasError):
        build("psl2(")


@pytest.mark.parametrize(
    "atlas_id",
    ["cyclic(a)", "direct_product(3,4)", "elem_abelian(+,2)", "extraspecial(3,5)",
     "extraspecial(-,+)", "agl1(0)", "psl2(-1)"],
)
def test_parameters_of_the_wrong_kind_or_range_are_atlas_errors(atlas_id):
    with pytest.raises(AtlasError):
        build(atlas_id)


@pytest.mark.parametrize(
    "text,message",
    [
        ("   ", "empty atlas id"),
        ("s 4", "malformed atlas id 's 4'"),
        ("sym(4", "malformed atlas id 'sym(4'"),
        ("(4)", "malformed atlas id '(4)'"),
        ("sym(4))", "unbalanced parentheses in 'sym(4))'"),
        ("direct_product(sym(3,q8)", "unbalanced parentheses in 'direct_product(sym(3,q8)'"),
        ("dihedral(4,)", "empty argument in 'dihedral(4,)'"),
        ("dihedral(,4)", "empty argument in 'dihedral(,4)'"),
    ],
)
def test_parse_atlas_id_names_each_malformation(text, message):
    with pytest.raises(AtlasError, match="^%s$" % re.escape(message)):
        parse_atlas_id(text)


@pytest.mark.parametrize(
    "atlas_id,message",
    [
        ("sym", "sym expects 1 parameter(s), got 0"),
        ("q8(1)", "q8 expects 0 parameter(s), got 1"),
        ("extraspecial(3)", "extraspecial expects 2 parameter(s), got 1"),
        ("sym(+)", "sym parameter 1 must be an integer, got '+'"),
        ("extraspecial(3,3)", 'extraspecial parameter 2 must be a sign "+" or "-", got 3'),
        ("cyclic(0)", "cyclic(n) needs n >= 1"),
        ("elem_abelian(4,2)", "elem_abelian(p, k) needs a prime p with p^k manageable"),
        ("elem_abelian(2,0)", "elem_abelian(p, k) needs a prime p with p^k manageable"),
        ("elem_abelian(2,13)", "elem_abelian(p, k) needs a prime p with p^k manageable"),
        ("dihedral(1)", "dihedral(n) needs n >= 2"),
        ("sym(0)", "sym(n) supported for 1 <= n <= 12"),
        ("sym(13)", "sym(n) supported for 1 <= n <= 12"),
        ("alt(2)", "alt(n) supported for 3 <= n <= 12"),
        ("alt(13)", "alt(n) supported for 3 <= n <= 12"),
        ("extraspecial(7,+)", "extraspecial(p, sign) needs p in {2,3,5} and sign + or -"),
    ],
)
def test_build_names_each_bad_parameter(atlas_id, message):
    with pytest.raises(AtlasError, match="^%s$" % re.escape(message)):
        build(atlas_id)


def test_cyclic_1_is_the_trivial_group_on_one_point():
    g = build("cyclic(1)").group
    assert (g.name, g.degree, g.order()) == ("cyclic(1)", 1, 1)


@pytest.mark.parametrize(
    "document,message",
    [
        ([{"atlas": "q8"}], "group spec must be a mapping"),
        ({"degree": 4, "generators": []}, "explicit group spec needs 'name'"),
        ({"name": "x", "generators": []}, "explicit group spec needs 'degree'"),
        ({"atlas": "sym", "params": 4}, "params must be a list"),
        ({"atlas": "sym", "params": "4"}, "params must be a list"),
    ],
    ids=str,
)
def test_load_group_spec_names_each_schema_error(document, message):
    with pytest.raises(SchemaError, match="^%s$" % re.escape(message)):
        load_group_spec(document)


def test_load_group_spec_renames_an_atlas_group():
    g = load_group_spec({"atlas": "dihedral", "params": [4], "name": "square"})
    assert g.name == "square" and g.order() == 8
    assert load_group_spec({"atlas": "dihedral", "params": [4]}).name == "dihedral(4)"


def test_bools_are_not_integer_parameters():
    with pytest.raises(AtlasError, match="must be an integer"):
        build(("sym", [True]))
    assert build(("sym", [1])).group.order() == 1


def test_direct_product_nests():
    g = build("direct_product(sym(3),direct_product(q8,cyclic(2)))").group
    assert g.order() == 6 * 8 * 2


# -- regular representations: the certificate and the bounded chain ----------


def _tables(group):
    return [list(g.raw) for g in group.generators]


def _orbit_size(tables, root):
    orbit = {root}
    frontier = [root]
    for p in frontier:
        for t in tables:
            if t[p] not in orbit:
                orbit.add(t[p])
                frontier.append(t[p])
    return len(orbit)


def test_certificate_accepts_regular_tables_from_any_root():
    tables = _tables(build("sl2_9").group)
    assert all(atlas._is_regular(tables, root) for root in (0, 359, 719))


def test_certificate_rejects_transitive_groups_that_are_not_regular():
    a4 = FiniteGroup([parse_permutation("(1 2 3)", 4), parse_permutation("(2 3 4)", 4)])
    psl27 = build("psl2(7)").group
    for group in (a4, psl27):
        assert _orbit_size(_tables(group), 0) == group.degree < group.order()
        assert not any(atlas._is_regular(_tables(group), p) for p in range(group.degree))


def test_certificate_rejects_sl2_9_with_a_generator_swapped_for_a_non_commuting_one():
    tables = _tables(build("sl2_9").group)
    for k in range(3):
        # the k-th table composed with a transposition: still transitive, but
        # no longer commuting with the left translations
        swapped = list(tables)
        swapped[k] = tables[k][:]
        swapped[k][5], swapped[k][6] = swapped[k][6], swapped[k][5]
        assert _orbit_size(swapped, 0) == 720
        assert not atlas._is_regular(swapped, 0)
        # a bare transposition in its place leaves the group intransitive
        swapped[k] = [1, 0] + list(range(2, 720))
        assert _orbit_size(swapped, 0) < 720
        assert not atlas._is_regular(swapped, 0)


def test_certificate_rejects_tables_that_fix_the_root():
    # transitivity is checked first: every map sending all points to the
    # fixed root commutes with the tables
    assert not atlas._is_regular([[0, 2, 1]], 0)


def test_wrong_products_still_raise_through_the_unbounded_path(monkeypatch):
    original, certify = atlas._matrix_group_elements, atlas._is_regular
    certified = []

    def recording(tables, root):
        certified.append(certify(tables, root))
        return certified[-1]

    monkeypatch.setattr(atlas, "_is_regular", recording)

    def swapping(gens):
        # x*g and y*g trade places for one generator: the tables stay bijections
        elems, right = original(gens)
        x, y = elems[1], elems[2]
        right[x][0], right[y][0] = right[y][0], right[x][0]
        return elems, right

    monkeypatch.setattr(atlas, "_matrix_group_elements", swapping)
    with pytest.raises(AtlasError, match="expected 24"):
        build("sl2_3")
    assert certified == [False]

    def overwriting(gens):
        elems, right = original(gens)
        right[elems[1]][0] = right[elems[2]][0]
        return elems, right

    monkeypatch.setattr(atlas, "_matrix_group_elements", overwriting)
    with pytest.raises(AtlasError, match="not a bijection"):
        build("sl2_3")


def test_sl2_9_builds_its_chain_from_the_transversal_alone(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(1)
        return mul_raw(a, b)

    monkeypatch.setattr(cppo.bsgs, "mul_raw", counting)
    assert build("sl2_9").group.order() == 720
    # one product per orbit point past the base point; checking every
    # Schreier generator made 2,160
    assert len(calls) <= 800
