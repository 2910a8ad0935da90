"""Tower validation, search, and certification against hand-built examples,
the set-based probe against the chain-based search it replaced, and the
irreducibility verdicts over every small tower of candidate stages."""

import hashlib
import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cppo import permutation, towers
from cppo.arith import factorization
from cppo.atlas import build, load_group_spec
from cppo.corpus import SOLUBLE_AND_SMALL, corpus_groups
from cppo.errors import InsolubleError, TowerDefectError
from cppo.group import FiniteGroup, quotient_by_normal
from cppo.lemmas import _s4_wreath_2
from cppo.permutation import (
    Permutation,
    block_raw,
    comm_raw,
    conj_raw,
    identity_raw,
    mul_raw,
    order_raw,
    parse_permutation,
)
from cppo.structure import fitting_height, is_soluble, sylow_subgroup, upper_fitting_series
from cppo.towers import (
    Tower,
    _elementary_abelian_subgroups,
    _moves_stage_below,
    _normalizes_all,
    _p_subgroup_sets,
    effective_quotients,
    find_max_tower,
    is_irreducible_tower,
    quotient_tower,
    tower_probe,
    tower_to_data,
    validate_tower,
)


def _p_subgroup_candidates(G, p):
    """All nontrivial p-subgroups of G as subgroups, in _p_subgroup_sets order."""
    return [G._subgroup_raw(gens) for _, gens in _p_subgroup_sets(G, p)]


def _element_sets(G, pairs):
    """(index set, generators) pairs over G's sorted elements as (element
    set, generators), for comparison with the element-set references."""
    elems = G._raw_elements()
    return [(frozenset(map(elems.__getitem__, k)), gens) for k, gens in pairs]


def _refuse_p_subgroup_listing(monkeypatch):
    """Make any listing of p-subgroups fail the test."""

    def refused(*args):
        raise AssertionError("a p-subgroup was listed")

    monkeypatch.setattr(towers, "_p_subgroup_index_sets", refused)


def _elementary_abelian_gens(gens, p):
    """Whether the raw elements gens have order p and commute, that is,
    generate an elementary abelian p-group."""
    return all(order_raw(x) == p for x in gens) and all(
        mul_raw(a, b) == mul_raw(b, a) for a, b in itertools.combinations(gens, 2)
    )


def _perms(degree, *texts):
    return [parse_permutation(t, degree=degree) for t in texts]


@pytest.fixture(scope="module")
def s4():
    return build("s4").group


@pytest.fixture(scope="module")
def s4_tower(s4):
    h, t = find_max_tower(s4)
    assert h == 3
    return t


def test_s4_max_tower_shape(s4_tower):
    assert [p for p, _ in s4_tower.stages] == [2, 3, 2]
    assert [s.order() for _, s in s4_tower.stages] == [2, 3, 4]
    assert validate_tower(s4_tower).valid
    # every stage acts faithfully on what lies below it
    assert [k.order() for k in s4_tower.kernels()] == [1, 1, 1]
    assert [q.order() for q in effective_quotients(s4_tower)] == [2, 3, 4]


def element_set_kernels(t):
    """K_i straight from the definition, bottom up: K_h = 1, and K_i holds
    the x in P_i with [y, x] in K_{i+1} for every y in P_{i+1}."""
    out = [{identity_raw(t.ambient.degree)}]
    for (_, sub), (_, lower) in zip(t.stages[-2::-1], t.stages[:0:-1]):
        below = out[-1]
        out.append(
            {
                x
                for x in sub._raw_elements()
                if all(comm_raw(y, x) in below for y in lower._raw_elements())
            }
        )
    return out[::-1]


def assert_kernels_match_the_definition(t):
    kernels = Tower(t.ambient, t.stages).kernels()
    want = element_set_kernels(t)
    assert [set(k._raw_elements()) for k in kernels] == want
    # the generator lists are those of the element sets themselves
    assert [k._raw_gens for k in kernels] == [
        t.ambient._subgroup_from_raw_elements(w)._raw_gens for w in want
    ]
    return [len(w) for w in want]


def test_kernels_under_a_trivial_bottom_kernel_build_no_multiplication_table(
    s4, s4_tower, monkeypatch
):
    # K_h = 1 is one element per coset, so its labels are the positions
    calls = []
    tables = towers.multiplication_tables

    def counted(*args):
        calls.append(args)
        return tables(*args)

    monkeypatch.setattr(towers, "multiplication_tables", counted)
    t = Tower(s4, s4_tower.stages[1:])
    assert [k.order() for k in t.kernels()] == [1, 1]
    assert calls == []


def test_kernels_above_a_full_kernel_build_no_table(monkeypatch):
    # (1 2 3) commutes with (4 5), so K_2 is full and is carried up to K_1
    s5 = build("sym(5)").group
    c3 = s5.subgroup(_perms(5, "(1 2 3)"))
    c2 = s5.subgroup(_perms(5, "(4 5)"))
    t = Tower(s5, [(3, c3), (2, c2), (3, c3)])
    calls = []
    for name in ("multiplication_tables", "conjugation_tables"):

        def counted(elems, base, gens, name=name, tables=getattr(towers, name)):
            calls.append((name, gens))
            return tables(elems, base, gens)

        monkeypatch.setattr(towers, name, counted)
    assert [k.order() for k in t.kernels()] == [3, 2, 1]
    assert validate_tower(t).detail == "item 3: stage 1 acts trivially below it"
    # the one table is stage 2's conjugation action on stage 3
    assert calls == [("conjugation_tables", c2._raw_elements())]
    assert assert_kernels_match_the_definition(t) == [3, 2, 1]


def _counted_kernel_steps(monkeypatch):
    steps = []
    step = towers._kernel_set

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(towers, "_kernel_set", counted)
    return steps


def test_a_probed_tower_keeps_its_leaf_kernel_sets(monkeypatch):
    # the leaf's item 3 test runs the recurrence, and validate_tower on the
    # tower it becomes reads that run: one step per stage above the bottom one
    steps = _counted_kernel_steps(monkeypatch)
    t = tower_probe(build("s4").group, 3)
    assert t.height == 3 and validate_tower(t).valid
    assert len(steps) == 2


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_a_fresh_tower_runs_its_kernel_recurrence_once(s4_tower, order, monkeypatch):
    steps = _counted_kernel_steps(monkeypatch)
    t = Tower(s4_tower.ambient, s4_tower.stages)
    asks = [validate_tower, Tower.kernels, effective_quotients, is_irreducible_tower]
    for i in order + order:
        asks[i](t)
    # one step per stage above the bottom one, however and how often it is asked
    assert len(steps) == 2


def test_a_second_validation_takes_no_kernel_step(s4_tower, monkeypatch):
    t = Tower(s4_tower.ambient, s4_tower.stages)
    assert validate_tower(t).valid
    steps = _counted_kernel_steps(monkeypatch)
    assert validate_tower(t).valid
    assert steps == []


def test_kernels_match_the_definition_on_the_s4_wreath_tower_and_its_conjugates():
    g, p1, p2, p3 = _s4_wreath_2()
    stages = [(2, p1), (3, p2), (2, p3)]
    for c in [identity_raw(g.degree)] + g._raw_gens:
        conj = [(p, g._subgroup_raw([conj_raw(x, c) for x in s._raw_gens])) for p, s in stages]
        t = Tower(g, conj)
        assert validate_tower(t).valid
        assert assert_kernels_match_the_definition(t) == [1, 1, 1]


def test_s4_max_tower_is_irreducible(s4_tower):
    assert is_irreducible_tower(s4_tower).verdict == "yes"


def test_irreducibility_forms_each_stage_frattini_subgroup_once(s4_tower, monkeypatch):
    # one frattini subgroup per stage and one of it, to test it is elementary
    calls = []
    frattini = towers.frattini_of_p_group

    def counted(P):
        calls.append(P.order())
        return frattini(P)

    monkeypatch.setattr(towers, "frattini_of_p_group", counted)
    assert is_irreducible_tower(Tower(s4_tower.ambient, s4_tower.stages)).verdict == "yes"
    assert len(calls) == 6


def _irreducibility(t):
    r = is_irreducible_tower(t)
    return r.verdict, r.details


@pytest.mark.parametrize(
    "atlas_id,detail",
    [
        ("q8", "item 2: the top stage is not cyclic"),
        ("cyclic(12)", "item 2: the top stage acts with order 4, not prime"),
    ],
)
def test_a_max_tower_whose_top_stage_fails_item_2(atlas_id, detail):
    _, t = find_max_tower(build(atlas_id).group)
    assert _irreducibility(t) == ("no", [detail])


@pytest.mark.parametrize(
    "n,detail",
    [
        (9, "item 1: stage 2 has exponent 9, wanted 3"),
        (27, "item 1: stage 2 has a frattini subgroup that is not elementary"),
    ],
)
def test_a_dihedral_tower_whose_rotations_fail_item_1(n, detail):
    g = build("dihedral(%d)" % n).group
    rot, ref = g.generators
    t = Tower(g, [(2, g.subgroup([ref])), (3, g.subgroup([rot]))])
    assert validate_tower(t).valid
    assert _irreducibility(t) == ("no", [detail])


def test_a_wreath_product_tower_whose_frattini_subgroup_is_not_central():
    # C3 wr C3 on 9 points, below an involution inverting each base 3-cycle:
    # its frattini subgroup is the derived group, of order 9 and not central
    s9 = build("sym(9)").group
    two, wreath = _perms(9, "(2 3)(5 6)(8 9)"), _perms(9, "(1 2 3)", "(1 4 7)(2 5 8)(3 6 9)")
    t = Tower(s9, [(2, s9.subgroup(two)), (3, s9.subgroup(wreath))])
    assert validate_tower(t).valid and t.stages[1][1].order() == 81
    assert _irreducibility(t) == ("no", ["item 1: stage 2 frattini subgroup is not central"])


def _affine_f3_square(matrix, shift=(0, 0)):
    """The 0-based image table of v -> v matrix + shift on F_3^2, with
    (u, w) as the point u + 3w."""
    (a, b), (c, d) = matrix
    return [
        (a * u + c * w + shift[0]) % 3 + 3 * ((b * u + d * w + shift[1]) % 3)
        for w in range(3)
        for u in range(3)
    ]


def test_a_tower_whose_top_stage_inverts_the_centre_of_the_stage_below():
    # the Heisenberg group of order 27 as affine maps, below the involution
    # (u, w) -> (-u, w), which inverts its centre, the shifts along u
    shear, shift, flip = (
        Permutation.from_zero_based(_affine_f3_square(*args))
        for args in [(((1, 0), (1, 1)),), (((1, 0), (0, 1)), (0, 1)), (((2, 0), (0, 1)),)]
    )
    g = FiniteGroup([shear, shift, flip], degree=9)
    t = Tower(g, [(2, g.subgroup([flip])), (3, g.subgroup([shear, shift]))])
    assert validate_tower(t).valid and t.stages[1][1].order() == 27
    assert _irreducibility(t) == (
        "no",
        ["item 1: stage 1 does not centralize the frattini subgroup of stage 2"],
    )


def test_a_tower_whose_second_stage_covers_only_as_a_whole():
    g = build("direct_product(sym(3),sym(3))").group
    two, three = _perms(6, "(5 6)"), _perms(6, "(4 5 6)", "(1 2 3)")
    t = Tower(g, [(2, g.subgroup(two)), (3, g.subgroup(three))])
    assert validate_tower(t).valid
    assert _irreducibility(t) == ("no", ["item 3: even the whole stage 1 fails to cover stage 2"])


def _sl2_3_on_two_modules():
    """F_3^2 x F_3^3 extended by SL(2,3) on 18 points, and its tower
    [(3, <w>), (2, Q8), (3, F_3^2 x F_3^3)].

    Points 0..8 are F_3^2, on which SL(2,3) acts by matrices.  Points
    9 + 3c + v hold the value v of coordinate c of F_3^3, one coordinate per
    cyclic subgroup of order 4 of Q8 = <i, j>: an element of Q8 negates the
    coordinates of the subgroups it does not lie in, and w permutes the
    coordinates as it permutes the subgroups.  So the centre of Q8 acts as
    -1 on F_3^2 and trivially on F_3^3.
    """

    def mul(x, y):
        return tuple(
            tuple(sum(x[r][k] * y[k][c] for k in range(2)) % 3 for c in range(2)) for r in range(2)
        )

    def powers(x):
        out = [x]
        while len(out) < 4:
            out.append(mul(out[-1], x))
        return set(out)

    def on_coordinates(image):
        """The table of points 9..17 under (c, v) -> image(c, v)."""
        return [9 + 3 * c2 + v2 for c in range(3) for v in range(3) for c2, v2 in [image(c, v)]]

    i, j, w = ((0, 2), (1, 0)), ((1, 1), (1, 2)), ((1, 1), (0, 1))
    lines = [powers(x) for x in (i, j, mul(i, j))]
    w_inv = mul(w, w)
    turned = [lines.index({mul(mul(w_inv, x), w) for x in line}) for line in lines]
    signs = {x: [1 if x in line else 2 for line in lines] for x in (i, j)}
    top = Permutation.from_zero_based(
        _affine_f3_square(w) + on_coordinates(lambda c, v: (turned[c], v))
    )
    q8 = [
        Permutation.from_zero_based(
            _affine_f3_square(x) + on_coordinates(lambda c, v, x=x: (c, v * signs[x][c] % 3))
        )
        for x in (i, j)
    ]
    one = ((1, 0), (0, 1))
    shifts = [
        Permutation.from_zero_based(_affine_f3_square(one, s) + list(range(9, 18)))
        for s in ((1, 0), (0, 1))
    ] + [
        Permutation.from_zero_based(
            list(range(9)) + on_coordinates(lambda c, v, k=k: (c, (v + (c == k)) % 3))
        )
        for k in range(3)
    ]
    g = FiniteGroup(shifts + q8 + [top], degree=18)
    return g, Tower(g, [(3, g.subgroup([top])), (2, g.subgroup(q8)), (3, g.subgroup(shifts))])


def test_a_tower_whose_third_stage_no_elementary_abelian_subgroup_covers():
    # the centre of Q8, its one elementary abelian subgroup, moves only F_3^2
    g, t = _sl2_3_on_two_modules()
    assert g.order() == 243 * 24
    assert [s.order() for _, s in t.stages] == [3, 8, 243]
    assert validate_tower(t).valid
    assert _irreducibility(t) == (
        "no", ["item 3: no elementary abelian subgroup above covers stage 3"]
    )


def test_an_agl1_9_tower_fails_item_4():
    g = build("agl1(9)").group
    two = _perms(9, "(2 3)(4 7)(5 9)(6 8)")
    three = _perms(9, "(1 2 3)(4 5 6)(7 8 9)", "(1 4 7)(2 5 8)(3 6 9)")
    t = Tower(g, [(2, g.subgroup(two)), (3, g.subgroup(three))])
    assert validate_tower(t).valid
    assert _irreducibility(t) == (
        "no",
        ["item 4: stage 2 has a proper invariant subgroup outside the frattini preimage"],
    )


SWEEP_IDS = [
    "s4", "sym(3)", "alt(4)", "sl2_3", "dihedral(12)", "agl1(7)", "agl1(8)", "agl1(9)",
    "direct_product(sym(3),sym(3))", "direct_product(cyclic(3),dihedral(5))",
    "extraspecial(3,+)", "direct_product(q8,cyclic(3))",
]


def _candidate_stages(g):
    """(prime, subgroup) for every nontrivial p-subgroup of g, primes in order."""
    return [
        (p, g._subgroup_raw(gens))
        for p, _ in factorization(g.order())
        for _, gens in _p_subgroup_sets(g, p)
    ]


def _grown_towers(g, candidates, passes, height=3):
    """Every tower of at most the given height whose stages are among the
    (prime, subgroup) candidates and that `passes` accepts, grown top-down:
    the top stages of a valid tower, or of one that passes items 1, 2 and 4,
    pass as well."""
    level = [[]]
    for _ in range(height):
        grown = []
        for stages in level:
            for c in candidates:
                t = Tower(g, stages + [c])
                if passes(t):
                    grown.append(stages + [c])
                    yield t
        level = grown


def test_irreducibility_verdicts_over_every_small_tower_of_candidate_stages():
    groups = [(i, build(i).group) for i in SWEEP_IDS] + [("s4wr2", _s4_wreath_2()[0])]
    rows = []
    for name, g in groups:
        candidates = _candidate_stages(g)[: 60 if name == "s4wr2" else None]
        for t in _grown_towers(g, candidates, lambda t: validate_tower(t).valid):
            report = is_irreducible_tower(t)
            rows.append([name, t.height, report.verdict, report.details])
    kinds = Counter(details[0][:6] if details else verdict for _, _, verdict, details in rows)
    assert kinds == {"yes": 343, "item 2": 125, "item 4": 18, "item 3": 6}
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == "744bf9eaa84a11fd5ee5dabe86b40009778eb7910f61a0887bb1b31f92931b9c"


@pytest.mark.parametrize("atlas_id, checked, trivial", [("sl2_3", 24, 20), ("dihedral(12)", 73, 52)])
def test_item_3_fails_exactly_on_a_full_kernel_and_then_at_the_top(atlas_id, checked, trivial):
    # P_i normalizes P_{i+1}, so a full K_{i+1} makes K_i full as well
    g = build(atlas_id).group
    structural = _grown_towers(g, _candidate_stages(g), lambda t: t._defect is None)
    towers_seen = [t for t in structural if t.height > 1]
    failed = 0
    for t in towers_seen:
        full = [len(k) == sub.order() for k, (_, sub) in zip(element_set_kernels(t), t.stages)]
        v = validate_tower(t)
        assert v.items[3] == (not any(full)) == v.valid
        if any(full):
            failed += 1
            assert full[0] and v.detail == "item 3: stage 1 acts trivially below it"
    assert (len(towers_seen), failed) == (checked, trivial)


def test_validation_forms_no_kernel_subgroup(s4_tower, monkeypatch):
    def refuse(self):
        raise AssertionError("validate_tower formed the kernels")

    monkeypatch.setattr(Tower, "kernels", refuse)
    assert validate_tower(Tower(s4_tower.ambient, s4_tower.stages)).valid
    s5 = build("sym(5)").group
    t = Tower(s5, [(2, s5.subgroup(_perms(5, "(1 2)"))), (3, s5.subgroup(_perms(5, "(3 4 5)")))])
    assert validate_tower(t).detail == "item 3: stage 1 acts trivially below it"


def test_disjoint_supports_fail_item_3():
    s5 = build("sym(5)").group
    t = Tower(
        s5,
        [
            (2, s5.subgroup(_perms(5, "(1 2)"))),
            (3, s5.subgroup(_perms(5, "(3 4 5)"))),
        ],
    )
    v = validate_tower(t)
    assert not v.valid
    assert v.items == {1: True, 2: True, 3: False, 4: True}
    assert "stage 1" in v.detail


def test_structural_defects(s4):
    v4 = s4.subgroup(_perms(4, "(1 2)(3 4)", "(1 3)(2 4)"))
    c2 = s4.subgroup(_perms(4, "(1 2)"))
    # wrong prime label
    v = validate_tower(Tower(s4, [(3, v4)]))
    assert not v.valid and not v.items[1]
    # trivial stage
    v = validate_tower(Tower(s4, [(2, s4.trivial_subgroup())]))
    assert not v.valid and not v.items[1]
    # adjacent stages sharing a prime
    v = validate_tower(Tower(s4, [(2, c2), (2, v4)]))
    assert not v.valid and not v.items[4]
    # upper stage fails to normalize the lower one
    c3 = s4.subgroup(_perms(4, "(2 3 4)"))
    v = validate_tower(Tower(s4, [(2, c2), (3, c3)]))
    assert not v.valid and not v.items[2]
    # a stage outside the ambient group
    a4 = s4.subgroup(_perms(4, "(1 2 3)", "(1 2)(3 4)"))
    v = validate_tower(Tower(a4, [(2, c2)]))
    assert not v.valid and not v.items[2]
    assert v.detail == "item 2: stage 1 does not lie in the ambient group"
    # a stage of another degree lies in no group of this one
    c2_on_5 = FiniteGroup(_perms(5, "(1 2)"))
    v = validate_tower(Tower(s4, [(2, c2_on_5)]))
    assert v.detail == "item 2: stage 1 does not lie in the ambient group"


def test_a_fresh_validation_checks_the_structure_once(s4_tower, monkeypatch):
    calls = []
    real = FiniteGroup.normalized_by

    def counting(self, raw_gens):
        calls.append(self)
        return real(self, raw_gens)

    monkeypatch.setattr(FiniteGroup, "normalized_by", counting)
    t = Tower(s4_tower.ambient, s4_tower.stages)
    assert validate_tower(t).valid and [k.order() for k in t.kernels()] == [1, 1, 1]
    # one call per pair of stages, each an upper stage normalizing a lower one
    assert len(calls) == 3
    assert repr(t) == "Tower(height=3, primes=[2, 3, 2])"


def test_kernels_refuse_defective_towers(s4):
    c2 = s4.subgroup(_perms(4, "(1 2)"))
    t = Tower(s4, [(3, c2)])
    with pytest.raises(TowerDefectError):
        t.kernels()
    with pytest.raises(TowerDefectError):
        is_irreducible_tower(t)


@pytest.mark.parametrize(
    "atlas_id,height",
    [
        ("s4", 3),
        ("direct_product(s4,s4)", 3),
        ("alt(4)", 2),
        ("sl2_3", 2),
        ("agl1(8)", 2),
        ("dihedral(15)", 2),
        ("dihedral(4)", 1),
        ("q8", 1),
        ("cyclic(12)", 1),
        ("elem_abelian(3,2)", 1),
        ("extraspecial(3,-)", 1),
    ],
)
def test_find_max_tower_heights(atlas_id, height):
    g = build(atlas_id).group
    h, t = find_max_tower(g)
    assert h == height == fitting_height(g)
    assert t.height == h
    assert validate_tower(t).valid


def test_find_max_tower_is_computed_once_per_group():
    g = build("s4").group
    first = find_max_tower(g)
    assert find_max_tower(g) is first


def test_find_max_tower_climbs_through_the_series_quotients(monkeypatch):
    g = build("s4").group
    upper_fitting_series(g)

    def no_new_quotient(G, N):
        raise AssertionError("find_max_tower formed a quotient the series already has")

    monkeypatch.setattr(towers, "quotient_by_normal", no_new_quotient)
    h, t = find_max_tower(g)
    assert h == 3 and validate_tower(t).valid


def test_find_max_tower_trivial_group():
    h, t = find_max_tower(FiniteGroup([], degree=2))
    assert h == 0 and t.height == 0
    assert validate_tower(t).valid


def test_find_max_tower_refuses_insoluble_groups():
    with pytest.raises(InsolubleError):
        find_max_tower(build("alt(5)").group)


def test_find_max_tower_backtracks_to_the_next_prime_assignment(monkeypatch):
    # C3 x D10 has F = C15 below C2; the involution centralizes C3, so the
    # assignment (3, 2) has no top stage and (5, 2) gives the tower
    g = build("direct_product(cyclic(3),dihedral(5))").group
    real = towers._pick_stage
    picked = []

    def recording(G, u, p, chosen):
        stage = real(G, u, p, chosen)
        picked.append(([q for q, _ in chosen], p, stage is not None))
        return stage

    def no_probe(G, min_height):
        raise AssertionError("the probe ran although an assignment succeeds")

    monkeypatch.setattr(towers, "_pick_stage", recording)
    monkeypatch.setattr(towers, "tower_probe", no_probe)
    h, t = find_max_tower(g)
    assert picked == [([3], 2, False), ([5], 2, True)]
    assert h == 2 == fitting_height(g)
    assert [p for p, _ in t.stages] == [2, 5]
    assert validate_tower(t).valid


def test_find_max_tower_falls_back_on_the_probe(monkeypatch):
    g = build("s4").group
    monkeypatch.setattr(towers, "_pick_stage", lambda G, u, p, chosen: None)
    h, t = find_max_tower(g)
    assert h == 3 and t.height == 3
    assert validate_tower(t).valid


def test_find_max_tower_without_a_stage_or_probe_is_a_defect_and_caches_nothing(monkeypatch):
    g = build("s4").group
    monkeypatch.setattr(towers, "_pick_stage", lambda G, u, p, chosen: None)
    monkeypatch.setattr(towers, "PROBE_ORDER_CAP", g.order() - 1)
    with pytest.raises(TowerDefectError, match="no tower realizing fitting height 3"):
        find_max_tower(g)
    monkeypatch.undo()
    h, t = find_max_tower(g)
    assert h == 3 and validate_tower(t).valid


def test_probe_finds_and_refutes(s4):
    t = tower_probe(s4, 3)
    assert t is not None and t.height == 3
    assert validate_tower(t).valid
    a4 = build("alt(4)").group
    assert tower_probe(a4, 3) is None


def test_probe_of_height_zero_is_the_empty_tower(s4):
    t = tower_probe(s4, 0)
    assert t.height == 0 and t.ambient is s4


def test_probe_respects_the_order_cap(monkeypatch):
    big = build("direct_product(s4,s4)").group
    with pytest.raises(TowerDefectError):
        tower_probe(big, 1)
    # a wider cap lets the same search through
    monkeypatch.setattr(towers, "PROBE_ORDER_CAP", 600)
    assert tower_probe(big, 1) is not None


def test_tower_data_parses_back_to_the_stages(s4, s4_tower):
    data = tower_to_data(s4_tower)
    assert [p for p, _ in data] == [p for p, _ in s4_tower.stages]
    for (_, texts), (_, stage) in zip(data, s4_tower.stages):
        assert s4.subgroup(_perms(s4.degree, *texts)).same_group_as(stage)


def test_quotient_tower_image(s4, s4_tower):
    v4 = s4_tower.stages[2][1]
    q = quotient_by_normal(s4, v4)
    image = quotient_tower(Tower(s4, s4_tower.stages[:2]), q)
    assert image.height == 2
    assert [s.order() for _, s in image.stages] == [2, 3]
    assert validate_tower(image).valid


# ---------------------------------------------------------------------------
# the chain-based search the set-based probe replaced, kept as a reference:
# one FiniteGroup and stabilizer chain per (subgroup, element) pair and per
# candidate, normality through chains, validate_tower on every leaf


def _ref_all_subgroups(P):
    elems = P._raw_elements()
    ident = identity_raw(P.degree)
    seen = {frozenset([ident]): []}
    frontier = [(frozenset([ident]), [])]
    while frontier:
        new_frontier = []
        for members, gens in frontier:
            for x in elems:
                if x in members:
                    continue
                grown_gens = gens + [x]
                sub = FiniteGroup(
                    [Permutation._from_raw(g) for g in grown_gens], degree=P.degree
                )
                key = frozenset(sub._raw_elements())
                if key not in seen:
                    seen[key] = grown_gens
                    new_frontier.append((key, grown_gens))
        frontier = new_frontier
    return sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def _ref_p_subgroup_candidates(G, p):
    syl = sylow_subgroup(G, p)
    if syl.order() == 1:
        return []
    pool = {}
    for members, gens in _ref_all_subgroups(syl):
        if len(members) > 1:
            pool[members] = gens
    queue = list(pool.items())
    while queue:
        members, gens = queue.pop(0)
        for g in G._raw_gens:
            conj_gens = [conj_raw(x, g) for x in gens]
            key = frozenset(conj_raw(x, g) for x in members)
            if key not in pool:
                pool[key] = conj_gens
                queue.append((key, conj_gens))
    ordered = sorted(pool.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return [G._subgroup_raw(gens) for _, gens in ordered]


def _ref_tower_probe(G, min_height):
    primes = [p for p, _ in factorization(G.order())]
    candidates = {p: _ref_p_subgroup_candidates(G, p) for p in primes}

    def extend(stages):
        if len(stages) == min_height:
            t = Tower(G, list(stages))
            return t if validate_tower(t).valid else None
        last_prime = stages[-1][0] if stages else None
        for p in primes:
            if p == last_prime:
                continue
            for cand in candidates[p]:
                if not all(cand.normalized_by(up._raw_gens) for _, up in stages):
                    continue
                found = extend(stages + [(p, cand)])
                if found is not None:
                    return found
        return None

    return extend([])


@pytest.fixture(scope="module", params=SOLUBLE_AND_SMALL, ids=str)
def small_soluble(request):
    g = load_group_spec(request.param)
    assert is_soluble(g) and g.order() <= 500
    return g


def assert_sylow_p_subgroup_sets_match_the_chain_reference(group):
    # a p-group's nontrivial p-subgroups are all its subgroups but the trivial one
    for p, _ in factorization(group.order()):
        syl = sylow_subgroup(group, p)
        assert _element_sets(syl, _p_subgroup_sets(syl, p)) == _ref_all_subgroups(syl)[1:], p


def test_sylow_p_subgroup_sets_match_the_chain_reference(small_soluble):
    assert_sylow_p_subgroup_sets_match_the_chain_reference(small_soluble)


def _lifted_s6_subgroups(count):
    """Drawn two-generator subgroups of S6 of order 6 to 24, acting on points
    147..152 of degree 300, past the bytes kernel, so their elements are
    tuples."""
    rng = random.Random(300)
    while count:
        tables = []
        for _ in range(2):
            images = list(range(6))
            rng.shuffle(images)
            tables.append(block_raw(images, 147, 300))
        g = FiniteGroup([Permutation._from_raw(t) for t in tables], degree=300)
        if 6 <= g.order() <= 24:
            count -= 1
            yield g


def _quotient(atlas_id, normal):
    g = build(atlas_id).group
    return quotient_by_normal(g, normal(g))


@pytest.mark.parametrize(
    "group",
    [
        *_lifted_s6_subgroups(6),
        # coset actions of quotients, as is_irreducible_tower passes them on
        _quotient("direct_product(q8,dihedral(4))", FiniteGroup.center),
        _quotient("s4", lambda g: g.derived_subgroup().derived_subgroup()),
    ],
    ids=lambda g: "order %d degree %d" % (g.order(), g.degree),
)
def test_sylow_p_subgroup_sets_match_the_chain_reference_past_the_bytes_kernel_and_on_quotients(
    group,
):
    assert_sylow_p_subgroup_sets_match_the_chain_reference(group)


@pytest.mark.parametrize("atlas_id", ["direct_product(q8,dihedral(4))", "agl1(8)"])
def test_probe_search_forms_no_permutation(atlas_id, monkeypatch):
    """The search works on element indices; only validate_tower, on a tower
    it returns, may multiply permutations."""
    g = build(atlas_id).group
    h = fitting_height(g)
    calls = Counter()
    for name in ("mul_raw", "conj_raw", "comm_raw"):

        def counted(*args, _kernel=getattr(permutation, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(towers, name, counted, raising=False)
    assert tower_probe(g, h + 1) is None
    assert calls == Counter()
    before_validation = []
    validate = towers.validate_tower

    def first_validation(t):
        before_validation.append(sum(calls.values()))
        return validate(t)

    monkeypatch.setattr(towers, "validate_tower", first_validation)
    assert tower_probe(g, h).height == h
    assert before_validation[:1] == [0]


def test_p_subgroup_sets_carry_their_generators_and_order(small_soluble):
    """_pick_stage sorts the sets by size and forms a subgroup only for the
    one it returns, so each generator list must be the subgroup's own and
    each set must index the subgroup's elements."""
    pairs = (_p_subgroup_sets(small_soluble, p) for p, _ in factorization(small_soluble.order()))
    for members, gens in _element_sets(small_soluble, itertools.chain.from_iterable(pairs)):
        sub = small_soluble._subgroup_raw(gens)
        assert sub._raw_gens == gens and members == frozenset(sub._raw_elements())


def reference_p_subgroup_sets(G, p):
    """_p_subgroup_sets as it was before it conjugated whole lists through one
    conjugator per generator: one conj_raw per member and per generator."""
    syl = sylow_subgroup(G, p)
    if syl.order() == 1:
        return []
    pool = {members: gens for members, gens in _ref_all_subgroups(syl) if len(members) > 1}
    queue = list(pool.items())
    for members, gens in queue:
        for g in G._raw_gens:
            key = frozenset(conj_raw(x, g) for x in members)
            if key not in pool:
                conj_gens = [conj_raw(x, g) for x in gens]
                pool[key] = conj_gens
                queue.append((key, conj_gens))
    return sorted(pool.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


CORPUS_UPTO_1000 = [(n, g) for n, g in corpus_groups() if g.order() <= 1000]
CORPUS_UPTO_500 = [(n, g) for n, g in CORPUS_UPTO_1000 if g.order() <= 500]


@pytest.mark.parametrize("name, group", CORPUS_UPTO_500, ids=[n for n, _ in CORPUS_UPTO_500])
def test_p_subgroup_sets_match_the_conj_raw_reference(name, group):
    for p, _ in factorization(group.order()):
        got = _element_sets(group, _p_subgroup_sets(group, p))
        assert got == reference_p_subgroup_sets(group, p), p


def test_p_subgroup_sets_of_sl2_9_match_the_conj_raw_reference():
    group = build("sl2_9").group
    got = _element_sets(group, _p_subgroup_sets(group, 3))
    assert got == reference_p_subgroup_sets(group, 3)


def reference_pick_stage(G, u, p, chosen):
    """_pick_stage as it was before it sorted element sets: every candidate
    is formed as a subgroup and sorted by its chain order."""
    syl = sylow_subgroup(u, p)
    for gens in u._conjugate_gen_sets(syl._raw_gens):
        if _normalizes_all(gens, chosen) and _moves_stage_below(gens, chosen):
            return G._subgroup_raw(list(gens))
    for cand in sorted(_p_subgroup_candidates(u, p), key=lambda s: -s.order()):
        gens = cand._raw_gens
        if _normalizes_all(gens, chosen) and _moves_stage_below(gens, chosen):
            return G._subgroup_raw(list(gens))
    return None


@pytest.mark.parametrize("doc", SOLUBLE_AND_SMALL, ids=str)
def test_max_tower_matches_the_subgroup_sorting_reference(doc, monkeypatch):
    # direct_product(sym(3),s4) is a group whose tower comes from the
    # candidates past the Sylow conjugates
    got = tower_to_data(find_max_tower(load_group_spec(doc))[1])
    monkeypatch.setattr(towers, "_pick_stage", reference_pick_stage)
    assert got == tower_to_data(find_max_tower(load_group_spec(doc))[1])


def test_kernels_match_the_definition_on_the_max_towers(small_soluble):
    h, t = find_max_tower(small_soluble)
    sizes = assert_kernels_match_the_definition(t)
    assert len(sizes) == h


@pytest.mark.parametrize(
    "atlas_id, kernel_orders",
    [("dihedral(12)", [4, 1]), ("direct_product(sym(3),s4)", [2, 3, 1])],
)
def test_max_towers_with_unfaithful_stages(atlas_id, kernel_orders):
    # the definition check above also meets nontrivial kernels
    _, t = find_max_tower(build(atlas_id).group)
    assert assert_kernels_match_the_definition(t) == kernel_orders


ELEMENTARY_CASES = [(g, p) for _, g in CORPUS_UPTO_1000 for p, _ in factorization(g.order())]
# C2^4 x C16 holds C2^5, so its ranks run past four
RANK_FIVE = (build("direct_product(elem_abelian(2,4),cyclic(16))").group, 2)


@pytest.mark.parametrize(
    "group, p",
    ELEMENTARY_CASES + [RANK_FIVE],
    ids=["%s p=%d" % (g.name, p) for g, p in ELEMENTARY_CASES + [RANK_FIVE]],
)
def test_elementary_abelian_subgroups_are_the_filtered_p_subgroup_list(group, p, monkeypatch):
    listed = [k for k, gens in _p_subgroup_sets(group, p) if _elementary_abelian_gens(gens, p)]
    # each rank is built from the one below, with no p-subgroup listed
    _refuse_p_subgroup_listing(monkeypatch)
    got = list(_elementary_abelian_subgroups(group, p))
    assert [members for members, _ in got] == listed
    elems = group._raw_elements()
    for members, gens in got:
        sub = group._subgroup_raw(gens)
        assert frozenset(map(elems.__getitem__, members)) == frozenset(sub._raw_elements())
        # a subgroup of order p is generated by its least element but the identity
        assert len(members) > p or gens == [elems[sorted(members)[1]]]


@pytest.mark.parametrize("atlas_id, p", [("sl2_9", 3), ("s4", 2), ("agl1(8)", 2)])
def test_elementary_abelian_subgroups_of_order_p_list_no_p_subgroup(atlas_id, p, monkeypatch):
    # the order-p subgroups come from the element orders; only a caller that
    # reads past them makes the multiplication tables of the larger ranks
    g = build(atlas_id).group
    count = sum(order_raw(x) == p for x in g._raw_elements()) // (p - 1)
    listed = list(_elementary_abelian_subgroups(g, p))
    assert len(listed) > count
    _refuse_p_subgroup_listing(monkeypatch)

    def refused(*args):
        raise AssertionError("a multiplication table was built")

    monkeypatch.setattr(towers, "_right_rows", refused)
    assert list(itertools.islice(_elementary_abelian_subgroups(g, p), count)) == listed[:count]


def test_a_cover_by_a_subgroup_of_order_p_lists_no_p_subgroup(s4_tower, monkeypatch):
    # item 3 reads the source lazily and stops at its first cover, which
    # in S4's tower is a subgroup of prime order every time
    _refuse_p_subgroup_listing(monkeypatch)
    assert _irreducibility(s4_tower) == ("yes", [])


def test_irreducibility_verdicts_over_the_max_towers_of_the_soluble_corpus():
    # the towers find_max_tower returns, not only candidate towers: every
    # "no" among them is the top stage failing item 2
    kinds = Counter()
    for doc in SOLUBLE_AND_SMALL:
        g = load_group_spec(doc)
        report = is_irreducible_tower(find_max_tower(g)[1])
        kinds[report.details[0][:6] if report.details else report.verdict] += 1
    assert kinds == {"yes": 10, "item 2": 15}


@pytest.mark.parametrize(
    "atlas_id, p",
    [("dihedral(4)", 2), ("q8", 2), ("elem_abelian(2,3)", 2), ("extraspecial(2,-)", 2),
     ("extraspecial(3,+)", 3), ("s4", 2), ("s4", 3)],
)
def test_elementary_abelian_subgroups_meet_the_element_level_definition(atlas_id, p):
    # the element-level definition, on every nontrivial subgroup of the chain reference
    g = build(atlas_id).group
    found = [gens for _, gens in _elementary_abelian_subgroups(g, p)]
    want = {
        members
        for members, _ in _ref_all_subgroups(g)[1:]
        if all(order_raw(x) in (1, p) for x in members)
        and all(mul_raw(x, y) == mul_raw(y, x) for x in members for y in members)
    }
    got = [frozenset(g._subgroup_raw(gens)._raw_elements()) for gens in found]
    assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize("atlas_id", ["sl2_9", "psl2(7)", "agl1(7)", "sl2_3", "dihedral(15)"])
def test_the_order_p_subgroups_agree_with_the_element_order(atlas_id):
    # rank one is read off the element orders; sl2_9 sits past degree 256,
    # where order_raw without a base walks every point
    g = build(atlas_id).group
    elems = g._raw_elements()
    for p in (2, 3, 5, 7):
        want = {
            frozenset(g._subgroup_raw([x])._raw_elements()) for x in elems if order_raw(x) == p
        }
        rank_one = itertools.takewhile(
            lambda sub: len(sub[0]) == p, _elementary_abelian_subgroups(g, p)
        )
        got = []
        for members, gens in rank_one:
            assert len(gens) == 1 and order_raw(gens[0]) == p
            got.append(frozenset(map(elems.__getitem__, members)))
        assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize(
    "atlas_id, top_rank",
    [("direct_product(elem_abelian(2,4),cyclic(16))", 5),
     ("direct_product(elem_abelian(2,3),cyclic(243))", 3)],
)
def test_elementary_abelian_ranks_run_to_the_largest_subgroup(atlas_id, top_rank):
    # C2^4 x C16 holds C2^5, past the three generators a capped search
    # would reach; with 2^4 not dividing 1944 the ranks of C2^3 x C243 stop at three
    g = build(atlas_id).group
    ranks = Counter(len(gens) for _, gens in _elementary_abelian_subgroups(g, 2))
    assert max(ranks) == top_rank and ranks[top_rank] == 1


def test_elementary_abelian_subgroups_of_order_256_commute_and_are_independent():
    # the pool of 48 involutions holds non-commuting pairs, which no join takes
    q = build("direct_product(dihedral(4),extraspecial(2,+))").group
    assert (q.order(), q.degree) == (256, 36)
    elems = q._raw_elements()
    sets = []
    for members, gens in _elementary_abelian_subgroups(q, 2):
        assert len(members) == 2 ** len(gens)
        assert all(order_raw(x) == 2 for x in gens)
        assert all(mul_raw(x, y) == mul_raw(y, x) for x in gens for y in gens)
        assert frozenset(q._subgroup_raw(gens)._raw_elements()) == frozenset(
            map(elems.__getitem__, members)
        )
        sets.append(members)
    assert len(sets) == len(set(sets)) > 48


def test_no_elementary_abelian_cover_fails_item_3(s4_tower, monkeypatch):
    # with the source exact, a search that finds no cover is a "no", never undecided
    monkeypatch.setattr(towers, "_elementary_abelian_subgroups", lambda Q, p: iter(()))
    assert _irreducibility(s4_tower) == (
        "no",
        ["item 3: no elementary abelian subgroup above covers stage 2"],
    )


def test_probe_matches_the_chain_reference(small_soluble):
    """Same first tower, or none, at every height up to one above the maximum."""
    h = fitting_height(small_soluble)
    for height in range(1, h + 2):
        got, want = (
            None if t is None else tower_to_data(t)
            for t in (tower_probe(small_soluble, height), _ref_tower_probe(small_soluble, height))
        )
        assert got == want, height
        assert (got is None) == (height > h)


@pytest.mark.parametrize("group", list(_lifted_s6_subgroups(6)), ids=lambda g: "order %d" % g.order())
def test_probe_matches_the_chain_reference_past_the_bytes_kernel(group):
    assert is_soluble(group)
    test_probe_matches_the_chain_reference(group)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([5, 6]).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=2)
    )
)
def test_probe_matches_the_chain_reference_on_drawn_soluble_subgroups(tables):
    g = FiniteGroup([Permutation.from_zero_based(t) for t in tables], degree=len(tables[0]))
    assume(is_soluble(g))
    test_probe_matches_the_chain_reference(g)


@pytest.mark.parametrize(
    "atlas_id",
    ["q8", "dihedral(4)", "extraspecial(2,+)", "extraspecial(2,-)", "extraspecial(3,+)",
     "extraspecial(3,-)", "direct_product(q8,dihedral(4))"],
)
def test_probe_of_a_p_group_lists_no_p_subgroup_above_height_one(atlas_id, monkeypatch):
    """Adjacent stages need distinct primes, so a group of prime-power order
    has no tower of height two, and the probe says so before any candidate
    is listed."""
    g = build(atlas_id).group
    assert tower_probe(g, 1).height == 1
    _refuse_p_subgroup_listing(monkeypatch)
    assert tower_probe(g, 2) is None and tower_probe(g, 3) is None


def _conj_raw_class_count(g):
    """The number of conjugacy classes of nontrivial p-subgroups, p over the
    primes of |g|, by conjugating element sets by every element."""
    count = 0
    for p, _ in factorization(g.order()):
        left = {members for members, _ in _element_sets(g, _p_subgroup_sets(g, p))}
        while left:
            members = left.pop()
            count += 1
            for c in g._raw_elements():
                left.discard(frozenset(conj_raw(x, c) for x in members))
    return count


@pytest.mark.parametrize(
    "atlas_id, classes", [("s4", 7), ("agl1(9)", 5), ("direct_product(sym(3),s4)", 26)]
)
def test_probe_tries_one_top_stage_per_conjugacy_class(atlas_id, classes):
    """A conjugate of a tower is a tower, so the search offers on top only
    the least candidate of each class; one height above the maximum it
    tries them all and finds nothing."""
    g = build(atlas_id).group
    tops = []

    def watch(frame, event, arg):
        # each top stage tried opens one search level with a one-stage prefix
        if event == "call" and frame.f_code.co_name == "extend":
            if frame.f_globals["__name__"] == towers.__name__ and len(frame.f_locals["stages"]) == 1:
                tops.append(frame.f_locals["stages"][0])

    h = fitting_height(g)
    profiler = sys.getprofile()
    sys.setprofile(watch)
    try:
        assert tower_probe(g, h + 1) is None
    finally:
        sys.setprofile(profiler)
    assert len(tops) == len(set(tops)) == classes == _conj_raw_class_count(g)


@pytest.mark.parametrize(
    "atlas_id,mixed_pairs",
    [("s4", False), ("direct_product(sym(3),sym(3))", True), ("extraspecial(2,+)", False)],
)
def test_a_stage_centralizing_the_stage_below_fails(atlas_id, mixed_pairs):
    """The probe offers a candidate directly below a stage only when the stage
    normalizes it without centralizing it; this pins why that prune is safe.
    In s4 and the 2-group every such pair shares its prime."""
    g = build(atlas_id).group
    subs = [(p, c) for p, _ in factorization(g.order()) for c in _p_subgroup_candidates(g, p)]
    checked = mixed = 0
    for p_up, upper in subs:
        for p_low, lower in subs:
            gens = upper._raw_gens
            if not lower.normalized_by(gens) or not all(
                conj_raw(x, u) == x for u in gens for x in lower._raw_gens
            ):
                continue
            v = validate_tower(Tower(g, [(p_up, upper), (p_low, lower)]))
            assert not v.valid
            # a shared prime fails item 4 before the kernels are formed
            failed = 3 if p_up != p_low else 4
            assert [i for i, ok in v.items.items() if not ok] == [failed]
            mixed += p_up != p_low
            checked += 1
    assert checked > 0 and (mixed > 0) == mixed_pairs
