"""Tower validation, search, and certification against hand-built examples,
and the set-based probe against the chain-based search it replaced."""

import random
from collections import Counter

import pytest

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
    _all_subgroups,
    _elementary_abelian_subgroup_gens,
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


def test_all_subgroups_match_the_chain_reference(small_soluble):
    for p, _ in factorization(small_soluble.order()):
        syl = sylow_subgroup(small_soluble, p)
        assert _all_subgroups(syl) == _ref_all_subgroups(syl), p


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
def test_all_subgroups_match_the_chain_reference_past_the_bytes_kernel_and_on_quotients(group):
    assert _all_subgroups(group) == _ref_all_subgroups(group)


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
    each set's size its order."""
    for p, _ in factorization(small_soluble.order()):
        for members, gens in _p_subgroup_sets(small_soluble, p):
            sub = small_soluble._subgroup_raw(gens)
            assert sub._raw_gens == gens and sub.order() == len(members)


def reference_p_subgroup_sets(G, p):
    """_p_subgroup_sets as it was before it conjugated whole lists through one
    conjugator per generator: one conj_raw per member and per generator."""
    syl = sylow_subgroup(G, p)
    if syl.order() == 1:
        return []
    pool = {members: gens for members, gens in _all_subgroups(syl) if len(members) > 1}
    queue = list(pool.items())
    for members, gens in queue:
        for g in G._raw_gens:
            key = frozenset(conj_raw(x, g) for x in members)
            if key not in pool:
                conj_gens = [conj_raw(x, g) for x in gens]
                pool[key] = conj_gens
                queue.append((key, conj_gens))
    return sorted(pool.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


CORPUS_UPTO_500 = [(n, g) for n, g in corpus_groups() if g.order() <= 500]


@pytest.mark.parametrize("name, group", CORPUS_UPTO_500, ids=[n for n, _ in CORPUS_UPTO_500])
def test_p_subgroup_sets_match_the_conj_raw_reference(name, group):
    for p, _ in factorization(group.order()):
        assert _p_subgroup_sets(group, p) == reference_p_subgroup_sets(group, p), p


def test_p_subgroup_sets_of_sl2_9_match_the_conj_raw_reference():
    group = build("sl2_9").group
    assert _p_subgroup_sets(group, 3) == reference_p_subgroup_sets(group, 3)


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


def test_capped_elementary_abelian_search_is_incomplete_past_rank_three():
    # C2^4 x C16 has 31 involutions, all in the pool, but holds C2^5; the
    # search stops at three generators, so it cannot rule out a cover
    q = build("direct_product(elem_abelian(2,4),cyclic(16))").group
    assert q.order() == 256
    found, complete = _elementary_abelian_subgroup_gens(q, 2)
    assert max(len(gens) for gens in found) == 3
    assert not complete
    # with p^4 not dividing |Q| no elementary abelian subgroup has rank four
    big = build("direct_product(elem_abelian(2,3),cyclic(243))").group
    assert big.order() == 1944
    assert _elementary_abelian_subgroup_gens(big, 2)[1]


@pytest.mark.parametrize(
    "atlas_id, p",
    [("dihedral(4)", 2), ("q8", 2), ("elem_abelian(2,3)", 2), ("extraspecial(2,-)", 2),
     ("extraspecial(3,+)", 3), ("s4", 2), ("s4", 3)],
)
def test_elementary_abelian_search_below_the_cap_finds_every_subgroup(atlas_id, p):
    # the element-level definition, on every subgroup of the chain reference
    g = build(atlas_id).group
    found, complete = _elementary_abelian_subgroup_gens(g, p)
    want = {
        members
        for members, _ in _ref_all_subgroups(g)
        if all(order_raw(x) in (1, p) for x in members)
        and all(mul_raw(x, y) == mul_raw(y, x) for x in members for y in members)
    }
    got = [frozenset(g._subgroup_raw(gens)._raw_elements()) for gens in found]
    assert complete and len(got) == len(set(got)) and set(got) == want


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
