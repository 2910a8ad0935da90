"""FiniteGroup behaviour against brute-force oracles on small groups.

The oracles below recompute everything the slow, obvious way: conjugacy
classes by conjugating with every element, commutator sets by the full
double loop over pairs, derived subgroups as the closure of those.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cppo.bsgs
import cppo.group
from cppo.bsgs import StabilizerChain
from cppo import (
    DegreeMismatchError,
    EnumerationCapError,
    FiniteGroup,
    NotInGroupError,
    NotNormalError,
    Permutation,
    parse_permutation,
    quotient_by_normal,
)
from cppo.arith import is_prime_power
from cppo.atlas import build, load_group_spec
from cppo.corpus import corpus_groups, default_corpus
from cppo.permutation import (
    conj_raw,
    conjugation_sieve,
    inv_raw,
    mul_all,
    mul_raw,
    order_raw,
    raw_from_images,
)
from cppo.structure import derived_series, normal_subgroups, upper_fitting_series


def G(texts, degree, **kw):
    return FiniteGroup([parse_permutation(t, degree) for t in texts], degree=degree, **kw)


def s4():
    return G(["(1 2)", "(1 2 3 4)"], 4)


def a5():
    return G(["(1 2 3)", "(1 2 3 4 5)"], 5)


def d10():
    return G(["(1 2 3 4 5)", "(2 5)(3 4)"], 5)


def q8():
    # i and j in the regular picture on 8 points
    return G(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8)


def sl23():
    # 2-transitive picture would be too small; use Q8 extended by a 3-cycle action
    return G(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)", "(2 5 6)(4 7 8)"], 8)


def oracle_classes(group):
    elems = group.elements()
    out = []
    left = set(elems)
    while left:
        x = min(left)
        cls = {x.conjugate(g) for g in elems}
        left -= cls
        out.append((min(cls), len(cls)))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def oracle_commutators(group):
    elems = group.elements()
    out = set()
    for x in elems:
        for y in elems:
            out.add(~x * ~y * x * y)
    return out


@pytest.mark.parametrize("make", [s4, a5, d10, q8, sl23])
def test_orders(make):
    expected = {"s4": 24, "a5": 60, "d10": 10, "q8": 8, "sl23": 24}
    assert make().order() == expected[make.__name__]


@pytest.mark.parametrize("make", [s4, a5, d10, q8, sl23])
def test_elements_are_sorted_unique_and_counted(make):
    group = make()
    elems = group.elements()
    assert elems == sorted(elems)
    assert len(set(elems)) == len(elems) == group.order()
    assert all(group.contains(x) for x in elems)


@pytest.mark.parametrize("make", [s4, a5, d10, q8, sl23])
def test_classes_match_oracle(make):
    group = make()
    got = [(c.representative, c.size) for c in group.conjugacy_classes()]
    assert got == oracle_classes(group)
    assert sum(s for _, s in got) == group.order()
    for c in group.conjugacy_classes():
        assert c.representative == min(c.members())


def bfs_classes(group):
    """The classes as (rep, sorted members) in class order, by the breadth-first
    search the package used before it read conjugates off base images: each
    search frontier is conjugated by each generator, and the classes are the
    orbits of the conjugates."""
    elems = group._raw_elements()
    seen = set()
    out = []
    for x in elems:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            new_frontier = []
            for g in group._raw_gens:
                for z in (conj_raw(y, g) for y in frontier):
                    if z not in orbit:
                        orbit.add(z)
                        new_frontier.append(z)
            frontier = new_frontier
        out.append((x, sorted(orbit)))
        seen |= orbit
    out.sort(key=lambda c: (len(c[1]), c[0]))
    return out


def _drawn_subgroups_of_s6(count):
    rng = random.Random(17)
    for _ in range(count):
        tables = [rng.sample(range(6), 6) for _ in range(rng.randint(1, 4))]
        yield FiniteGroup([Permutation._from_raw(raw_from_images(t)) for t in tables], degree=6)


def _sl29_mod_centre():
    group = build("sl2_9").group
    return quotient_by_normal(group, group.center())


# one base point at degree 720 (tuple tables), two at degree 722, four and
# nine (wider than one int key) at small degree, an empty base, a coset-action
# quotient, base lengths 1 to 5 of subgroups of S6 on 1 to 4 generators, and
# the corpus groups, whose 3 to 5 generators the sweep trades for a pair
CLASS_GUARD_GROUPS = {
    "sl2_9": lambda: [build("sl2_9").group],
    "sl2_9xC2": lambda: [build("direct_product(sl2_9,cyclic(2))").group],
    "psl3_4": lambda: [build("psl3_4").group],
    "elem_abelian(2,9)": lambda: [build("elem_abelian(2,9)").group],
    "derived(cyclic(12))": lambda: [build("cyclic(12)").group.derived_subgroup()],
    "sl2_9/Z": lambda: [_sl29_mod_centre()],
    "s6_draws": lambda: list(_drawn_subgroups_of_s6(40)),
    # points past 2^16 need 4-byte base images
    "transposition_d65540": lambda: [G(["(65537 65539)"], 65540)],
}
CORPUS = corpus_groups()
# psl34_g1 is left out for time; it takes the pair path as psl34_phi_ext does
SWEPT_CORPUS = [(n, g) for n, g in CORPUS if n != "psl34_g1"]
CLASS_GUARD_GROUPS.update(("corpus:" + n, lambda g=g: [g]) for n, g in SWEPT_CORPUS)


@pytest.mark.parametrize("name", sorted(CLASS_GUARD_GROUPS))
def test_classes_form_no_conjugate_and_match_the_frontier_search(name, monkeypatch):
    groups = CLASS_GUARD_GROUPS[name]()
    expected = [bfs_classes(group) for group in groups]

    def refuse(*args):
        raise AssertionError("the class computation formed a conjugate")

    monkeypatch.setattr(cppo.group, "conj_raw", refuse)
    for group, want in zip(groups, expected):
        classes = group._raw_classes()
        assert [(c.rep, c.members) for c in classes] == want
        assert [c.order for c in classes] == [order_raw(rep) for rep, _ in want]


def test_pair_sweeps_are_taken_where_the_guard_allows():
    groups = [g for _, g in SWEPT_CORPUS] + list(_drawn_subgroups_of_s6(40))
    paired = {g.name or "s6_draw_%d" % i for i, g in enumerate(groups)
              if len(g._class_gens()) < len(g._raw_gens)}
    assert {"psl3_4", "sz8", "psl34_phi_ext", "pgammal2_9", "psl2(8)"} <= paired
    assert sum(n.startswith("s6_draw") for n in paired) >= 4


@pytest.mark.parametrize("name, group", CORPUS, ids=[n for n, _ in CORPUS])
def test_class_generators_generate_the_group(name, group):
    gens = group._class_gens()
    assert StabilizerChain.from_raw_generators(group.degree, gens).order() == group.order()
    assert all(group.chain().contains_raw(g) for g in gens)


def chains_built_by(call, monkeypatch):
    """call()'s result, and the generator list of each chain it built."""
    built = []
    real = StabilizerChain.from_raw_generators.__func__

    def counting(cls, degree, raw_gens, bound=None):
        built.append(list(raw_gens))
        return real(cls, degree, raw_gens, bound)

    with monkeypatch.context() as m:
        m.setattr(StabilizerChain, "from_raw_generators", classmethod(counting))
        return call(), built


def test_class_generators_fall_back_to_the_full_list(monkeypatch):
    # 2^3 needs its three generators, and |G| = 8 <= 6^2, so no pair is tried
    e8 = build("elem_abelian(2,3)").group
    e8.chain()
    assert chains_built_by(e8._class_gens, monkeypatch) == (e8._raw_gens, [])
    # 2^3 x A5 needs three generators too, and 480 > 11^2: every pair fails
    e8xa5 = G(["(1 2)", "(3 4)", "(5 6)", "(7 8 9)", "(7 8 9 10 11)"], 11)
    e8xa5.chain()
    gens, built = chains_built_by(e8xa5._class_gens, monkeypatch)
    assert gens == e8xa5._raw_gens and len(built) == 5
    # ASL(2,4) is 2-generated, but by none of its candidate pairs, and by no
    # pair of its own generators either
    asl = build("asl2_4").group
    asl.chain()
    gens, built = chains_built_by(asl._class_gens, monkeypatch)
    assert gens == asl._raw_gens and len(built) == len(asl._raw_gens) == 4
    for i, a in enumerate(asl._raw_gens):
        for b in asl._raw_gens[i + 1 :]:
            assert StabilizerChain.from_raw_generators(16, [a, b]).order() < asl.order()
    assert [(c.rep, c.members) for c in asl._raw_classes()] == bfs_classes(asl)


def test_a_regular_representation_keeps_its_generators_and_builds_no_chain(monkeypatch):
    # sl2_9 acts regularly on 720 points: |G| = 720 <= 720^2
    group = build("sl2_9").group
    group.chain()
    _, built = chains_built_by(group._raw_classes, monkeypatch)
    assert built == []
    assert group._class_gens() == group._raw_gens and len(group._raw_gens) == 3


@pytest.mark.parametrize("make", [s4, a5, d10, q8, sl23])
def test_commutator_set_matches_double_loop(make):
    group = make()
    assert group.commutator_set() == oracle_commutators(group)


@pytest.mark.parametrize("make", [s4, a5, d10, q8, sl23])
def test_cppo_flag_matches_direct_order_scan(make):
    group = make()
    bad = [w for w in oracle_commutators(group) if not is_prime_power(w.order())]
    assert group.is_cppo() == (not bad)


def test_cached_computes_once_per_group_and_arguments_and_keeps_no_failure():
    calls = []

    @cppo.group.cached
    def shifted_order(G, k):
        calls.append(k)
        if k < 0:
            raise ValueError(k)
        return G.order() + k

    g, h = build("s4").group, build("s4").group
    assert [shifted_order(g, 1), shifted_order(g, 1), shifted_order(g, 2)] == [25, 25, 26]
    assert shifted_order(h, 1) == 25
    assert calls == [1, 2, 1]
    for _ in range(2):
        with pytest.raises(ValueError):
            shifted_order(g, -1)
    assert calls == [1, 2, 1, -1, -1]
    name = shifted_order.__qualname__
    assert {key for key in g._cache if key[0] == name} == {(name, 1), (name, 2)}


def test_cppo_witness_on_a_group_with_order_six_commutator():
    # commutators of S3 x S4 fill A3 x A4, which holds a (3-cycle, double
    # transposition) pair of order 6
    group = G(["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6 7)"], 7)
    w = group.cppo_witness()
    assert w is not None
    assert w.order == 6
    assert not is_prime_power(w.order)
    # the witness pair really produces the witness commutator
    assert ~w.left * ~w.right * w.left * w.right == w.commutator
    assert w.commutator.order() == w.order
    assert not group.is_cppo()


def per_element_order_witness(group):
    """The CPPO scan with each distinct candidate's order computed afresh, as
    it was before orders were read off the classes: (commutator, order,
    left, right) of the first candidate of non-prime-power order, or None."""
    for c in group._raw_classes():
        rinv = inv_raw(c.rep)
        seen = set()
        for s in c.members:
            w = mul_raw(rinv, s)
            if w in seen:
                continue
            seen.add(w)
            o = order_raw(w)
            if not is_prime_power(o):
                return w, o, c.rep, group._class_conjugator(c.rep, s)
    return None


# the corpus documents of groups of order at most 40320, loaded afresh in
# each test so that no large group's elements outlive it
WITNESS_DOCS = [
    (g.name, doc) for doc in default_corpus() for g in [load_group_spec(doc)] if g.order() <= 40320
]


def test_witness_reference_covers_the_large_groups():
    names = [name for name, _ in WITNESS_DOCS]
    for name in ("sz8", "psl3_4", "alt(8)", "psl34_phi_ext", "sl2_9"):
        assert name in names


@pytest.mark.parametrize("name, doc", WITNESS_DOCS, ids=[n for n, _ in WITNESS_DOCS])
def test_cppo_witness_matches_the_per_element_order_scan(name, doc):
    group = load_group_spec(doc)
    w = group.cppo_witness()
    got = None if w is None else (w.commutator.raw, w.order, w.left.raw, w.right.raw)
    assert got == per_element_order_witness(group)


def raw_commutators(group):
    """The all-pairs oracle on raw tables: x^-1 x^y for every x and y."""
    elems = group._raw_elements()
    invs = [inv_raw(x) for x in elems]
    out = set()
    for y in elems:
        out.update(map(mul_raw, invs, (conj_raw(x, y) for x in elems)))
    return out


# the drawn generators are those of tests/test_bsgs.py; half as many draws,
# since the oracle costs about 0.2 s on each draw that gives A6 or S6
@settings(max_examples=20, deadline=None)
@given(st.lists(st.permutations(range(6)), max_size=3))
def test_commutators_match_the_oracles_on_subgroups_of_s6(tables):
    group = FiniteGroup([Permutation._from_raw(raw_from_images(t)) for t in tables], degree=6)
    assert {c.raw for c in group.commutator_set()} == raw_commutators(group)
    w = group.cppo_witness()
    got = None if w is None else (w.commutator.raw, w.order, w.left.raw, w.right.raw)
    assert got == per_element_order_witness(group)


def test_eppo_witness():
    group = G(["(1 2)", "(3 4 5)"], 5)  # C2 x C3, an element of order 6 exists
    w = group.eppo_witness()
    assert w is not None and w.order == 6
    assert w.element.order() == 6
    assert a5().is_eppo()
    assert not a5().eppo_witness()


def test_derived_subgroup_matches_oracle():
    for make, want in [(s4, 12), (a5, 60), (d10, 5), (q8, 2), (sl23, 8)]:
        group = make()
        derived = group.derived_subgroup()
        closure = FiniteGroup(sorted(oracle_commutators(group)), degree=group.degree)
        assert derived.order() == closure.order() == want
        assert derived.same_group_as(closure)


def test_perfect_group_is_its_own_derived_subgroup():
    group = a5()
    elems = group._raw_elements()
    derived = group.derived_subgroup()
    assert derived is group
    assert derived._raw_elements() is elems
    assert group.derived_subgroup() is derived
    # a non-perfect group keeps a proper subgroup of its own
    assert s4().derived_subgroup().order() == 12


def test_derived_subgroup_is_normal():
    group = s4()
    derived = group.derived_subgroup()
    for g in group.generators:
        for d in derived.generators:
            assert derived.contains(d.conjugate(g))


def test_center_and_centralizer():
    assert s4().center().order() == 1
    assert q8().center().order() == 2
    group = d10()
    r = parse_permutation("(1 2 3 4 5)", 5)
    cent = group.centralizer([r])
    assert cent.order() == 5
    elems = group.elements()
    assert sorted(cent.elements()) == sorted(x for x in elems if x * r == r * x)


def test_centralizer_confirms_what_the_base_images_keep():
    # (1 2 3) and its conjugate (1 2 4) by t = (3 4) both send G's base
    # point 1 to 2, yet t normalizes nothing here and centralizes only 1
    group = G(["(1 2 3)"], 4)
    assert group.chain().base == [0]
    t = parse_permutation("(3 4)", 4)
    x = parse_permutation("(1 2 3)", 4).raw
    assert x in conjugation_sieve(group._raw_elements(), [0], t.raw)
    assert group.centralizer([t]).order() == 1
    assert group.centralizer([t, Permutation._from_raw(x)]).order() == 1
    # (1 2) normalizes G and inverts it; the identity centralizes all of it
    assert group.centralizer([parse_permutation("(1 2)", 4)]).order() == 1
    assert group.centralizer([Permutation.identity(4)]).order() == 3


def test_centre_of_sl2_9_conjugates_only_its_centre(monkeypatch):
    group = build("sl2_9").group
    group._raw_elements()
    left, conjugations = [], []

    def sieving(xs, base, g):
        kept = conjugation_sieve(xs, base, g)
        left.append(len(kept))
        return kept

    def counting(x, g):
        conjugations.append(1)
        return conj_raw(x, g)

    monkeypatch.setattr(cppo.group, "conjugation_sieve", sieving)
    monkeypatch.setattr(cppo.group, "conj_raw", counting)
    centre = group.center()
    # the generators normalize G, so the base images alone narrow its 720
    # elements to the centre, and only its members are conjugated
    assert centre.order() == 2 and len(group._raw_gens) == 3
    assert left[-1] == 2
    assert len(conjugations) <= 3 * 2


def pairwise_centralizer(group, targets):
    """The centralizer as it was filtered before the batch kernel: every
    element against every target, by two products."""
    kept = [
        x
        for x in group._raw_elements()
        if all(mul_raw(x, t) == mul_raw(t, x) for t in targets)
    ]
    return group._subgroup_from_raw_elements(kept)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.permutations(range(6)), min_size=1, max_size=3),
    st.lists(st.permutations(range(6)), max_size=3),
)
def test_centralizer_matches_the_pairwise_filter_on_subgroups_of_s6(tables, targets):
    group = FiniteGroup([Permutation._from_raw(raw_from_images(t)) for t in tables], degree=6)
    perms = [Permutation._from_raw(raw_from_images(t)) for t in targets]
    got = group.centralizer(perms)
    want = pairwise_centralizer(group, [p.raw for p in perms])
    assert got._raw_gens == want._raw_gens
    assert got.order() == want.order()
    # the centre, with the group's own generators as targets
    assert group.center()._raw_gens == pairwise_centralizer(group, group._raw_gens)._raw_gens


def test_normal_closures_in_s4():
    group = s4()
    for text, order in (("(1 2)(3 4)", 4), ("(1 2)", 24), ("(1 2 3)", 12)):
        assert group._normal_closure_raw([parse_permutation(text, 4).raw]).order() == order


def test_subgroup_membership_guard():
    with pytest.raises(NotInGroupError):
        a5().subgroup([parse_permutation("(1 2)", 5)])
    sub = s4().subgroup([parse_permutation("(1 2 3)", 4)])
    assert sub.order() == 3


def test_raw_subgroup_membership_guard():
    with pytest.raises(NotInGroupError):
        a5()._subgroup_raw([parse_permutation("(1 2)", 5).raw])
    assert s4()._subgroup_raw([parse_permutation("(1 2 3)", 4).raw]).order() == 3


def test_abelian_cyclic_trivial_flags():
    assert G(["(1 2 3 4 5 6)"], 6).is_cyclic()
    assert G(["(1 2 3 4 5 6)"], 6).is_abelian()
    assert not s4().is_abelian()
    v4 = G(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
    assert not v4.is_cyclic()
    assert FiniteGroup([], degree=3).is_trivial()


def test_exponent_and_rep_orders():
    assert s4().exponent() == 12
    assert s4().class_rep_orders() == [1, 2, 2, 3, 4]
    assert a5().class_rep_orders() == [1, 2, 3, 5, 5]
    assert q8().class_rep_orders() == [1, 2, 4, 4, 4]


def test_enumeration_cap_is_enforced():
    group = G(["(1 2)", "(1 2 3 4)"], 4, cap=10)
    with pytest.raises(EnumerationCapError) as info:
        group.elements()
    assert "cap=10" in str(info.value)
    # order never needs enumeration, so it still works
    assert group.order() == 24


def test_a_group_past_the_cap_is_refused_before_any_element_is_formed(monkeypatch):
    group = build("sym(9)").group
    assert group.order() > group.cap  # the chain exists before counting starts
    calls = []

    def counting(a, b):
        calls.append(1)
        return mul_raw(a, b)

    def counting_batch(kernel):
        def batch(*args):
            calls.append(1)
            return kernel(*args)

        return batch

    for module in (cppo.group, cppo.bsgs):
        monkeypatch.setattr(module, "mul_raw", counting)
        monkeypatch.setattr(module, "mul_all", counting_batch(mul_all))
    monkeypatch.setattr(cppo.group, "conj_raw", counting_batch(conj_raw))
    with pytest.raises(EnumerationCapError) as info:
        group._raw_elements()
    assert info.value.cap == group.cap
    assert calls == []


def test_membership_and_centralizer_check_the_degree():
    group = s4()
    wrong = parse_permutation("(1 2)", 5)
    assert not group.contains(wrong)
    with pytest.raises(DegreeMismatchError):
        group.centralizer([wrong])


def test_a_quotient_with_more_cosets_than_the_cap_is_refused():
    group = G(["(1 2)", "(1 2 3 4)"], 4, cap=4)
    v4 = G(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
    # S4/V4 has six cosets; the fifth one found is past the cap
    with pytest.raises(EnumerationCapError) as info:
        quotient_by_normal(group, v4)
    assert info.value.cap == 4


def test_quotient_s4_by_v4_is_s3():
    group = s4()
    v4 = FiniteGroup(
        [parse_permutation("(1 2)(3 4)", 4), parse_permutation("(1 3)(2 4)", 4)]
    )
    q = quotient_by_normal(group, v4)
    assert q.order() == 6
    assert not q.is_abelian()
    assert q.class_rep_orders() == [1, 2, 3]


def test_quotient_projection_is_a_homomorphism():
    group = s4()
    v4 = FiniteGroup(
        [parse_permutation("(1 2)(3 4)", 4), parse_permutation("(1 3)(2 4)", 4)]
    )
    q = quotient_by_normal(group, v4)
    elems = group.elements()
    for x in elems[::5]:
        for y in elems[::7]:
            assert q.project(x * y) == q.project(x) * q.project(y)
    for n in v4.elements():
        assert q.project(n).is_identity()
    for z in q.elements():
        assert q.project(q.lift(z)) == z


def test_quotient_rejects_non_normal():
    group = s4()
    c2 = FiniteGroup([parse_permutation("(1 2)", 4)])
    with pytest.raises(NotNormalError):
        quotient_by_normal(group, c2)


def test_quotient_rejects_a_kernel_outside_the_group():
    group = G(["(1 2)"], 4)
    # <(3 4)> is normalized by <(1 2)> but does not lie in it
    with pytest.raises(NotInGroupError):
        quotient_by_normal(group, G(["(3 4)"], 4))
    with pytest.raises(DegreeMismatchError):
        quotient_by_normal(group, G(["(3 4)"], 5))


def test_quotient_project_and_lift_refuse_non_members():
    a4 = G(["(1 2 3)", "(1 2)(3 4)"], 4)
    q = quotient_by_normal(a4, G(["(1 2)(3 4)", "(1 3)(2 4)"], 4))
    assert q.order() == 3
    with pytest.raises(NotInGroupError):
        q.project(parse_permutation("(1 2)", 4))
    # a transposition of the three cosets is not in the cyclic quotient
    with pytest.raises(NotInGroupError):
        q.lift(parse_permutation("(1 2)", 3))


def test_quotient_by_trivial_shares_the_group():
    group = s4()
    q = quotient_by_normal(group, group.trivial_subgroup())
    assert q.order() == 24
    x = parse_permutation("(1 2 3)", 4)
    assert q.project(x) == x
    assert q.lift(x) == x


def test_a_repeated_element_fails_the_enumeration_check(monkeypatch):
    group = a5()
    chain = group.chain()
    elements = chain.elements

    def repeating():
        elems = elements()
        return elems[:-1] + elems[:1]

    monkeypatch.setattr(chain, "elements", repeating)
    with pytest.raises(RuntimeError, match="59 distinct elements but the chain says 60"):
        group._raw_elements()
    # nothing half-built is left behind
    assert group._elements is None


def test_quotient_of_sl23_by_center():
    group = sl23()
    z = group.center()
    assert z.order() == 2
    q = quotient_by_normal(group, z)
    # the quotient is the 12-element rotation group, nonabelian
    assert q.order() == 12
    assert not q.is_abelian()
    assert q.class_rep_orders() == [1, 2, 3, 3]


def test_group_comparisons():
    group = s4()
    other = G(["(1 2 3 4)", "(1 2)"], 4)
    assert group.same_group_as(other)
    assert group.contains_group(G(["(1 2 3)"], 4))
    assert not G(["(1 2 3)"], 4).contains_group(group)


def test_trivial_group_basics():
    t = FiniteGroup([], degree=4)
    assert t.order() == 1
    assert t.elements() == [Permutation.identity(4)]
    assert t.is_cppo() and t.is_eppo()
    assert t.commutator_set() == {Permutation.identity(4)}


def test_normalized_by_matches_conjugating_every_element_in_s5():
    rng = random.Random(5)
    elems = G(["(1 2)", "(1 2 3 4 5)"], 5)._raw_elements()

    def brute(K, raw_gens):
        members = set(K._raw_elements())
        return all(conj_raw(x, g) in members for g in raw_gens for x in members)

    # <(1 2)> is not normalized by (1 3)
    pairs = [(G(["(1 2)"], 5), [parse_permutation("(1 3)", 5).raw])]
    for _ in range(30):
        K = FiniteGroup(
            [Permutation._from_raw(rng.choice(elems)) for _ in range(rng.randint(1, 2))], degree=5
        )
        pairs.append((K, [rng.choice(elems) for _ in range(rng.randint(1, 2))]))
    verdicts = [K.normalized_by(raw_gens) for K, raw_gens in pairs]
    assert verdicts == [brute(K, raw_gens) for K, raw_gens in pairs]
    assert verdicts[0] is False and True in verdicts


def test_preimage_gens_pull_a_quotient_subgroup_back():
    group = s4()
    v4 = FiniteGroup(
        [parse_permutation("(1 2)(3 4)", 4), parse_permutation("(1 3)(2 4)", 4)]
    )
    q = quotient_by_normal(group, v4)
    x = parse_permutation("(1 2)", 4)
    for sub in (q.trivial_subgroup(), q.subgroup([q.project(x)]), q.subgroup(q.generators)):
        pre = group._subgroup_raw(q.preimage_gens(sub))
        assert pre.order() == v4.order() * sub.order()
        assert all(sub.contains(q.project(g)) for g in pre.generators)


# -- quotients: cosets looked up by base images ---------------------------------


def reference_quotient(G, N):
    """The coset loop of quotient_by_normal before it looked cosets up by base
    images: each (coset, generator) pair forms the coset's least element.
    Returns the degree, the generators' raw tables, the representatives and
    the representative -> coset index map."""
    nraw = N._raw_elements()
    reps = [nraw[0]]
    index = {nraw[0]: 0}
    images = [[] for _ in G._raw_gens]
    for r in reps:  # grows while it is walked
        for gi, g in enumerate(G._raw_gens):
            t = mul_raw(r, g)
            c = min(mul_raw(n, t) for n in nraw)
            if c not in index:
                index[c] = len(reps)
                reps.append(c)
            images[gi].append(index[c])
    return len(reps), [raw_from_images(img) for img in images], reps, list(index.items())


def assert_quotient_matches_reference(G, N):
    q = quotient_by_normal(G, N)
    if N.is_trivial():
        return
    degree, gens, reps, index = reference_quotient(G, N)
    assert (q.degree, [g.raw for g in q.generators], q._reps) == (degree, gens, reps)
    assert [(r, i) for i, r in enumerate(q._reps)] == index
    # project: x sends coset N r to the coset of the least element of N r x
    nraw, coset_of = N._raw_elements(), dict(index)
    rng = random.Random(20)
    elems = G._raw_elements()
    for x in G._raw_gens + [rng.choice(elems) for _ in range(20)]:
        images = [coset_of[min(mul_raw(n, mul_raw(r, x)) for n in nraw)] for r in reps]
        assert q.project(Permutation._from_raw(x)) == Permutation.from_zero_based(images)


def _series_terms(group):
    return upper_fitting_series(group).terms + derived_series(group).terms


@pytest.mark.parametrize(
    "group, kernels",
    [
        (lambda: build("sl2_9").group, lambda g: [g.center()]),
        (lambda: build("sl2_5").group, lambda g: [g.center()]),
        (s4, lambda g: [G(["(1 2)(3 4)", "(1 3)(2 4)"], 4)]),
        (lambda: build("direct_product(s4,alt(5))").group, _series_terms),
    ],
    ids=["sl2_9/Z", "sl2_5/Z", "S4/V4", "S4xA5 series"],
)
def test_quotient_matches_the_product_loop(group, kernels):
    g = group()
    for n in kernels(g):
        assert_quotient_matches_reference(g, n)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
def test_quotients_of_drawn_s6_subgroups_match_the_product_loop(tables):
    g = FiniteGroup([Permutation.from_zero_based(t) for t in tables], degree=6)
    for n in normal_subgroups(g):
        assert_quotient_matches_reference(g, n)


def test_sl2_9_mod_centre_forms_products_only_for_new_cosets(monkeypatch):
    group = build("sl2_9").group
    centre = group.center()
    calls = []

    def counting(a, b):
        calls.append(1)
        return mul_raw(a, b)

    monkeypatch.setattr(cppo.group, "mul_raw", counting)
    assert quotient_by_normal(group, centre).degree == 360
    # three products for each of the 359 new cosets; the product loop made
    # three for each of the 1,080 (coset, generator) pairs
    assert len(calls) <= 1100
