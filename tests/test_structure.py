"""Structure computations against a from-scratch subgroup-lattice oracle.

For groups small enough to enumerate every subgroup, the oracle rebuilds
the whole lattice by breadth-first element addition and derives normality,
nilpotency, solubility, Fitting subgroup and radical from it with no help
from the code under test.  Each group's lattice is computed once per run.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppo import FiniteGroup, lemmas, parse_permutation, structure, towers
from cppo.arith import factorization, is_prime, p_part
from cppo.atlas import build, load_group_spec
from cppo.bsgs import StabilizerChain
from cppo.corpus import corpus_groups, default_corpus
from cppo.errors import (
    ClassCapError,
    InsolubleError,
    NotNilpotentError,
    NotPGroupError,
    NotSimpleError,
)
from cppo.group import quotient_by_normal
from cppo.harness import classify
from cppo.permutation import (
    Permutation,
    block_raw,
    comm_raw,
    identity_raw,
    mul_raw,
    order_raw,
    raw_from_images,
)
from cppo.structure import (
    _element_orders,
    derived_series,
    fitting_height,
    fitting_subgroup,
    frattini_of_p_group,
    identify_simple_eppo,
    is_nilpotent,
    is_perfect,
    is_quasisimple,
    is_simple,
    is_soluble,
    iter_normal_subgroups,
    lower_central_series,
    nilpotent_residual,
    normal_subgroups,
    p_core,
    p_prime_part_of_nilpotent,
    quotient_is_simple,
    soluble_radical,
    sylow_subgroup,
    upper_fitting_series,
)


def G(texts, degree):
    return FiniteGroup([parse_permutation(t, degree) for t in texts], degree=degree)


def memoized(group, fn):
    """The argument tuples of the calls fn has memoized on the group."""
    return {key[1:] for key in group._cache if key[0] == fn.__qualname__}


def s4():
    return G(["(1 2)", "(1 2 3 4)"], 4)


def a4():
    return G(["(1 2 3)", "(1 2)(3 4)"], 4)


def a5():
    return G(["(1 2 3)", "(1 2 3 4 5)"], 5)


def d8():
    return G(["(1 2 3 4)", "(2 4)"], 4)


def d12():
    return G(["(1 2 3 4 5 6)", "(2 6)(3 5)"], 6)


def q8():
    return G(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8)


def sl23():
    return G(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)", "(2 5 6)(4 7 8)"], 8)


def c12():
    return G(["(1 2 3 4)", "(5 6 7)"], 7)


def s3xs3():
    return G(["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], 6)


# ---------------------------------------------------------------------------
# the oracle: full subgroup lattice by element addition


def closure(elems, degree):
    """The subgroup generated by elems: every product of them, found
    breadth-first from the identity by right multiplication (a finite
    group needs no inverses)."""
    gens = list(elems)
    ident = raw_from_images(range(degree))
    out = {ident}
    frontier = [ident]
    for y in frontier:
        for x in gens:
            z = raw_from_images(y[i] for i in x)
            if z not in out:
                out.add(z)
                frontier.append(z)
    return frozenset(out)


def pairwise_closure(elems, degree):
    """The closure by adding each new element's products with every element
    met so far, on both sides; kept as a reference for closure."""
    ident = raw_from_images(range(degree))
    out = {ident}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        if x in out:
            continue
        out.add(x)
        for y in list(out):
            for z in (raw_from_images(y[i] for i in x), raw_from_images(x[i] for i in y)):
                if z not in out:
                    frontier.append(z)
    return frozenset(out)


_LATTICES = {}  # (degree, generators) -> every subgroup as an element set


def lattice(group):
    key = (group.degree, tuple(group._raw_gens))
    if key in _LATTICES:
        return _LATTICES[key]
    deg = group.degree
    elems = group._raw_elements()
    ident = raw_from_images(range(deg))
    subs = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        base = frontier.pop()
        for x in elems:
            if x in base:
                continue
            bigger = closure(set(base) | {x}, deg)
            if bigger not in subs:
                subs.add(bigger)
                frontier.append(bigger)
    _LATTICES[key] = subs
    return subs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(5)), max_size=3))
def test_closure_matches_the_pairwise_reference(images):
    elems = [raw_from_images(x) for x in images]
    assert closure(elems, 5) == pairwise_closure(elems, 5)
    assert len(closure(elems, 5)) == FiniteGroup(
        [Permutation.from_zero_based(x) for x in images], degree=5
    ).order()


def inv_of(x):
    out = [0] * len(x)
    for i, v in enumerate(x):
        out[v] = i
    return raw_from_images(out)


def conj(x, g):
    gi = inv_of(g)
    return raw_from_images(g[x[gi[i]]] for i in range(len(x)))


def oracle_normals(group):
    elems = group._raw_elements()
    return {s for s in lattice(group) if all(conj(x, g) in s for x in s for g in elems)}


def oracle_derived_closure(members, degree):
    comms = set()
    for x in members:
        xi = inv_of(x)
        for y in members:
            yi = inv_of(y)
            xy = raw_from_images(y[x[i]] for i in range(degree))
            yx = raw_from_images(x[y[i]] for i in range(degree))
            comms.add(raw_from_images(xy[yi[xi[i]]] for i in range(degree)))
    return closure(comms, degree)


def oracle_soluble(members, degree):
    current = frozenset(members)
    while True:
        nxt = oracle_derived_closure(current, degree)
        if nxt == current:
            return len(current) == 1
        current = nxt


def oracle_nilpotent(members, degree):
    # all Sylow subgroups normal, read off the sub-lattice of the member set
    group = FiniteGroup(
        [parse_permutation(str_cycles(x), degree) for x in members], degree=degree
    )
    n = len(members)
    for p in {p for p, _ in factor(n)}:
        part = 1
        while n % (part * p) == 0:
            part *= p
        syls = [
            s
            for s in lattice(group)
            if len(s) == part and all(conj(x, g) in s for x in s for g in members)
        ]
        if not syls:
            return False
    return True


def factor(n):
    out = []
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def str_cycles(raw):
    # cycle text for re-parsing; "()"-free one-line form
    seen = [False] * len(raw)
    parts = []
    for i in range(len(raw)):
        if seen[i] or raw[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = raw[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = raw[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) or "()"


SMALL = [s4, a4, d8, d12, q8, sl23, c12, s3xs3]


def assert_normals_match_oracle(group):
    normals = normal_subgroups(group)
    got = [frozenset(n._raw_elements()) for n in normals]
    assert len(set(got)) == len(got)
    assert set(got) == oracle_normals(group)
    assert [n.order() for n in normals] == sorted(len(s) for s in got)


@pytest.mark.parametrize("make", SMALL)
def test_normal_subgroups_match_lattice_oracle(make):
    assert_normals_match_oracle(make())


@st.composite
def small_subgroups_of_s6(draw):
    """Subgroups of S6 of order at most 24, where the lattice oracle is quick:
    each drawn permutation joins the generators unless it would pass 24."""
    gens = [Permutation.from_zero_based(draw(st.permutations(range(6))))]
    for images in draw(st.lists(st.permutations(range(6)), max_size=3)):
        bigger = gens + [Permutation.from_zero_based(images)]
        if FiniteGroup(bigger, degree=6).order() <= 24:
            gens = bigger
    return FiniteGroup(gens, degree=6)


@settings(max_examples=15, deadline=None)
@given(small_subgroups_of_s6())
def test_normal_subgroups_of_drawn_s6_subgroups_match_lattice_oracle(group):
    assert_normals_match_oracle(group)


def chain_normal_subgroups(G):
    """The lattice as it was computed before joins came from class products:
    each join gets its own chain, and its signature comes from sifting every
    class representative through that chain."""
    reps = [c.rep for c in G._raw_classes()]
    ident = identity_raw(G.degree)

    def signature(sub):
        chain = sub.chain()
        return frozenset(i for i, r in enumerate(reps) if chain.contains_raw(r))

    found = {}
    triv = G.trivial_subgroup()
    found[signature(triv)] = triv
    atoms = []
    for r in reps:
        if r != ident:
            sub = G._normal_closure_raw([r])
            sig = signature(sub)
            atoms.append((sig, sub))
            found.setdefault(sig, sub)
    frontier = list(found)
    while frontier:
        new_frontier = []
        for sig in frontier:
            base = found[sig]
            for asig, atom in atoms:
                if asig <= sig:
                    continue
                join = G._subgroup_raw(base._raw_gens + atom._raw_gens)
                jsig = signature(join)
                if jsig not in found:
                    found[jsig] = join
                    new_frontier.append(jsig)
        frontier = new_frontier
    ordered = sorted(found.items(), key=lambda item: (item[1].order(), sorted(item[0])))
    return [sub for _, sub in ordered]


CORPUS = corpus_groups(default_corpus())
SMALL_CORPUS = [(name, g) for name, g in CORPUS if g.order() <= 1000]
LATTICE_GROUPS = [
    (name, g)
    for name, g in SMALL_CORPUS
    if len(g._raw_classes()) <= structure.DEFAULT_CLASS_CAP
]


def test_reference_groups_include_the_lattice_rich_ones():
    names = [name for name, _ in LATTICE_GROUPS]
    for name in ("extraspecial(2,+)", "extraspecial(2,-)", "direct_product(q8,dihedral(4))"):
        assert name in names


@pytest.mark.parametrize("name, group", LATTICE_GROUPS, ids=[n for n, _ in LATTICE_GROUPS])
def test_normal_subgroups_match_the_chain_based_reference(name, group):
    got = [(n.order(), chain_signature(group, n)) for n in normal_subgroups(group)]
    want = [(n.order(), chain_signature(group, n)) for n in chain_normal_subgroups(group)]
    assert got == want


def test_each_nontrivial_normal_subgroup_is_one_closure_of_its_class_representatives(
    monkeypatch,
):
    g = build("direct_product(q8,dihedral(4))").group
    reps = [c.rep for c in g._raw_classes()]
    closures = []
    real = FiniteGroup._normal_closure_raw

    def counting(self, raw_seeds):
        sub = real(self, raw_seeds)
        closures.append((set(raw_seeds), sub))
        return sub

    monkeypatch.setattr(FiniteGroup, "_normal_closure_raw", counting)
    normals = normal_subgroups(g)
    assert len(normals) == 91
    assert len(closures) == 90
    for n, (seeds, sub) in zip(normals[1:], closures):
        assert sub is n
        assert seeds == {reps[k] for k in chain_signature(g, n)}


def test_normal_subgroups_build_no_chain_for_a_join(monkeypatch):
    g = load_group_spec({"atlas": "direct_product", "params": ["q8", "dihedral(4)"]})
    g._raw_classes()  # the group's own chain and classes come first
    built = []
    from_raw_generators = StabilizerChain.from_raw_generators.__func__

    def counting(cls, degree, raw_gens):
        built.append(len(raw_gens))
        return from_raw_generators(cls, degree, raw_gens)

    monkeypatch.setattr(StabilizerChain, "from_raw_generators", classmethod(counting))
    normals = normal_subgroups(g)
    assert len(normals) == 91
    # at most the trivial subgroup's signature is read off a fresh chain
    assert built in ([], [0])


@pytest.mark.parametrize("name, group", LATTICE_GROUPS, ids=[n for n, _ in LATTICE_GROUPS])
def test_each_prefix_of_the_lattice_walk_is_the_same_prefix_of_the_list(name, group):
    want = [(n.order(), n._raw_gens) for n in normal_subgroups(group)]
    for k in (1, 8, len(want)):
        # a walk on a fresh copy, stopped after k members
        fresh = FiniteGroup(group.generators, degree=group.degree)
        got = [(n.order(), n._raw_gens) for n in islice(iter_normal_subgroups(fresh), k)]
        assert got == want[:k], k


@pytest.mark.parametrize(
    "name, total", [("direct_product(q8,dihedral(4))", 91), ("extraspecial(2,+)", 68)]
)
def test_taking_eight_normal_subgroups_forms_eight_subgroups(monkeypatch, name, total):
    g = build(name).group
    g._raw_classes()  # the group's own chain and classes come first
    formed = []
    real = FiniteGroup._subgroup_raw

    def counting(self, raw_gens):
        formed.append(len(raw_gens))
        return real(self, raw_gens)

    monkeypatch.setattr(FiniteGroup, "_subgroup_raw", counting)
    assert len(list(islice(iter_normal_subgroups(g), 8))) == 8
    prefix = len(formed)
    assert prefix <= 8
    # the whole list forms each of its members once
    assert len(normal_subgroups(g)) == total == len(formed) - prefix


@pytest.mark.parametrize("name, group", LATTICE_GROUPS, ids=[n for n, _ in LATTICE_GROUPS])
def test_a_normal_subgroup_is_nilpotent_exactly_when_it_lies_in_the_fitting_subgroup(
    name, group
):
    fitting = fitting_subgroup(group)
    for n in normal_subgroups(group):
        assert is_nilpotent(n) == fitting.contains_group(n), n.order()


def test_normal_subgroups_refuse_a_group_past_the_class_cap():
    g = build("elem_abelian(2,6)").group
    assert len(g._raw_classes()) == 64 > structure.DEFAULT_CLASS_CAP
    with pytest.raises(ClassCapError):
        normal_subgroups(g)
    assert memoized(g, normal_subgroups) == set()


def chain_signature(G, sub):
    """The classes of G whose representative sifts through sub's chain."""
    chain = sub.chain()
    return frozenset(k for k, c in enumerate(G._raw_classes()) if chain.contains_raw(c.rep))


def assert_class_closures_match_chains(G):
    for k, c in enumerate(G._raw_classes()):
        want = chain_signature(G, G._normal_closure_raw([c.rep]))
        assert structure._class_closure(G, k) == want, k


@pytest.mark.parametrize("name, group", LATTICE_GROUPS, ids=[n for n, _ in LATTICE_GROUPS])
def test_class_closures_match_chain_signatures(name, group):
    assert_class_closures_match_chains(group)


def test_class_closure_stops_early():
    g = s4()
    classes = g._raw_classes()
    index = {(len(c.members), c.order): k for k, c in enumerate(classes)}
    double, transposition = index[3, 2], index[6, 2]
    everything = frozenset(range(len(classes)))
    two_power = frozenset(k for k, c in enumerate(classes) if 8 % c.order == 0)
    assert structure._class_closure(g, double, two_power, 8) == {0, double}
    # transpositions multiply to 3-cycles, which lie outside `allowed`
    assert structure._class_closure(g, transposition, two_power, 24) is None
    # their closure is S4, past a bound of 8 elements
    assert structure._class_closure(g, transposition, everything, 8) is None
    assert structure._class_closure(g, transposition, everything, 24) == everything
    # six transpositions are past a bound of 4 before any product
    alone = s4()
    assert structure._class_closure(alone, transposition, everything, 4) is None
    assert memoized(alone, structure._sorted_class_product) == set()
    # with no bound, the first product passes 12 elements, so the closure is
    # S4 although no product has met the 4-cycles yet
    fresh = s4()
    assert structure._class_closure(fresh, transposition) == everything
    assert memoized(fresh, structure._sorted_class_product) == {(transposition, transposition)}


@pytest.mark.parametrize("make", SMALL)
def test_fitting_subgroup_is_largest_nilpotent_normal(make):
    group = make()
    nilnormals = [
        s for s in oracle_normals(group) if oracle_nilpotent(s, group.degree)
    ]
    assert fitting_subgroup(group).order() == max(len(s) for s in nilnormals)


@pytest.mark.parametrize("make", SMALL + [a5])
def test_radical_is_largest_soluble_normal(make):
    group = make()
    sols = [s for s in oracle_normals(group) if oracle_soluble(s, group.degree)]
    assert soluble_radical(group).order() == max(len(s) for s in sols)


@pytest.mark.parametrize("make", SMALL + [a5])
def test_derived_series_against_oracle(make):
    group = make()
    terms = derived_series(group).terms
    members = frozenset(group._raw_elements())
    for term in terms:
        assert frozenset(term._raw_elements()) == members
        members = oracle_derived_closure(members, group.degree)
    assert members == frozenset(terms[-1]._raw_elements())


@pytest.mark.parametrize("make", SMALL)
def test_solubility_and_nilpotency_flags(make):
    group = make()
    members = group._raw_elements()
    assert is_soluble(group) == oracle_soluble(members, group.degree)
    assert is_nilpotent(group) == oracle_nilpotent(members, group.degree)


def test_sylow_orders_and_conjugate_counts():
    group = s4()
    syl2 = sylow_subgroup(group, 2)
    syl3 = sylow_subgroup(group, 3)
    assert syl2.order() == 8 and syl3.order() == 3
    # Sylow's counting theorem as an independent cross-check
    raws = group._raw_elements()
    for syl, p in ((syl2, 2), (syl3, 3)):
        base = frozenset(syl._raw_elements())
        count = len({frozenset(conj(x, g) for x in base) for g in raws})
        assert count % p == 1 and group.order() % count == 0


def test_sylow_subgroup_refuses_a_prime_power():
    with pytest.raises(ValueError, match="4 is not a prime"):
        sylow_subgroup(s4(), 4)


SYLOW_CORPUS = [(n, g) for n, g in CORPUS if g.order() <= 30_000]


@pytest.mark.parametrize("name, group", SYLOW_CORPUS, ids=[n for n, _ in SYLOW_CORPUS])
def test_sylow_subgroups_are_self_consistent(name, group):
    """For each prime p of |G|, the Sylow p-subgroup P has order |G|_p, its
    generators lie in G and have p-power order, and the conjugate of P by
    each generator of G has the same order."""
    for p, e in factorization(group.order()):
        syl = sylow_subgroup(group, p)
        assert syl.order() == p**e and group.contains_group(syl), p
        assert all(p**e % order_raw(x) == 0 for x in syl._raw_gens), p
        for g in group._raw_gens:
            moved = group._subgroup_raw([conj(x, g) for x in syl._raw_gens])
            assert moved.order() == p**e, p


def test_p_core_examples():
    assert p_core(s4(), 2).order() == 4
    assert p_core(s4(), 3).order() == 1
    assert p_core(a4(), 2).order() == 4
    assert p_core(d12(), 3).order() == 3


def _lifted_s6_subgroups(count, degree=300, offset=147):
    rng = random.Random(300)
    for _ in range(count):
        tables = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(6))
            rng.shuffle(images)
            tables.append(block_raw(images, offset, degree))
        yield FiniteGroup([Permutation._from_raw(t) for t in tables], degree=degree)


def test_orders_from_base_cycles_match_whole_cycle_walks():
    groups = [
        build("sl2_9").group,
        build("direct_product(sl2_9,cyclic(2))").group,  # degree 722, two base points
        *_lifted_s6_subgroups(12),  # degree 300, past the bytes kernel
        FiniteGroup([], degree=300),  # the empty base
    ]
    assert len(groups[1].chain().base) == 2 and groups[-1].chain().base == []
    for group in groups:
        elems = group._raw_elements()
        assert _element_orders(group) == [order_raw(x) for x in elems]
        assert [c.order for c in group._raw_classes()] == [
            order_raw(c.rep) for c in group._raw_classes()
        ]


def sylow_core(group, p):
    """O_p as the intersection of the conjugates of one Sylow p-subgroup; the
    conjugates are the orbit of its element set under the generators."""
    base = frozenset(sylow_subgroup(group, p)._raw_elements())
    conjugates = {base}
    frontier = [base]
    while frontier:
        members = frontier.pop()
        for g in group._raw_gens:
            c = frozenset(conj(x, g) for x in members)
            if c not in conjugates:
                conjugates.add(c)
                frontier.append(c)
    return frozenset.intersection(*conjugates)


def assert_cores_match_sylow_intersection(group):
    # a trivial group has no prime divisor, and its O_2 is trivial
    for p, _ in factor(group.order()) or [(2, 0)]:
        want = sylow_core(group, p)
        core = p_core(group, p)
        assert frozenset(core._raw_elements()) == want, p
        # the same generator list as reducing that element set
        assert core._raw_gens == group._subgroup_from_raw_elements(want)._raw_gens


def test_p_core_is_the_intersection_of_sylow_conjugates():
    for make in SMALL:
        assert_cores_match_sylow_intersection(make())


@pytest.mark.parametrize("name, group", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
def test_p_core_of_corpus_groups_is_the_intersection_of_sylow_conjugates(name, group):
    assert_cores_match_sylow_intersection(group)


def class_closure_testing_size_after_each_class(G, k, allowed, bound):
    """_class_closure with a bound, as it was before the size test ran ahead
    of each product: only each added class is tested."""
    classes = G._raw_classes()
    met = {k}
    size = len(classes[k].members)
    frontier = [k]
    for i in frontier:
        for c in structure._class_product(G, i, k):
            if c in met:
                continue
            if c not in allowed:
                return None
            met.add(c)
            size += len(classes[c].members)
            if size > bound:
                return None
            frontier.append(c)
    return frozenset(met)


def core_classes_testing_size_after_each_class(G, p):
    target = p_part(G.order(), p)
    classes = G._raw_classes()
    allowed = frozenset(k for k, c in enumerate(classes) if target % c.order == 0)
    core = set()
    for k in sorted(allowed):
        if k not in core:
            core.update(class_closure_testing_size_after_each_class(G, k, allowed, target) or ())
    return core


CAPPED_CORPUS = [(n, g) for n, g in CORPUS if g.order() <= g.cap]


@pytest.mark.parametrize("name, group", CAPPED_CORPUS, ids=[n for n, _ in CAPPED_CORPUS])
def test_p_cores_of_corpus_groups_match_the_size_test_after_each_class(name, group):
    classes = group._raw_classes()
    for p, _ in factor(group.order()) + [(101, 1)]:
        want = core_classes_testing_size_after_each_class(group, p)
        core = p_core(group, p)
        assert sorted(core._raw_elements()) == sorted(x for k in want for x in classes[k].members)


def test_p_core_forms_no_product_for_a_class_past_the_p_part():
    g = build("psl3_4").group
    classes = g._raw_classes()
    # one class of 315 involutions, past |G|_2 = 64; no sum of the sizes of
    # the classes of 2-power order is a power of 2, so no product at all
    assert [len(c.members) for c in classes if c.order == 2] == [315]
    assert p_core(g, 2).is_trivial()
    assert not memoized(g, structure._sorted_class_product)
    # SL(2,5): the central involution spans O_2 through class products, and
    # the class of 30 elements of order 4, past |G|_2 = 8, forms none
    g = build("sl2_5").group
    classes = g._raw_classes()
    fours = [k for k, c in enumerate(classes) if c.order == 4]
    assert [len(classes[k].members) for k in fours] == [30]
    assert p_core(g, 2).order() == 2
    products = memoized(g, structure._sorted_class_product)
    assert products and not any(fours[0] in pair for pair in products)


def test_a_nontrivial_p_core_memoizes_class_products():
    # the memo reads above see products wherever a closure forms them
    g = s4()
    assert p_core(g, 2).order() == 4
    assert memoized(g, structure._sorted_class_product)


def closure_only_p_core(G, p):
    """p_core as it was before counting: one class closure per class of
    p-power order, whatever the class sizes."""
    target = p_part(G.order(), p)
    classes = G._raw_classes()
    allowed = frozenset(k for k, c in enumerate(classes) if target % c.order == 0)
    core = set()
    for k in sorted(allowed):
        if k not in core:
            core.update(structure._class_closure(G, k, allowed, target) or ())
    if len(core) == 1:
        return G.trivial_subgroup()
    return G._subgroup_from_raw_elements([x for k in core for x in classes[k].members])


def closure_only_is_simple(G):
    """is_simple as it was before counting: every nontrivial class closure is G."""
    if G.order() == 1 or G.is_abelian():
        return False
    whole = len(G._raw_classes())
    return all(len(structure._class_closure(G, k)) == whole for k in range(1, whole))


def closure_only_is_quasisimple(G):
    """is_quasisimple as it was before counting: perfect, with every class
    outside Z(G) != G normally generating G."""
    if not is_perfect(G) or G.center().order() == G.order():
        return False
    inside = G.center().chain().contains_raw
    classes = G._raw_classes()
    outside = [k for k, c in enumerate(classes) if not inside(c.rep)]
    return all(len(structure._class_closure(G, k)) == len(classes) for k in outside)


def least_prime_not_dividing(n):
    return next(p for p in range(2, n + 3) if is_prime(p) and n % p)


def assert_counting_matches_the_closures(G):
    """is_simple, is_quasisimple and every p_core, for each prime of |G| and
    one prime not dividing it, against the closure-only references."""
    assert is_simple(G) == closure_only_is_simple(G)
    assert is_quasisimple(G) == closure_only_is_quasisimple(G)
    primes = [p for p, _ in factorization(G.order())] + [least_prime_not_dividing(G.order())]
    for p in primes:
        core, want = p_core(G, p), closure_only_p_core(G, p)
        assert core._raw_gens == want._raw_gens, p
        assert core.order() == want.order(), p


@pytest.mark.parametrize("name, group", CAPPED_CORPUS, ids=[n for n, _ in CAPPED_CORPUS])
def test_counting_matches_the_closures_on_corpus_groups(name, group):
    assert_counting_matches_the_closures(group)


def solubleperfect_quotients():
    """The simple quotients G/N that the solubleperfect lemma checks."""
    for gid, kind in (("sl2_5", "centre"), ("sl2_9", "centre"), ("asl2_4", "fitting")):
        g = build(gid).group
        n = g.center() if kind == "centre" else fitting_subgroup(g)
        yield gid, quotient_by_normal(g, n)


@pytest.mark.parametrize("gid, quotient", list(solubleperfect_quotients()))
def test_counting_matches_the_closures_on_solubleperfect_quotients(gid, quotient):
    assert is_simple(quotient)
    assert_counting_matches_the_closures(quotient)


@pytest.mark.parametrize("atlas_id", ["psl3_4", "sz8", "alt(8)", "psl34_phi_ext"])
def test_simplicity_from_class_sizes_forms_no_class_product(atlas_id):
    # these four simple groups (for psl34_phi_ext, its derived subgroup) have
    # no sum 1 + |C_1| + ... + |C_k| that properly divides the order
    g = build(atlas_id).group.derived_subgroup()
    g._raw_classes()
    assert is_simple(g)
    assert not memoized(g, structure._sorted_class_product)


@pytest.mark.parametrize("atlas_id", ["sl2_5", "sl2_9"])
def test_quasisimplicity_from_class_sizes_forms_no_class_product(atlas_id):
    # no sum |Z| + |C_1| + ... + |C_k| over classes outside the centre Z of
    # order 2 is a proper multiple of |Z| dividing the order
    g = build(atlas_id).group
    g._raw_classes()
    assert is_quasisimple(g)
    assert not memoized(g, structure._sorted_class_product)


def test_quasisimplicity_of_asl2_4_falls_back_to_class_closures():
    # ASL(2,4) is perfect with trivial centre, and its normal 2^4 has order
    # 16 = 1 + 15, so the class sizes hit a proper divisor
    g = build("asl2_4").group
    assert is_perfect(g) and g.center().order() == 1
    assert not is_quasisimple(g)
    assert memoized(g, structure._sorted_class_product)


def test_simplicity_of_m10_falls_back_to_class_closures():
    # M10 has A6 of order 360 = 1 + 45 + 80 + 90 + 144 as a normal subgroup,
    # so the class sizes hit a proper divisor and the closures decide
    g = build("m10").group
    assert not is_simple(g)
    assert memoized(g, structure._sorted_class_product)


@st.composite
def subgroups_of_s6(draw):
    images = draw(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    return FiniteGroup([Permutation.from_zero_based(x) for x in images], degree=6)


@settings(max_examples=30, deadline=None)
@given(subgroups_of_s6())
def test_p_core_of_drawn_s6_subgroups_is_the_intersection_of_sylow_conjugates(group):
    assert_cores_match_sylow_intersection(group)


@settings(max_examples=30, deadline=None)
@given(subgroups_of_s6())
def test_counting_matches_the_closures_on_drawn_s6_subgroups(group):
    assert_counting_matches_the_closures(group)


def assert_radical_and_fitting_are_class_unions(G):
    """R(G) is the union of the classes whose normal closure is soluble, and
    F(G) of those whose normal closure is nilpotent: a class lies in a normal
    subgroup exactly when its normal closure does."""
    soluble, nilpotent = set(), set()
    for c in G._raw_classes():
        closure = G._normal_closure_raw([c.rep])
        if is_soluble(closure):
            soluble.update(c.members)
        if is_nilpotent(closure):
            nilpotent.update(c.members)
    assert set(soluble_radical(G)._raw_elements()) == soluble
    assert set(fitting_subgroup(G)._raw_elements()) == nilpotent


@pytest.mark.parametrize("name, group", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
def test_radical_and_fitting_of_corpus_groups_are_class_unions(name, group):
    assert_radical_and_fitting_are_class_unions(group)


@settings(max_examples=30, deadline=None)
@given(subgroups_of_s6())
def test_radical_and_fitting_of_drawn_s6_subgroups_are_class_unions(group):
    assert_radical_and_fitting_are_class_unions(group)


@settings(max_examples=30, deadline=None)
@given(subgroups_of_s6())
def test_class_closures_of_drawn_s6_subgroups_match_chain_signatures(group):
    assert_class_closures_match_chains(group)


@pytest.mark.parametrize(
    "atlas_id",
    ["direct_product(q8,dihedral(4))", "extraspecial(2,+)", "extraspecial(2,-)", "cyclic(512)"],
)
def test_p_core_of_a_2_group_is_the_group(atlas_id):
    # the core may hold all of |G|_p elements, which for a p-group is |G|
    g = build(atlas_id).group
    assert p_core(g, 2).order() == g.order()


def test_p_cores_and_simplicity_of_sz8_build_no_chain(monkeypatch):
    g = build("sz8").group
    g._raw_classes()  # the group's own chain and classes come first
    built = []
    init = StabilizerChain.__init__

    def counting(self, degree):
        built.append(degree)
        init(self, degree)

    monkeypatch.setattr(StabilizerChain, "__init__", counting)
    for p, _ in factorization(g.order()):
        assert p_core(g, p).is_trivial()
    assert is_simple(g)
    # simplicity is read off class closures, which build no chain
    assert built == []


def test_p_core_of_a_prime_not_dividing_the_order_is_trivial():
    assert p_core(s4(), 5).order() == 1
    with pytest.raises(ValueError):
        p_core(s4(), 4)


def test_classify_computes_each_p_core_once(monkeypatch):
    # the soluble corpus groups of order at most 500: a p_core call that finds
    # no core cached for its prime computes one, and no (generators, degree,
    # prime) may be computed twice within one classify
    groups = [
        g for _, g in corpus_groups(default_corpus()) if g.order() <= 500 and is_soluble(g)
    ]
    assert len(groups) == 25
    real = structure.p_core
    seen = []

    def recording(G, p):
        if (p,) not in memoized(G, real):
            seen.append((tuple(G._raw_gens), G.degree, p))
        return real(G, p)

    monkeypatch.setattr(structure, "p_core", recording)
    monkeypatch.setattr(towers, "p_core", recording)
    for g in groups:
        seen.clear()
        classify(g)
        assert seen and len(seen) == len(set(seen)), g.name


@pytest.mark.parametrize(
    "gens, degree, kernels",
    [
        (["(1 2)", "(1 2 3 4)"], 4, [4, 12]),
        (["(1 2)", "(1 2 3 4)", "(5 6 7)", "(5 6 7 8 9)"], 9, [4, 12, 24]),
    ],
    ids=["s4", "s4xa5"],
)
def test_upper_fitting_series_forms_no_quotient_by_the_trivial_group(
    monkeypatch, gens, degree, kernels
):
    # the series starts at F(G), so G/1 is never formed, nor G/G
    kernel_orders = []

    def recording(group, kernel):
        kernel_orders.append(kernel.order())
        return quotient_by_normal(group, kernel)

    monkeypatch.setattr(structure, "quotient_by_normal", recording)
    series = upper_fitting_series(G(gens, degree))
    assert [t.order() for t in series.terms] == [1, 4, 12, 24]
    assert kernel_orders == kernels


def test_fitting_heights():
    assert fitting_height(s4()) == 3
    assert fitting_height(sl23()) == 2
    assert fitting_height(a4()) == 2
    assert fitting_height(d8()) == 1
    assert fitting_height(c12()) == 1
    with pytest.raises(InsolubleError):
        fitting_height(a5())


def _random_soluble_subgroups(degree, count, seed):
    """count soluble subgroups of S_degree, each on 1 to 3 random generators."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation.from_zero_based(images))
        group = FiniteGroup(gens, degree=degree)
        if is_soluble(group):
            found.append(group)
    return found


SOLUBLE_CORPUS = [(name, g) for name, g in CORPUS if is_soluble(g)]


@pytest.mark.parametrize("name, group", SOLUBLE_CORPUS, ids=[n for n, _ in SOLUBLE_CORPUS])
def test_the_lower_nilpotent_series_is_as_long_as_the_upper_fitting_series(name, group):
    assert fitting_height(group) == len(upper_fitting_series(group).terms) - 1


def test_the_lower_nilpotent_series_is_as_long_as_the_upper_fitting_series_on_random_groups():
    heights = []
    for degree, seed in ((5, 41), (6, 42)):
        for group in _random_soluble_subgroups(degree, 60, seed):
            heights.append(fitting_height(group))
            assert heights[-1] == len(upper_fitting_series(group).terms) - 1
    assert set(heights) == {1, 2, 3}


def test_the_fitting_height_lists_no_element():
    # every term of S4's lower nilpotent series is past a cap of 10
    s4_capped = build("sym(4)").group.with_cap(10)
    assert fitting_height(s4_capped) == 3 and s4_capped._elements is None
    assert nilpotent_residual(s4_capped).order() == 12
    # AGL(1,509) = <x -> x+1, x -> 2x>, G > C_509 > 1, past the default cap
    p = 509
    agl = FiniteGroup(
        [
            Permutation.from_zero_based([(i + 1) % p for i in range(p)]),
            Permutation.from_zero_based([2 * i % p for i in range(p)]),
        ],
        degree=p,
    )
    assert agl.order() == 258_572 > agl.cap
    assert fitting_height(agl) == 2 and agl._elements is None
    assert nilpotent_residual(agl).order() == p and is_nilpotent(nilpotent_residual(agl))


def test_upper_fitting_series_of_s4():
    series = upper_fitting_series(s4())
    assert [t.order() for t in series.terms] == [1, 4, 12, 24]
    # a soluble group keeps the quotients by its proper nontrivial terms
    assert {i: q.order() for i, q in series.quotients.items()} == {1: 6, 2: 2}


def test_upper_fitting_series_keeps_the_quotients_of_an_insoluble_group():
    # S4 x A5: the radical is the S4 factor, so the series climbs as in S4,
    # and its last quotient is G/R(G) = A5
    series = upper_fitting_series(G(["(1 2)", "(1 2 3 4)", "(5 6 7)", "(5 6 7 8 9)"], 9))
    assert [t.order() for t in series.terms] == [1, 4, 12, 24]
    assert {i: q.order() for i, q in series.quotients.items()} == {1: 360, 2: 120, 3: 60}


def test_upper_fitting_series_is_built_once_per_group():
    group = s4()
    series = upper_fitting_series(group)
    assert upper_fitting_series(group) is series
    assert soluble_radical(group) is series.terms[-1]


def test_lower_central_series():
    assert [t.order() for t in lower_central_series(d8()).terms] == [8, 2, 1]
    # S4 stops at A4, which is its own commutator with S4
    assert [t.order() for t in lower_central_series(s4()).terms] == [24, 12]


def test_perfect_and_simple_flags():
    assert is_perfect(a5()) and not is_perfect(s4())
    assert is_simple(a5()) and not is_simple(a4())
    # prime cyclic groups do not count as simple
    c3 = G(["(1 2 3)"], 3)
    assert not is_simple(c3)


def test_quasisimple():
    from cppo.atlas import build

    assert is_quasisimple(build("sl2_5").group)
    assert is_quasisimple(a5())
    assert not is_quasisimple(s4())
    assert not is_quasisimple(sl23())


def test_identify_simple_eppo_tags():
    assert identify_simple_eppo(a5()) == "PSL2_4"
    from cppo.atlas import build

    assert identify_simple_eppo(build("psl2(7)").group) == "PSL2_7"
    assert identify_simple_eppo(build("psl2(11)").group) == "NotInList"
    with pytest.raises(NotSimpleError):
        identify_simple_eppo(s4())


def test_identify_simple_eppo_gives_no_verdict_from_the_order_alone(monkeypatch):
    # a group claiming the order of Sz(32) still takes the simplicity test;
    # its classes are computed first, since the claimed order is past the cap
    g = s4()
    g._raw_classes()
    monkeypatch.setattr(g, "order", lambda: 32537600)
    with pytest.raises(NotSimpleError):
        identify_simple_eppo(g)


def lattice_is_simple(G):
    """is_simple as it was decided on the normal-subgroup lattice."""
    return G.order() > 1 and not G.is_abelian() and len(normal_subgroups(G)) == 2


def quotient_is_quasisimple(G):
    """is_quasisimple as it was decided on the central quotient."""
    if not is_perfect(G) or G.center().order() == G.order():
        return False
    return lattice_is_simple(quotient_by_normal(G, G.center()))


def assert_simplicity_matches_the_lattice(G):
    assert is_simple(G) == lattice_is_simple(G)
    assert is_quasisimple(G) == quotient_is_quasisimple(G)


@pytest.mark.parametrize("name, group", CORPUS, ids=[n for n, _ in CORPUS])
def test_simplicity_of_corpus_groups_matches_the_lattice(name, group):
    # the lattice reference refuses groups with more classes than the cap
    assert len(group._raw_classes()) <= structure.DEFAULT_CLASS_CAP
    assert_simplicity_matches_the_lattice(group)


def test_simplicity_matches_the_lattice_on_quasisimple_and_simple_groups():
    # the corpus holds both kinds, so neither oracle compares only False
    verdicts = {(is_simple(g), is_quasisimple(g)) for _, g in CORPUS}
    assert {(True, True), (False, True), (False, False)} <= verdicts


@settings(max_examples=30, deadline=None)
@given(subgroups_of_s6())
def test_simplicity_of_drawn_s6_subgroups_matches_the_lattice(group):
    assert_simplicity_matches_the_lattice(group)


# A5 x S3 over S3: the closure of a class of A5 x 1 is not G and meets S3
# trivially, yet fills the simple quotient
ORACLE_QUOTIENT_GROUPS = [(n, g) for n, g in CORPUS if g.order() <= 2000] + [
    ("direct_product(alt(5),sym(3))", build("direct_product(alt(5),sym(3))").group)
]


def quotient_oracle_normals(G):
    """1, Z(G), F(G) and G', and under the lattice cap every normal subgroup."""
    normals = [G.trivial_subgroup(), G.center(), fitting_subgroup(G), G.derived_subgroup()]
    if len(G._raw_classes()) <= structure.DEFAULT_CLASS_CAP:
        normals += normal_subgroups(G)
    return normals


@pytest.mark.parametrize(
    "name, group", ORACLE_QUOTIENT_GROUPS, ids=[n for n, _ in ORACLE_QUOTIENT_GROUPS]
)
def test_quotient_simplicity_matches_the_built_quotient(name, group):
    for n in quotient_oracle_normals(group):
        want = is_simple(quotient_by_normal(group, n))
        assert quotient_is_simple(group, n) == want, n.order()


def test_quotient_oracle_sees_both_verdicts_by_both_paths(monkeypatch):
    # each verdict, over N = 1 and over N > 1, is reached by the count alone
    # (no class closure taken) and by the closures
    closures = []
    real = structure._class_closure

    def counting(G, k, *args):
        closures.append(k)
        return real(G, k, *args)

    monkeypatch.setattr(structure, "_class_closure", counting)
    seen = set()
    for _, g in ORACLE_QUOTIENT_GROUPS:
        for n in quotient_oracle_normals(g):
            closures.clear()
            seen.add((n.order() > 1, quotient_is_simple(g, n), bool(closures)))
    assert {(True, True, False), (True, True, True), (True, False, True)} <= seen
    assert {(False, True, False), (False, False, True)} <= seen


def test_a_trivial_or_prime_order_quotient_is_not_simple():
    assert not quotient_is_simple(build("sym(5)").group, build("alt(5)").group)
    for atlas_id in ("sym(5)", "alt(5)", "sl2_9", "cyclic(7)"):
        g = build(atlas_id).group
        assert not quotient_is_simple(g, g)


def test_simplicity_of_the_solubleperfect_quotients_forms_no_class_product():
    # SL(2,5)/Z, SL(2,9)/Z and ASL(2,4)/2^4: no sum of |N| and class sizes
    # outside N is a proper multiple of |N| dividing |G|
    for gid, kind in (("sl2_5", "centre"), ("sl2_9", "centre"), ("asl2_4", "fitting")):
        g = build(gid).group
        n = g.center() if kind == "centre" else fitting_subgroup(g)
        formed = memoized(g, structure._sorted_class_product)  # by fitting_subgroup
        assert quotient_is_simple(g, n), gid
        assert memoized(g, structure._sorted_class_product) == formed, gid


def quotient_is_extraspecial(P):
    """Extraspecial as decided on P/Z(P): centre of order p, the quotient
    nontrivial, abelian and generated by elements of order p, and the
    Frattini subgroup equal to the centre."""
    fact = factorization(P.order())
    if len(fact) != 1 or P.order() == 1:
        return False
    p = fact[0][0]
    centre = P.center()
    if centre.order() != p:
        return False
    q = quotient_by_normal(P, centre)
    if q.order() == 1 or not q.is_abelian():
        return False
    if any(order_raw(x) != p for x in q._raw_gens):
        return False
    return frattini_of_p_group(P).same_group_as(centre)


def defined_extraspecial(P):
    """The definition: a p-group whose centre, derived subgroup and Frattini
    subgroup are one subgroup of order p."""
    fact = factorization(P.order())
    if len(fact) != 1:
        return False
    centre = P.center()
    return (
        centre.order() == fact[0][0]
        and P.derived_subgroup().same_group_as(centre)
        and frattini_of_p_group(P).same_group_as(centre)
    )


@pytest.mark.parametrize(
    "atlas_id, want",
    [
        ("extraspecial(2,+)", True),
        ("extraspecial(2,-)", True),
        ("extraspecial(3,+)", True),
        ("extraspecial(3,-)", True),
        ("extraspecial(5,+)", True),
        ("extraspecial(5,-)", True),
        ("q8", True),
        ("dihedral(4)", True),
        ("direct_product(q8,dihedral(4))", False),
        ("cyclic(8)", False),
        ("cyclic(2)", False),
        ("elem_abelian(2,3)", False),
    ],
)
def test_extraspecial_matches_the_central_quotient_check(atlas_id, want):
    g = build(atlas_id).group
    assert defined_extraspecial(g) == quotient_is_extraspecial(g) == want


def test_quasisimple_forms_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("a quotient was formed")

    monkeypatch.setattr(structure, "quotient_by_normal", refuse)
    for atlas_id in ("sl2_5", "sl2_9", "alt(5)"):
        assert is_quasisimple(build(atlas_id).group), atlas_id


def test_frattini_of_p_group():
    assert frattini_of_p_group(q8()).order() == 2
    assert frattini_of_p_group(d8()).order() == 2
    assert frattini_of_p_group(G(["(1 2)", "(3 4)"], 4)).order() == 1
    with pytest.raises(NotPGroupError):
        frattini_of_p_group(s4())


def test_p_prime_part_of_nilpotent():
    assert p_prime_part_of_nilpotent(c12(), 2).order() == 3
    assert p_prime_part_of_nilpotent(c12(), 3).order() == 4
    assert p_prime_part_of_nilpotent(q8(), 2).order() == 1
    with pytest.raises(NotNilpotentError):
        p_prime_part_of_nilpotent(s4(), 2)
    with pytest.raises(ValueError):
        p_prime_part_of_nilpotent(c12(), 4)


# ---------------------------------------------------------------------------
# the constructions as they were, by enumeration and by hand-written seed
# loops, kept as references for the generator-level ones


def reference_derived_subgroup(G):
    ident = identity_raw(G.degree)
    gens = G._raw_gens
    seeds = set()
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = comm_raw(a, b)
            if c != ident:
                seeds.add(c)
    derived = G._normal_closure_raw(sorted(seeds))
    return G if derived.order() == G.order() else derived


def reference_lower_central_series(G):
    ident = identity_raw(G.degree)
    terms = [G]
    while True:
        seeds = set()
        for a in terms[-1]._raw_gens:
            for b in G._raw_gens:
                c = comm_raw(a, b)
                if c != ident:
                    seeds.add(c)
        nxt = G._normal_closure_raw(sorted(seeds))
        if nxt.order() == terms[-1].order():
            return terms
        terms.append(nxt)
        if nxt.order() == 1:
            return terms


def reference_frattini(P):
    """<P', x^p for every x in P>."""
    p = factorization(P.order())[0][0]
    gens = set(reference_derived_subgroup(P)._raw_gens)
    ident = identity_raw(P.degree)
    for x in P._raw_elements():
        y = x
        for _ in range(p - 1):
            y = mul_raw(y, x)
        if y != ident:
            gens.add(y)
    return P._subgroup_raw(sorted(gens))


def reference_p_prime_part(N, p):
    """The closure of the p'-elements of N."""
    return N._subgroup_from_raw_elements([x for x in N._raw_elements() if order_raw(x) % p])


def _sylow_subgroups(group):
    return [sylow_subgroup(group, p) for p, _ in factorization(group.order())]


@pytest.mark.parametrize("name, group", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
def test_frattini_subgroups_of_sylow_subgroups_match_the_enumerating_reference(name, group):
    for P in _sylow_subgroups(group):
        assert frattini_of_p_group(P).same_group_as(reference_frattini(P)), P.order()


@pytest.mark.parametrize("name, group", SMALL_CORPUS, ids=[n for n, _ in SMALL_CORPUS])
def test_commutator_subgroups_keep_the_generators_of_the_seed_loops(name, group):
    for H in [group] + _sylow_subgroups(group):
        assert H.derived_subgroup()._raw_gens == reference_derived_subgroup(H)._raw_gens
        assert [t._raw_gens for t in lower_central_series(H).terms] == [
            t._raw_gens for t in reference_lower_central_series(H)
        ]


def test_p_prime_parts_the_opelinha_check_takes_match_the_enumerating_reference(monkeypatch):
    visited = []
    real = lemmas._p_prime_part

    def recording(N, p):
        visited.append(N)
        return real(N, p)

    # the verdict skips the nilpotency check; the checked function below
    # raises if an instance is not nilpotent
    monkeypatch.setattr(lemmas, "_p_prime_part", recording)
    assert len(lemmas.REGISTRY["opelinha"](0)) >= 80
    checked = 0
    for N in {id(N): N for N in visited}.values():
        for p, _ in factorization(N.order()):
            assert p_prime_part_of_nilpotent(N, p).same_group_as(reference_p_prime_part(N, p))
            checked += 1
    assert checked >= 80
