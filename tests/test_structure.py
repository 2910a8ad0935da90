"""Structure computations against a from-scratch subgroup-lattice oracle.

For groups small enough to enumerate every subgroup, the oracle rebuilds
the whole lattice by breadth-first element addition and derives normality,
nilpotency, solubility, Fitting subgroup and radical from it with no help
from the code under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppo import FiniteGroup, parse_permutation, structure, towers
from cppo.atlas import load_group_spec
from cppo.bsgs import StabilizerChain
from cppo.corpus import corpus_groups, default_corpus
from cppo.errors import InsolubleError, NotNilpotentError, NotPGroupError, NotSimpleError
from cppo.group import quotient_by_normal
from cppo.harness import classify
from cppo.permutation import Permutation, identity_raw, raw_from_images
from cppo.structure import (
    derived_series,
    fitting_height,
    fitting_subgroup,
    frattini_of_p_group,
    gamma_infinity,
    identify_simple_eppo,
    is_extraspecial,
    is_nilpotent,
    is_p_group,
    is_perfect,
    is_quasisimple,
    is_simple,
    is_soluble,
    lower_central_series,
    minimal_normal_subgroups,
    normal_subgroups,
    p_core,
    p_prime_part_of_nilpotent,
    socle,
    soluble_radical,
    sylow_subgroup,
    upper_fitting_series,
)


def G(texts, degree):
    return FiniteGroup([parse_permutation(t, degree) for t in texts], degree=degree)


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


def lattice(group):
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
    return subs


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


SMALL_CORPUS = [(name, g) for name, g in corpus_groups(default_corpus()) if g.order() <= 1000]
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
    got = [(n.order(), n._raw_gens) for n in normal_subgroups(group)]
    want = [(n.order(), n._raw_gens) for n in chain_normal_subgroups(group)]
    assert got == want


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


def test_p_core_examples():
    assert p_core(s4(), 2).order() == 4
    assert p_core(s4(), 3).order() == 1
    assert p_core(a4(), 2).order() == 4
    assert p_core(d12(), 3).order() == 3


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


@st.composite
def subgroups_of_s6(draw):
    images = draw(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    return FiniteGroup([Permutation.from_zero_based(x) for x in images], degree=6)


@settings(max_examples=30, deadline=None)
@given(subgroups_of_s6())
def test_p_core_of_drawn_s6_subgroups_is_the_intersection_of_sylow_conjugates(group):
    assert_cores_match_sylow_intersection(group)


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
        if p not in G._cache.get("p_cores", {}):
            seen.append((tuple(G._raw_gens), G.degree, p))
        return real(G, p)

    monkeypatch.setattr(structure, "p_core", recording)
    monkeypatch.setattr(towers, "p_core", recording)
    for g in groups:
        seen.clear()
        classify(g)
        assert seen and len(seen) == len(set(seen)), g.name


def test_identity_quotient_shares_the_p_cores_of_its_source():
    group = s4()
    q = quotient_by_normal(group, group.trivial_subgroup())
    assert p_core(q, 2) is p_core(group, 2)
    assert p_core(group, 2) is p_core(group, 2)


def test_fitting_heights():
    assert fitting_height(s4()) == 3
    assert fitting_height(sl23()) == 2
    assert fitting_height(a4()) == 2
    assert fitting_height(d8()) == 1
    assert fitting_height(c12()) == 1
    with pytest.raises(InsolubleError):
        fitting_height(a5())


def test_upper_fitting_series_of_s4():
    series = upper_fitting_series(s4())
    assert [t.order() for t in series.terms] == [1, 4, 12, 24]
    # a soluble group keeps the quotients by its proper nontrivial terms
    assert {i: q.order() for i, q in series.quotients.items()} == {1: 6, 2: 2}


def test_upper_fitting_series_keeps_no_quotients_of_an_insoluble_group():
    # S4 x A5: the radical is the S4 factor, so the series climbs as in S4
    series = upper_fitting_series(G(["(1 2)", "(1 2 3 4)", "(5 6 7)", "(5 6 7 8 9)"], 9))
    assert [t.order() for t in series.terms] == [1, 4, 12, 24]
    assert series.quotients == {}


def test_upper_fitting_series_is_built_once_per_group():
    group = s4()
    series = upper_fitting_series(group)
    assert upper_fitting_series(group) is series
    assert soluble_radical(group) is series.terms[-1]


def test_lower_central_series_and_gamma_infinity():
    assert [t.order() for t in lower_central_series(d8()).terms] == [8, 2, 1]
    assert gamma_infinity(s4()).order() == 12
    assert gamma_infinity(d8()).order() == 1


def test_perfect_and_simple_flags():
    assert is_perfect(a5()) and not is_perfect(s4())
    assert is_simple(a5()) and not is_simple(a4())
    # prime cyclic groups count as simple only under the explicit flag
    c3 = G(["(1 2 3)"], 3)
    assert not is_simple(c3)
    assert is_simple(c3, allow_abelian_simple=True)


def test_quasisimple():
    from cppo.atlas import build

    assert is_quasisimple(build("sl2_5").group)
    assert is_quasisimple(a5())
    assert not is_quasisimple(s4())
    assert not is_quasisimple(sl23())


def test_identify_simple_eppo_tags():
    assert identify_simple_eppo(a5()).tag == "PSL2_4"
    from cppo.atlas import build

    assert identify_simple_eppo(build("psl2(7)").group).tag == "PSL2_7"
    assert identify_simple_eppo(build("psl2(11)").group).tag == "NotInList"
    with pytest.raises(NotSimpleError):
        identify_simple_eppo(s4())


def test_minimal_normals_and_socle():
    mins = minimal_normal_subgroups(s4())
    assert [m.order() for m in mins] == [4]
    assert socle(s4()).order() == 4
    assert socle(a5()).order() == 60
    assert sorted(m.order() for m in minimal_normal_subgroups(s3xs3())) == [3, 3]
    assert socle(s3xs3()).order() == 9


def test_frattini_and_extraspecial():
    assert frattini_of_p_group(q8()).order() == 2
    assert frattini_of_p_group(d8()).order() == 2
    assert is_extraspecial(q8()) and is_extraspecial(d8())
    assert not is_extraspecial(G(["(1 2)", "(3 4)"], 4))
    with pytest.raises(NotPGroupError):
        frattini_of_p_group(s4())


def test_p_prime_part_of_nilpotent():
    assert p_prime_part_of_nilpotent(c12(), 2).order() == 3
    assert p_prime_part_of_nilpotent(c12(), 3).order() == 4
    assert p_prime_part_of_nilpotent(q8(), 2).order() == 1
    with pytest.raises(NotNilpotentError):
        p_prime_part_of_nilpotent(s4(), 2)


def test_is_p_group():
    assert is_p_group(q8()) and is_p_group(d8())
    assert not is_p_group(s4())
