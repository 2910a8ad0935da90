"""Stabilizer chain cross-checked against plain breadth-first enumeration."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cppo.bsgs
from cppo import atlas
from cppo.arith import factorization
from cppo.bsgs import StabilizerChain
from cppo.corpus import corpus_groups
from cppo.errors import NotInGroupError
from cppo.group import FiniteGroup, quotient_by_normal
from cppo.permutation import (
    Permutation,
    block_raw,
    conj_raw,
    identity_raw,
    inv_raw,
    mul_all,
    mul_raw,
    order_raw,
    parse_permutation,
    raw_from_images,
)
from cppo.structure import sylow_subgroup
from cppo.towers import _commutator_span


def enumerate_raw(degree, gens):
    ident = identity_raw(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul_raw(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


_TABLES = [
    ("trivial", 3, []),
    ("c2", 2, [(1, 0)]),
    ("s3", 3, [(1, 0, 2), (1, 2, 0)]),
    ("c6", 6, [(1, 2, 3, 4, 5, 0)]),
    ("s5", 5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    ("a5", 5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
    ("d8", 4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
    ("v4", 4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    ("s4xc2", 6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]),
    ("a6", 6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 3, 5, 4), (1, 0, 3, 2, 4, 5), (0, 2, 1, 4, 3, 5)]),
]
CASES = [(name, degree, [raw_from_images(g) for g in gens]) for name, degree, gens in _TABLES]
S5_GENS = [raw_from_images((1, 0, 2, 3, 4)), raw_from_images((1, 2, 3, 4, 0))]


def test_order_matches_enumeration():
    for name, degree, gens in CASES:
        chain = StabilizerChain.from_raw_generators(degree, gens)
        elems = enumerate_raw(degree, gens)
        assert chain.order() == len(elems), name


def test_membership_matches_enumeration():
    rng = random.Random(7)
    for name, degree, gens in CASES:
        chain = StabilizerChain.from_raw_generators(degree, gens)
        elems = enumerate_raw(degree, gens)
        for x in elems:
            assert chain.contains_raw(x), (name, x)
        # a handful of outside elements must be rejected
        for _ in range(30):
            images = list(range(degree))
            rng.shuffle(images)
            x = raw_from_images(images)
            assert chain.contains_raw(x) == (x in elems), (name, x)


def test_sift_gives_identity_exactly_for_members():
    degree, gens = 5, S5_GENS
    chain = StabilizerChain.from_raw_generators(degree, gens)
    ident = identity_raw(degree)
    for x in enumerate_raw(degree, gens):
        assert chain.sift(x) == ident


def test_incremental_extension():
    chain = StabilizerChain(4)
    assert chain.order() == 1
    assert chain.extend(raw_from_images((1, 0, 2, 3)))
    assert chain.order() == 2
    assert chain.extend(raw_from_images((0, 1, 3, 2)))
    assert chain.order() == 4
    # already a member: the product of the two transpositions, and the identity
    assert not chain.extend(raw_from_images((1, 0, 3, 2)))
    assert not chain.extend(raw_from_images((0, 1, 2, 3)))
    assert chain.order() == 4
    assert chain.extend(raw_from_images((1, 2, 3, 0)))
    assert chain.order() == 24
    assert not chain.extend(raw_from_images((3, 2, 1, 0)))
    assert chain.order() == 24


def test_chain_orders_multiply_along_orbits():
    degree, gens = 5, S5_GENS
    chain = StabilizerChain.from_raw_generators(degree, gens)
    prod = 1
    for level, b in enumerate(chain.base):
        # the orbit of base[level] under that level's strong generators
        orbit, frontier = {b}, [b]
        for p in frontier:
            for s, _ in chain._gens[level]:
                if s[p] not in orbit:
                    orbit.add(s[p])
                    frontier.append(s[p])
        assert orbit == set(chain._inverses[level])
        prod *= len(orbit)
    assert prod == chain.order() == 120


def test_transversal_elements_do_what_they_claim():
    degree, gens = 5, S5_GENS
    chain = StabilizerChain.from_raw_generators(degree, gens)
    for level, b in enumerate(chain.base):
        for point, inv in chain._inverses[level].items():
            u = inv_raw(inv)
            assert u[b] == point
            assert chain.contains_raw(u)
            # representatives at deeper levels fix the earlier base points
            for earlier in chain.base[:level]:
                assert u[earlier] == earlier


def test_random_subgroups_of_s6_agree_with_enumeration():
    rng = random.Random(2024)
    degree = 6
    for _ in range(25):
        k = rng.randint(1, 3)
        gens = []
        for _ in range(k):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(raw_from_images(images))
        chain = StabilizerChain.from_raw_generators(degree, gens)
        assert chain.order() == len(enumerate_raw(degree, gens))


def _brute_normal_closure(degree, ambient_gens, seeds):
    """The subgroup generated by every conjugate of the seeds, by enumeration."""
    ambient = enumerate_raw(degree, ambient_gens)
    conjugates = {conj_raw(s, g) for s in seeds for g in ambient}
    return enumerate_raw(degree, sorted(conjugates))


def test_closure_matches_brute_force_normal_closure_in_s6():
    rng = random.Random(11)
    degree = 6

    def random_perm():
        images = list(range(degree))
        rng.shuffle(images)
        return raw_from_images(images)

    for _ in range(20):
        ambient_gens = [random_perm() for _ in range(rng.randint(1, 2))]
        group = FiniteGroup([Permutation([v + 1 for v in g]) for g in ambient_gens])
        elems = sorted(enumerate_raw(degree, ambient_gens))
        seeds = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
        closure = group._closure_raw(seeds, group._raw_gens)
        assert closure.order() == len(_brute_normal_closure(degree, ambient_gens, seeds))


def test_closure_and_sylow_results_keep_their_chain(monkeypatch):
    s5 = FiniteGroup([Permutation([2, 1, 3, 4, 5]), Permutation([2, 3, 4, 5, 1])])
    s5._raw_elements()  # the ambient chain and elements, built before counting
    build = StabilizerChain.from_raw_generators
    builds = []

    def counting(degree, raw_gens):
        builds.append(degree)
        return build(degree, raw_gens)

    monkeypatch.setattr(StabilizerChain, "from_raw_generators", counting)
    subs = [
        s5._normal_closure_raw([raw_from_images((1, 2, 0, 3, 4))]),
        s5._subgroup_from_raw_elements(
            [raw_from_images((1, 0, 2, 3, 4)), raw_from_images((0, 1, 3, 4, 2))]
        ),
        sylow_subgroup(s5, 2),
        sylow_subgroup(s5, 5),
    ]
    orders = [sub.order() for sub in subs]
    assert builds == []
    assert orders == [60, 6, 8, 5]
    assert orders == [build(5, sub._raw_gens).order() for sub in subs]


def _random_images(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return images


def test_tuple_path_agrees_with_enumeration_on_lifted_s6_subgroups():
    # degree 300 is past the bytes kernel, so chains hold tuples
    rng = random.Random(300)
    degree, offset = 300, 147
    for _ in range(12):
        small = [_random_images(rng, 6) for _ in range(rng.randint(1, 3))]
        members = enumerate_raw(6, [raw_from_images(g) for g in small])
        chain = StabilizerChain.from_raw_generators(
            degree, [block_raw(g, offset, degree) for g in small]
        )
        assert type(chain._inverses[0][chain.base[0]]) is tuple
        assert chain.order() == len(members)
        for x in members:
            assert chain.contains_raw(block_raw(x, offset, degree))
        for _ in range(20):
            x = _random_images(rng, 6)
            assert chain.contains_raw(block_raw(x, offset, degree)) == (
                raw_from_images(x) in members
            )
        # a permutation moving points outside the block is never a member
        assert not chain.contains_raw(block_raw([1, 0], offset + 6, degree))


def _assert_chain_consistent(chain):
    # each level stores u_q^-1 for its orbit points q
    for level, b in enumerate(chain.base):
        for point, inv in chain._inverses[level].items():
            assert inv[point] == b
            for earlier in chain.base[:level]:
                assert inv[earlier] == earlier


def _random_short_cycle(rng, degree):
    points = rng.sample(range(degree), rng.choice((2, 3)))
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return raw_from_images(images)


def test_each_extend_step_leaves_a_consistent_chain():
    # short cycles make the group grow over several steps, and some of them
    # are already members, so extend answers False too
    rng = random.Random(5)
    for degree in (7, 9):
        chain = StabilizerChain(degree)
        gens = []
        for _ in range(12):
            gens.append(_random_short_cycle(rng, degree))
            chain.extend(gens[-1])
            _assert_chain_consistent(chain)
            assert chain.order() == StabilizerChain.from_raw_generators(degree, gens).order()


def test_regular_sl2_9_chain():
    gens = atlas.build("sl2_9").group._raw_gens
    chain = StabilizerChain.from_raw_generators(720, gens)
    assert chain.order() == 720
    rng = random.Random(9)
    for _ in range(25):
        x = identity_raw(720)
        for _ in range(rng.randint(1, 12)):
            x = mul_raw(x, rng.choice(gens))
        assert chain.contains_raw(x)
        assert chain.contains_raw(inv_raw(x))
    assert not chain.contains_raw(raw_from_images(_random_images(rng, 720)))


CORPUS = corpus_groups()


def test_chain_elements_match_enumeration_on_the_smaller_corpus_groups():
    checked = 0
    for name, group in CORPUS:
        if group.order() > 2000:
            continue
        elems = group.chain().elements()
        assert len(elems) == group.order(), name
        assert set(elems) == enumerate_raw(group.degree, group._raw_gens), name
        checked += 1
    assert checked == 40


def elements_from_identity(chain):
    """chain.elements() as it was formed before level 0 took its inverses as
    they stand: every level, the first included, multiplies the products so
    far by each of its inverses but the first."""
    products = [chain._identity]
    for inverses in chain._inverses:
        others = islice(inverses.values(), 1, None)
        products += [y for v in others for y in mul_all(products, v)]
    return products


@pytest.mark.parametrize("name, group", CORPUS, ids=[n for n, _ in CORPUS])
def test_chain_elements_keep_the_order_of_the_identity_products(name, group):
    chain = group.chain()
    assert chain.elements() == elements_from_identity(chain)


def test_a_one_level_chain_lists_its_elements_without_a_product(monkeypatch):
    chain = atlas.build("sl2_9").group.chain()
    assert (chain.degree, len(chain.base)) == (720, 1)
    want = elements_from_identity(chain)

    def refuse(*args):
        raise AssertionError("a one-level chain formed a product")

    monkeypatch.setattr(cppo.bsgs, "mul_all", refuse)
    assert chain.elements() == want


def test_chain_elements_match_enumeration_on_a_coset_action_quotient():
    group = atlas.build("sl2_3").group
    q = quotient_by_normal(group, group.center())
    assert (q.degree, q.order()) == (12, 12)  # SL(2,3)/Z acting on the 12 cosets
    elems = enumerate_raw(q.degree, q._raw_gens)
    assert set(q.chain().elements()) == elems
    assert q._raw_elements() == sorted(elems)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(6)), max_size=3))
def test_chain_elements_match_enumeration_on_subgroups_of_s6(tables):
    gens = [raw_from_images(t) for t in tables]
    chain = StabilizerChain.from_raw_generators(6, gens)
    elems = chain.elements()
    assert len(elems) == chain.order()
    assert set(elems) == enumerate_raw(6, gens)


# -- the order bound ----------------------------------------------------------


def unbounded_closure(degree, raw_seeds, raw_conjugators):
    """The closure loop of FiniteGroup._closure_raw on a chain with no order
    bound: the generators it keeps, and the chain."""
    chain = StabilizerChain(degree)
    gens = [s for s in raw_seeds if chain.extend(s)]
    for x in gens:
        for c in raw_conjugators:
            y = conj_raw(x, c)
            if chain.extend(y):
                gens.append(y)
    return gens, chain


def chain_state(chain):
    """Base, each level's orbit points with their stored inverses in filing
    order, and each level's strong generators; every queue must be empty."""
    assert not any(chain._queues)
    return (
        list(chain.base),
        [list(inverses.items()) for inverses in chain._inverses],
        [[s for s, _ in gens] for gens in chain._gens],
    )


@pytest.fixture
def closures(monkeypatch):
    """Records each _closure_raw call as (group, seeds, conjugators, result)."""
    calls = []
    bounded = FiniteGroup._closure_raw

    def recording(self, raw_seeds, raw_conjugators):
        seeds, conjugators = list(raw_seeds), list(raw_conjugators)
        sub = bounded(self, seeds, conjugators)
        calls.append((self, seeds, conjugators, sub))
        return sub

    monkeypatch.setattr(FiniteGroup, "_closure_raw", recording)
    return calls


def assert_closures_match_unbounded(calls):
    """Each bounded closure keeps the generators and chain of an unbounded one;
    returns how many of them reached the bound."""
    full = 0
    for group, seeds, conjugators, sub in calls:
        gens, chain = unbounded_closure(group.degree, seeds, conjugators)
        assert sub._raw_gens == gens
        assert chain_state(sub.chain()) == chain_state(chain)
        full += sub.order() == group.order()
    return full


def assert_sylows_match_unbounded_replay(group):
    """Each Sylow subgroup's chain equals one that extends by its generators,
    in order, with no bound."""
    for p, k in factorization(group.order()):
        sub = sylow_subgroup(group, p)
        assert sub.order() == p**k
        chain = StabilizerChain(group.degree)
        assert all(chain.extend(y) for y in sub._raw_gens)
        assert chain_state(sub.chain()) == chain_state(chain)


def close_derived_and_class_reps(group):
    group.derived_subgroup()
    for c in group._raw_classes():
        if c.order > 1:
            group._normal_closure_raw([c.rep])


def test_bounded_closures_in_sl2_9_match_unbounded(closures):
    group = atlas.build("sl2_9").group
    group.derived_subgroup()
    rng = random.Random(18)
    for x in rng.sample(group._raw_elements(), 3):
        _commutator_span(group, [x], group)
    assert len(closures) == 4
    assert assert_closures_match_unbounded(closures) >= 1
    assert_sylows_match_unbounded_replay(group)


MIDSIZE_CORPUS = [(n, g) for n, g in corpus_groups() if g.order() <= 30_000]


@pytest.mark.parametrize("name, group", MIDSIZE_CORPUS, ids=[n for n, _ in MIDSIZE_CORPUS])
def test_bounded_closures_and_sylows_of_corpus_groups_match_unbounded(closures, name, group):
    close_derived_and_class_reps(group)
    assert_closures_match_unbounded(closures)
    assert_sylows_match_unbounded_replay(group)


def test_bounded_closures_and_sylows_of_drawn_s6_subgroups_match_unbounded(closures):
    rng = random.Random(618)
    full = 0
    for _ in range(30):
        tables = [_random_images(rng, 6) for _ in range(rng.randint(1, 3))]
        group = FiniteGroup([Permutation.from_zero_based(t) for t in tables], degree=6)
        close_derived_and_class_reps(group)
        full += assert_closures_match_unbounded(closures)
        assert_sylows_match_unbounded_replay(group)
        closures.clear()
    # some closures stop at the bound and some stay below it
    assert full > 0


def test_derived_subgroup_of_sl2_9_stops_at_its_order(monkeypatch):
    group = atlas.build("sl2_9").group
    group.chain()
    calls = []

    def counting(a, b):
        calls.append(1)
        return mul_raw(a, b)

    monkeypatch.setattr(cppo.bsgs, "mul_raw", counting)
    assert group.derived_subgroup() is group
    # the unbounded closure made 2,171 products here
    assert len(calls) <= 1000


@pytest.mark.parametrize("atlas_id", ["q8", "sl2_3", "sl2_5", "sl2_9"])
def test_certified_regular_chain_equals_the_unbounded_one(atlas_id):
    group = atlas.build(atlas_id).group
    chain = group.chain()
    assert chain._bound == group.order()
    full = StabilizerChain.from_raw_generators(group.degree, group._raw_gens)
    assert full._bound is None
    assert chain_state(chain) == chain_state(full)


def test_order_from_base_cycles_reads_only_the_cycles_through_the_base():
    x = parse_permutation("(1 2)(5 6 7)", 720).raw
    assert order_raw(x) == 6
    # x is no member of a group with base [0], so the answer is too small
    assert order_raw(x, [0]) == 2


def test_closure_outside_the_group_still_raises_once_the_order_is_reached():
    group = FiniteGroup([parse_permutation("(1 2)(3 4)", 4)])
    g = group._raw_gens[0]
    with pytest.raises(NotInGroupError):
        group._closure_raw([g], [parse_permutation("(1 3)", 4).raw])
