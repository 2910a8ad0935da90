"""Permutation arithmetic against small hand-worked values.

Composition is left to right: (p * q)(i) = q(p(i)).  Conjugation is the
right action x^g = g^-1 x g and [x, y] = x^-1 y^-1 x y, so that
[x, y] = x^-1 * x^y.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cppo import CycleParseError, DegreeMismatchError, FiniteGroup, Permutation, parse_permutation
from cppo.atlas import build
from cppo.corpus import corpus_groups
from cppo.permutation import (
    BYTES_MAX_DEGREE,
    base_rows,
    block_raw,
    comm_raw,
    conj_raw,
    conjugation_sieve,
    conjugation_tables,
    cycles_raw,
    identity_raw,
    inv_raw,
    map_rows,
    mul_all,
    mul_raw,
    multiplication_tables,
    order_raw,
    pow_raw,
    raw_from_images,
)


def P(text, degree):
    return parse_permutation(text, degree)


def test_composition_is_left_to_right():
    # apply (1 2) first, then (1 3): 1 -> 2 -> 2, 2 -> 1 -> 3, 3 -> 3 -> 1
    p = P("(1 2)", 3)
    q = P("(1 3)", 3)
    assert p * q == P("(1 2 3)", 3)
    assert q * p == P("(1 3 2)", 3)


def test_images_are_one_based():
    p = P("(1 2 3)", 4)
    assert p(1) == 2 and p(3) == 1 and p(4) == 4


def test_inverse_and_power():
    p = P("(1 2 3 4 5)", 5)
    assert ~p == P("(1 5 4 3 2)", 5)
    assert p * ~p == Permutation.identity(5)
    assert p**5 == Permutation.identity(5)
    assert p**-2 == (~p) ** 2
    assert p**0 == Permutation.identity(5)


def test_conjugation_is_right_action():
    x = P("(1 2 3)", 3)
    g = P("(2 3)", 3)
    assert x.conjugate(g) == P("(1 3 2)", 3)
    # x^(gh) == (x^g)^h on a larger example
    x = P("(1 2)(3 4 5)", 6)
    g = P("(1 3 6)", 6)
    h = P("(2 5)", 6)
    assert x.conjugate(g * h) == x.conjugate(g).conjugate(h)


def test_commutator_matches_definition():
    x = P("(1 2 3)", 4)
    y = P("(3 4)", 4)
    assert Permutation._from_raw(comm_raw(x.raw, y.raw)) == ~x * ~y * x * y
    assert Permutation._from_raw(comm_raw(x.raw, y.raw)) == ~x * x.conjugate(y)
    assert comm_raw(x.raw, x.raw) == identity_raw(4)


def test_six_point_commutator_with_twisted_factor():
    """A frozen six-point value: x^-1 y^-1 x' y for a specific triple.

    With x = (1 2 3 4 5 6), x' = (1 4 2)(5 6) and y = (4 5 6) the product
    x^-1 y^-1 x' y works out to (1 4 3)(2 5 6), an element of order 3.
    """
    x = P("(1 2 3 4 5 6)", 6)
    x_twisted = P("(1 4 2)(5 6)", 6)
    y = P("(4 5 6)", 6)
    w = ~x * ~y * x_twisted * y
    assert w == P("(1 4 3)(2 5 6)", 6)
    assert w.order() == 3


def test_order_and_cycles():
    p = P("(1 2)(3 4 5)", 6)
    assert p.order() == 6
    assert p.cycles() == [(1, 2), (3, 4, 5)]
    assert Permutation.identity(3).order() == 1
    assert Permutation.identity(3).cycles() == []


def test_str_roundtrip():
    for text, n in [("(1 2 3)(5 6)", 6), ("(2 4)", 4), ("()", 5)]:
        p = P(text, n)
        assert parse_permutation(str(p), n) == p


def test_parse_identity_and_singletons():
    assert P("()", 4) == Permutation.identity(4)
    assert P("(3)", 4) == Permutation.identity(4)
    assert P("(1 2)(3)", 4) == P("(1 2)", 4)


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "1 2 3", "(1 2", "(1 2)(2 3)", "(0 1)", "(1 9)", "(1 1)", "(1 2) x"],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(CycleParseError):
        parse_permutation(bad, 4)


def test_degree_mismatch_raises():
    with pytest.raises(DegreeMismatchError):
        P("(1 2)", 3) * P("(1 2)", 4)
    with pytest.raises(DegreeMismatchError):
        P("(1 2)", 3).conjugate(P("(1 2)", 4))


def test_constructor_validates_images():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_sorting_is_by_image_table():
    ps = [P("(1 2)", 3), Permutation.identity(3), P("(1 3 2)", 3)]
    assert sorted(ps)[0] == Permutation.identity(3)


perm_images = st.permutations(range(1, 7)).map(lambda t: Permutation(tuple(t)))


@given(perm_images, perm_images, perm_images)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perm_images)
def test_inverse_cancels(a):
    assert a * ~a == Permutation.identity(6)
    assert ~a * a == Permutation.identity(6)


@given(perm_images)
def test_parse_str_roundtrip(a):
    assert parse_permutation(str(a), 6) == a


@given(perm_images)
def test_order_annihilates(a):
    assert a ** a.order() == Permutation.identity(6)
    # and no smaller positive power does
    for k in range(1, a.order()):
        assert a**k != Permutation.identity(6)


# ---------------------------------------------------------------------------
# the raw kernel against plain tuple arithmetic, on both sides of the
# degree where its format changes


def ref_mul(a, b):
    return tuple(b[i] for i in a)


def ref_inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def ref_cycles(a):
    out = []
    done = set()
    for i in range(len(a)):
        if i in done or a[i] == i:
            continue
        cyc = [i]
        while a[cyc[-1]] != i:
            cyc.append(a[cyc[-1]])
        done.update(cyc)
        out.append(tuple(cyc))
    return out


def ref_order(a):
    return math.lcm(1, *(len(c) for c in ref_cycles(a)))


KERNEL_DEGREES = (1, 2, 8, 65, 255, 256, 257, 300)


@pytest.mark.parametrize("degree", KERNEL_DEGREES)
@settings(max_examples=25)
@given(data=st.data())
def test_raw_kernel_matches_tuple_reference(degree, data):
    a, b = (tuple(data.draw(st.permutations(range(degree)))) for _ in range(2))
    ra, rb = raw_from_images(a), raw_from_images(b)
    assert isinstance(ra, bytes) == (degree <= BYTES_MAX_DEGREE)
    assert ra == Permutation([v + 1 for v in a]).raw
    assert tuple(ra) == a
    assert tuple(mul_raw(ra, rb)) == ref_mul(a, b)
    assert tuple(inv_raw(ra)) == ref_inv(a)
    assert tuple(conj_raw(ra, rb)) == ref_mul(ref_mul(ref_inv(b), a), b)
    assert tuple(comm_raw(ra, rb)) == ref_mul(ref_inv(a), ref_mul(ref_mul(ref_inv(b), a), b))
    assert order_raw(ra) == ref_order(a)
    assert cycles_raw(ra) == ref_cycles(a)
    power = tuple(range(degree))
    for n in range(6):
        assert tuple(pow_raw(ra, n)) == power
        power = ref_mul(power, a)
    # results stay in the kernel's format for the degree
    results = (mul_raw(ra, rb), inv_raw(ra), conj_raw(ra, rb), pow_raw(ra, 3), identity_raw(degree))
    for r in results:
        assert type(r) is type(ra) and len(r) == degree
    assert mul_raw(ra, inv_raw(ra)) == identity_raw(degree)


@pytest.mark.parametrize("degree", (257, 360, 720))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tuple_path_composition_laws(degree, seed):
    # hypothesis draws a seed: it refuses st.permutations inputs this large
    rng = random.Random(seed)
    a, b, c = (raw_from_images(rng.sample(range(degree), degree)) for _ in range(3))
    ab = mul_raw(a, b)
    assert type(ab) is tuple and ab == ref_mul(a, b)
    assert mul_raw(ab, c) == mul_raw(a, mul_raw(b, c)) == ref_mul(ab, c)
    ident = identity_raw(degree)
    assert mul_raw(a, ident) == a == mul_raw(ident, a)
    assert mul_raw(a, inv_raw(a)) == ident == mul_raw(inv_raw(a), a)


@pytest.mark.parametrize("degree", (1, 2, 8, 255, 256, 257, 300, 720))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 6))
def test_batch_kernel_matches_one_product_at_a_time(degree, seed, count):
    # a drawn seed again, for the degrees st.permutations refuses
    rng = random.Random(seed)
    g, *xs = (raw_from_images(rng.sample(range(degree), degree)) for _ in range(count + 1))
    products = mul_all(xs, g)
    assert products == [mul_raw(x, g) for x in xs]
    kind = bytes if degree <= BYTES_MAX_DEGREE else tuple
    assert all(type(r) is kind and len(r) == degree for r in products)
    assert mul_all([], g) == []


@pytest.mark.parametrize("degree", (1, 2, 8, 255, 256, 257, 300, 720))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 6), width=st.integers(0, 4))
def test_conjugation_sieve_keeps_the_conjugates_agreeing_on_the_base(degree, seed, count, width):
    rng = random.Random(seed)
    g, *xs = (raw_from_images(rng.sample(range(degree), degree)) for _ in range(count + 1))
    # members that g centralizes, its powers, are kept on any base
    xs += [g, mul_raw(g, g)]
    base = [rng.randrange(degree) for _ in range(width)]
    want = [x for x in xs if all(conj_raw(x, g)[b] == x[b] for b in base)]
    assert conjugation_sieve(xs, base, g) == want
    assert conjugation_sieve(xs, [], g) == xs


@pytest.mark.parametrize("degree", (1, 2, 8, 255, 256, 257, 300, 720))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), width=st.integers(1, 5))
def test_base_rows_map_like_whole_products(degree, seed, count, width):
    rng = random.Random(seed)
    g, *xs = (raw_from_images(rng.sample(range(degree), degree)) for _ in range(count + 1))
    base = [rng.randrange(degree) for _ in range(width)]
    rows = map_rows(base_rows(xs, base), g)
    assert rows == base_rows(mul_all(xs, g), base)
    assert [tuple(r) for r in rows] == [tuple(g[x[b]] for b in base) for x in xs]
    # one-point rows stay rows, so they can be mapped again
    assert map_rows(map_rows(base_rows(xs, base[:1]), g), g) == base_rows(
        [mul_raw(mul_raw(x, g), g) for x in xs], base[:1]
    )


def _lifted(group, degree=300, offset=147):
    """The same group acting on points offset.. of a larger degree."""
    return FiniteGroup(
        [Permutation._from_raw(block_raw(g, offset, degree)) for g in group._raw_gens],
        degree=degree,
    )


@pytest.mark.parametrize(
    "group",
    [
        build("s4").group,  # bytes, a three-point base
        build("q8").group,  # bytes, a one-point base
        _lifted(build("s4").group),  # tuples
        _lifted(build("q8").group),  # tuples, a one-point base
        build("sl2_9").group,  # tuples at degree 720, a one-point base
        FiniteGroup([], degree=5),  # bytes, the empty base of a trivial group
        FiniteGroup([], degree=300),  # tuples, the empty base
    ],
    ids=lambda g: "order %d degree %d" % (g.order(), g.degree),
)
def test_index_tables_match_one_product_at_a_time(group):
    xs = group._raw_elements()
    base = group.chain().base
    assert len(base) == {24: 3, 8: 1, 720: 1, 1: 0}[group.order()]
    gens = xs if len(xs) <= 24 else xs[:: len(xs) // 24]
    for table, g in zip(multiplication_tables(xs, base, gens), gens):
        assert [xs[j] for j in table] == [mul_raw(x, g) for x in xs]
    for table, g in zip(conjugation_tables(xs, base, gens), gens):
        assert [xs[j] for j in table] == [conj_raw(x, g) for x in xs]
    assert multiplication_tables(xs, base, []) == []


def test_corpus_generators_use_the_format_of_their_degree():
    formats = set()
    for name, group in corpus_groups():
        kind = type(identity_raw(group.degree))
        assert all(type(g.raw) is kind for g in group.generators), name
        assert all(type(r) is kind for r in group._raw_gens), name
        formats.add(kind)
    # the corpus has groups on both sides of the format change
    assert formats == {bytes, tuple}
