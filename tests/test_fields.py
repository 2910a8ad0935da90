"""Field tables: axioms by exhaustion, plus the frozen polynomial vectors.

The reducing polynomials are part of the package's external contract (test
vectors elsewhere depend on the exact bit patterns), so a few products are
pinned by hand here: F4 uses x^2+x+1, F8 uses x^3+x+1, F9 uses x^2+1.
"""

import random

import pytest
from hypothesis import given, strategies as st

from cppo.errors import AtlasError
from cppo.fields import Matrix, gf

QS = [2, 3, 4, 5, 7, 8, 9, 13, 16, 17]

# reducing polynomials as little-endian coefficient lists, from the module docstring
REF_POLYS = {4: [1, 1, 1], 8: [1, 1, 0, 1], 9: [1, 0, 1], 16: [1, 1, 0, 0, 1]}


def _ref_digits(a, p, k):
    return [(a // p**i) % p for i in range(k)]


def _ref_number(ds, p):
    return sum(d * p**i for i, d in enumerate(ds))


def _ref_add(F, a, b):
    p, k = F.p, F.k
    return _ref_number([(x + y) % p for x, y in zip(_ref_digits(a, p, k), _ref_digits(b, p, k))], p)


def _ref_neg(F, a):
    return _ref_number([(-x) % F.p for x in _ref_digits(a, F.p, F.k)], F.p)


def _ref_mul(F, a, b):
    p, k = F.p, F.k
    if k == 1:
        return a * b % p
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_ref_digits(a, p, k)):
        for j, y in enumerate(_ref_digits(b, p, k)):
            prod[i + j] = (prod[i + j] + x * y) % p
    poly = REF_POLYS[F.q]
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * poly[j]) % p
    return _ref_number(prod[:k], p)


def _ref_dot(F, xs, ys):
    s = 0
    for x, y in zip(xs, ys):
        s = _ref_add(F, s, _ref_mul(F, x, y))
    return s


@pytest.mark.parametrize("q", QS)
def test_field_axioms_by_exhaustion(q):
    F = gf(q)
    els = list(F.elements)
    for a in els:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    # associativity and distributivity on a grid (full triple loop for small q)
    probe = els if q <= 9 else els[:6] + els[-3:]
    for a in probe:
        for b in probe:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in probe:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("q", QS)
def test_add_neg_sub_match_the_digitwise_reference(q):
    F = gf(q)
    for a in F.elements:
        assert F.neg(a) == _ref_neg(F, a)
        for b in F.elements:
            assert F.add(a, b) == _ref_add(F, a, b)
            assert F.sub(a, b) == _ref_add(F, a, _ref_neg(F, b))
            assert F.mul(a, b) == _ref_mul(F, a, b)


@pytest.mark.parametrize("q", QS)
def test_matrix_products_match_the_triple_loop_reference(q):
    F = gf(q)
    rng = random.Random(q)
    for n in (2, 3, 4):
        for _ in range(8):
            a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            want = [
                [_ref_dot(F, a[i], [b[t][j] for t in range(n)]) for j in range(n)]
                for i in range(n)
            ]
            assert (Matrix(F, a) * Matrix(F, b)).rows == tuple(map(tuple, want))
            v = a[0]
            assert Matrix(F, b).apply_row(v) == tuple(
                _ref_dot(F, v, [b[t][j] for t in range(n)]) for j in range(n)
            )


def test_matrix_guards():
    with pytest.raises(AtlasError):
        Matrix(gf(3), [[1, 0], [0, 1]]) * Matrix(gf(5), [[1, 0], [0, 1]])
    with pytest.raises(AtlasError):
        Matrix(gf(3), [[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("q", QS)
def test_multiplicative_group_is_cyclic_of_order_q_minus_1(q):
    F = gf(q)
    g = F.generator()
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = F.mul(x, g)
        seen.add(x)
    assert len(seen) == q - 1 and 0 not in seen


def test_f4_vectors():
    F = gf(4)
    a = 2  # the polynomial x
    asq = F.mul(a, a)
    assert asq == 3  # x^2 = x + 1 under x^2 + x + 1
    assert F.mul(a, asq) == 1
    assert F.add(a, asq) == 1


def test_f8_vectors():
    F = gf(8)
    a = 2
    assert F.mul(F.mul(a, a), a) == 3  # x^3 = x + 1


def test_f9_vectors():
    F = gf(9)
    x = 3  # the polynomial x over F3
    assert F.mul(x, x) == 2  # x^2 = -1


def test_frobenius_is_a_field_automorphism():
    for q in (4, 8, 9, 16):
        F = gf(q)
        for a in F.elements:
            for b in F.elements:
                assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
                assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


@given(st.sampled_from(QS), st.data())
def test_power_agrees_with_repeated_multiplication(q, data):
    F = gf(q)
    a = data.draw(st.integers(min_value=1, max_value=q - 1))
    n = data.draw(st.integers(min_value=-6, max_value=12))
    out = 1
    x = a if n >= 0 else F.inv(a)
    for _ in range(abs(n)):
        out = F.mul(out, x)
    assert F.power(a, n) == out


def test_non_prime_power_rejected():
    with pytest.raises(AtlasError):
        gf(6)


def test_prime_power_without_polynomial_on_file_rejected():
    with pytest.raises(AtlasError):
        gf(25)


def test_prime_field_outside_the_supported_range_rejected():
    with pytest.raises(AtlasError, match="outside the supported range"):
        gf(19)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        gf(5).multiplicative_order(0)


def test_reprs_name_the_field_and_rows():
    F = gf(5)
    m = Matrix(F, [[1, 2], [0, 4]])
    assert repr(F) == "GF(5)"
    assert repr(m) == "Matrix(GF(5), [[1, 2], [0, 4]])"
    assert hash(m) == hash(Matrix(F, [[1, 2], [0, 4]]))
