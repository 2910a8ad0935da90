import pytest

from cppo.arith import (
    divisors,
    factorization,
    is_prime,
    is_prime_power,
    p_part,
    prime_factors,
)


def naive_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def test_is_prime_matches_naive_scan():
    for n in range(0, 500):
        assert is_prime(n) == naive_is_prime(n), n


def test_factorization_reconstructs_and_is_sorted():
    for n in range(1, 2000):
        fact = factorization(n)
        prod = 1
        for p, e in fact:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fact] == sorted({p for p, _ in fact})


def test_factorization_refuses_a_non_positive_integer():
    with pytest.raises(ValueError):
        factorization(0)


def test_divisors_match_a_trial_division_scan():
    for n in range(1, 2000):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    assert divisors(20160)[-3:] == [6720, 10080, 20160]


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(20160) == [2, 3, 5, 7]


def test_is_prime_power_small_table():
    yes = {1}
    for p in range(2, 130):
        if naive_is_prime(p):
            q = p
            while q < 130:
                yes.add(q)
                q *= p
    for n in range(1, 130):
        assert is_prime_power(n) == (n in yes), n


def test_identity_order_counts_as_prime_power():
    # the convention the whole commutator check rests on
    assert is_prime_power(1)


def test_is_prime_power_rejects_mixed():
    assert not is_prime_power(6)
    assert not is_prime_power(12)
    assert not is_prime_power(2 * 3 * 5 * 7)
    assert not is_prime_power(0)


@pytest.mark.parametrize(
    "n,p,part",
    [(24, 2, 8), (24, 3, 3), (24, 5, 1), (360, 3, 9), (1, 7, 1)],
)
def test_p_part(n, p, part):
    assert p_part(n, p) == part
