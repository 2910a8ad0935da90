"""Small number-theory helpers: trial-division primes and prime powers."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic trial division, fine for the word-sized orders we meet."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return [p for p, _ in factorization(n)]


def factorization(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs, ascending by prime."""
    if n < 1:
        raise ValueError("factorization needs a positive integer, got %r" % (n,))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, built from its factorization."""
    out = [1]
    for p, e in factorization(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def is_prime_power(n: int) -> bool:
    """True when n = p^k for a prime p and k >= 0.

    By convention 1 counts as a prime power (k = 0), so the identity
    commutator never flags a group as having a bad commutator order.
    """
    if n < 1:
        return False
    if n == 1:
        return True
    return len(factorization(n)) == 1


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part
