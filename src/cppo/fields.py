"""Small finite fields as integer-coded tables, plus matrices over them.

A field element is an int in range(q) encoding a polynomial over F_p with
little-endian base-p digits, so the additive basis is [1, p, p^2, ...].  The
reducing polynomials are fixed once and for all:

    F4:  x^2 + x + 1        F8:  x^3 + x + 1
    F9:  x^2 + 1            F16: x^4 + x + 1

With these choices the F4 element a = 2 satisfies a^2 = 3 = a + 1, hence
a * a^2 = 1 and a + a^2 = 1, the identities every matrix computation below
leans on.  Prime fields are plain integers mod p.

Every operation is a table lookup: addition, negation and multiplication are
q x q (or length-q) tables filled once per field, and the base-p digits are
used only while those tables are filled.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import factorization
from .errors import AtlasError

# reducing polynomial encoded the same way as the elements themselves
_POLYS = {4: 7, 8: 11, 9: 10, 16: 19}
_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _digits(n, p, k):
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _undigits(ds, p):
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


class GF:
    """Arithmetic table for the field with q elements.  Use gf(q) to obtain one."""

    def __init__(self, q):
        fact = factorization(q) if q > 1 else []
        if len(fact) != 1:
            raise AtlasError("%d is not a prime power, so there is no field" % q)
        p, k = fact[0]
        if k == 1 and p not in _PRIMES:
            raise AtlasError("prime field F_%d is outside the supported range" % p)
        if k > 1 and q not in _POLYS:
            raise AtlasError("no reducing polynomial on file for F_%d" % q)
        self.q = q
        self.p = p
        self.k = k
        self.elements = range(q)
        self.additive_basis = [p**i for i in range(k)]
        digits = [_digits(a, p, k) for a in range(q)]
        self._add = [
            [_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digits] for da in digits
        ]
        self._neg = [_undigits([(-x) % p for x in da], p) for da in digits]
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def _poly_mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return (a * b) % p
        da = _digits(a, p, k)
        db = _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the fixed polynomial, top degree down
        mod = _digits(_POLYS[self.q], p, k + 1)
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k + 1):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return _undigits(prod[:k], p)

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in F_%d" % self.q)
        return self._inv[a]

    def power(self, a, n):
        if n < 0:
            a = self.inv(a)
            n = -n
        out = 1
        for _ in range(n):
            out = self._mul[out][a]
        return out

    def frobenius(self, a):
        return self.power(a, self.p)

    def multiplicative_order(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        n = 1
        x = a
        while x != 1:
            x = self._mul[x][a]
            n += 1
        return n

    def generator(self):
        """Least element generating the multiplicative group."""
        for a in range(2, self.q):
            if self.multiplicative_order(a) == self.q - 1:
                return a
        return 1  # F_2

    def __repr__(self):
        return "GF(%d)" % self.q


@lru_cache(maxsize=None)
def gf(q) -> GF:
    return GF(q)


class Matrix:
    """Immutable square matrix over a GF table."""

    __slots__ = ("field", "rows")

    def __init__(self, field: GF, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        for r in self.rows:
            if len(r) != n:
                raise AtlasError("matrix rows must form a square")

    @staticmethod
    def identity(field: GF, n) -> "Matrix":
        return Matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self):
        return len(self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if other.field is not self.field:
            raise AtlasError("matrices over different fields")
        return Matrix(self.field, [other.apply_row(r) for r in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows)))

    def frobenius(self) -> "Matrix":
        F = self.field
        return Matrix(F, [[F.frobenius(x) for x in row] for row in self.rows])

    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse; raises on a singular matrix."""
        F = self.field
        n = self.n
        work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = None
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot = r
                    break
            if pivot is None:
                raise AtlasError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            scale = F.inv(work[col][col])
            work[col] = [F.mul(scale, x) for x in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    c = work[r][col]
                    work[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(work[r], work[col])]
        return Matrix(F, [row[n:] for row in work])

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.field, self.n)

    def order(self) -> int:
        n = 1
        x = self
        while not x.is_identity():
            x = x * self
            n += 1
            if n > 10**6:
                raise AtlasError("matrix order runaway; is it invertible?")
        return n

    def apply_row(self, vec):
        """Row vector times matrix, the right action used for projective points."""
        add, mul = self.field._add, self.field._mul
        out = []
        for col in zip(*self.rows):
            s = 0
            for x, y in zip(vec, col):
                s = add[s][mul[x][y]]
            out.append(s)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def __repr__(self):
        return "Matrix(%r, %r)" % (self.field, [list(r) for r in self.rows])
