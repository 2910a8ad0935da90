"""Permutations of {1..n} stored as image tables.

Points are 1-based in every public interface (cycle strings, image arrays).
Internally an image table is a 0-based tuple so entries double as indices,
which keeps composition a single map() pass.  Composition is left to right:
(p * q) moves a point first through p, then through q, matching the
conjugation convention x^y = y^-1 x y and [x, y] = x^-1 y^-1 x y.
"""

from __future__ import annotations

import math
import re

from .errors import CycleParseError, DegreeMismatchError

# ---------------------------------------------------------------------------
# raw helpers on 0-based image tuples; the hot paths use these directly

def identity_raw(degree: int) -> tuple:
    return tuple(range(degree))


def mul_raw(a: tuple, b: tuple) -> tuple:
    """Compose left to right: result[i] = b[a[i]]."""
    return tuple(map(b.__getitem__, a))


def inv_raw(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def conj_raw(x: tuple, g: tuple) -> tuple:
    """g^-1 * x * g without forming the inverse."""
    out = [0] * len(x)
    for i, gi in enumerate(g):
        out[gi] = g[x[i]]
    return tuple(out)


def comm_raw(x: tuple, y: tuple) -> tuple:
    """[x, y] = x^-1 y^-1 x y."""
    return mul_raw(inv_raw(x), conj_raw(x, y))


def order_raw(a: tuple) -> int:
    """Order as the lcm of cycle lengths."""
    n = len(a)
    seen = bytearray(n)
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = a[j]
            length += 1
        if length > 1:
            order = math.lcm(order, length)
    return order


def cycles_raw(a: tuple) -> list[tuple[int, ...]]:
    """Nontrivial cycles as 0-based tuples, least point first, sorted."""
    n = len(a)
    seen = bytearray(n)
    out = []
    for i in range(n):
        if seen[i] or a[i] == i:
            seen[i] = 1
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = 1
            cyc.append(j)
            j = a[j]
        out.append(tuple(cyc))
    return out


# ---------------------------------------------------------------------------

class Permutation:
    """Immutable permutation of {1..degree}."""

    __slots__ = ("_img",)

    def __init__(self, images):
        img = tuple(int(v) - 1 for v in images)
        n = len(img)
        if n == 0:
            raise CycleParseError("a permutation needs positive degree")
        if sorted(img) != list(range(n)):
            raise CycleParseError("image table %r is not a bijection of 1..%d" % (list(images), n))
        self._img = img

    @staticmethod
    def _from_raw(raw: tuple) -> "Permutation":
        p = object.__new__(Permutation)
        p._img = raw
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise CycleParseError("degree must be a positive integer")
        return cls._from_raw(identity_raw(degree))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple[int, ...]:
        """1-based image table: images[i-1] is where point i goes."""
        return tuple(v + 1 for v in self._img)

    @property
    def raw(self) -> tuple:
        return self._img

    def __call__(self, point: int) -> int:
        return self._img[point - 1] + 1

    def is_identity(self) -> bool:
        return self._img == identity_raw(len(self._img))

    def moved_points(self) -> list[int]:
        return [i + 1 for i, v in enumerate(self._img) if i != v]

    # -- group operations ---------------------------------------------------

    def _check_degree(self, other: "Permutation"):
        if len(self._img) != len(other._img):
            raise DegreeMismatchError(
                "degree mismatch: %d vs %d" % (len(self._img), len(other._img))
            )

    def __mul__(self, other: "Permutation") -> "Permutation":
        self._check_degree(other)
        return Permutation._from_raw(mul_raw(self._img, other._img))

    def __invert__(self) -> "Permutation":
        return Permutation._from_raw(inv_raw(self._img))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return (~self) ** (-n)
        result = identity_raw(len(self._img))
        base = self._img
        while n:
            if n & 1:
                result = mul_raw(result, base)
            base = mul_raw(base, base)
            n >>= 1
        return Permutation._from_raw(result)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """self^g = g^-1 * self * g."""
        self._check_degree(g)
        return Permutation._from_raw(conj_raw(self._img, g._img))

    def order(self) -> int:
        return order_raw(self._img)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based points."""
        return [tuple(v + 1 for v in c) for c in cycles_raw(self._img)]

    # -- formatting and comparisons ----------------------------------------

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return "Permutation[%d] %s" % (self.degree, self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __lt__(self, other: "Permutation") -> bool:
        self._check_degree(other)
        return self._img < other._img

    def __le__(self, other: "Permutation") -> bool:
        self._check_degree(other)
        return self._img <= other._img


# ---------------------------------------------------------------------------
# parsing

_CYCLE_RE = re.compile(r"\(\s*((?:\d+(?:\s+\d+)*)?)\s*\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse whitespace-separated disjoint cycles, e.g. "(1 2 3)(4 5)".

    "()" denotes the identity.  Points are base-10 integers in 1..degree and
    may not repeat, within a cycle or across cycles.
    """
    if degree < 1:
        raise CycleParseError("degree must be a positive integer")
    s = text.strip()
    if not s:
        raise CycleParseError("empty permutation string")
    pos = 0
    images = list(range(degree))
    used = set()
    saw_cycle = False
    while pos < len(s):
        m = _CYCLE_RE.match(s, pos)
        if m is None:
            raise CycleParseError("malformed cycle notation at %r" % s[pos:])
        saw_cycle = True
        body = m.group(1)
        if body:
            points = [int(tok) for tok in body.split()]
            for v in points:
                if not 1 <= v <= degree:
                    raise CycleParseError("point %d out of range 1..%d" % (v, degree))
                if v in used:
                    raise CycleParseError("repeated point %d" % v)
                used.add(v)
            for i, v in enumerate(points):
                images[v - 1] = points[(i + 1) % len(points)] - 1
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
    if not saw_cycle:
        raise CycleParseError("no cycles found in %r" % text)
    return Permutation._from_raw(tuple(images))


def commutator(x: Permutation, y: Permutation) -> Permutation:
    """[x, y] = x^-1 y^-1 x y."""
    x._check_degree(y)
    return Permutation._from_raw(comm_raw(x._img, y._img))


def element_order(g: Permutation) -> int:
    return g.order()
