"""Permutations of {1..n} stored as image tables.

Points are 1-based in every public interface (cycle strings, image arrays).
Internally a permutation is a raw image table of 0-based points, so entries
double as indices.  This module is the only one that knows the raw format:
up to degree 256 it is a bytes object of length n, so composition is one
bytes.translate call and hashing is cached; above degree 256 it is a tuple
of ints, composed by one operator.itemgetter call.  The degree alone picks
the format, and every raw permutation is made by raw_from_images, because a
bytes table never equals a tuple one.  Both formats index, iterate and sort
alike.

A loop that multiplies a whole list by one permutation g calls the batch
form mul_all: it forms g's padded translate table once per list rather than
once per product.  A loop that only needs to know which member of a group's
element list each conjugate x^g is calls conjugation_tables: it reads the
conjugates' images of a base off one column of the list per base point, g
applied to the column in one translate, so no conjugate is formed.
multiplication_tables does the same for the products x * g, whose base
images are g applied to the base columns themselves, and conjugation_sieve
keeps the members whose conjugates agree with them on the base, comparing
one such column per base point.  element_index looks a group's elements
up, by their images of a base past degree 256.  Rows of base images
(base_rows) are mapped through g by map_rows, the form of mul_all for rows
shorter than a table.  orbits walks the orbits of index tables: a group's
conjugacy classes, and the classes of any family of index sets it
conjugates.  It labels each index with its orbit and hands back the
caller's values in index order, so an orbit of a sorted list comes out
sorted with no sort.

Composition is left to right: (p * q) moves a point first through p, then
through q, matching the conjugation convention x^y = y^-1 x y and
[x, y] = x^-1 y^-1 x y.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from array import array
from collections import deque
from itertools import compress

from .errors import CycleParseError, DegreeMismatchError

# ---------------------------------------------------------------------------
# the raw kernel; the hot paths of the other modules call these directly

BYTES_MAX_DEGREE = 256

# _HEAD[d] is the degree-d identity; _TAIL[d] pads a degree-d table to the
# 256 entries bytes.translate and bytes.maketrans need.
_HEAD = [bytes(range(d)) for d in range(BYTES_MAX_DEGREE + 1)]
_TAIL = [bytes(range(d, BYTES_MAX_DEGREE)) for d in range(BYTES_MAX_DEGREE + 1)]

# array typecodes by item size in bytes
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def raw_from_images(images):
    """The raw permutation with the given 0-based image table."""
    img = tuple(images)
    return bytes(img) if len(img) <= BYTES_MAX_DEGREE else img


def identity_raw(degree: int):
    """The degree-`degree` identity, one shared object per degree."""
    return _HEAD[degree] if degree <= BYTES_MAX_DEGREE else _wide_identity(degree)


@functools.cache
def _wide_identity(degree: int):
    return tuple(range(degree))


def block_raw(images, offset: int, degree: int):
    """Acts as the 0-based table `images` on the points from `offset` on, fixes the rest."""
    img = list(range(degree))
    img[offset : offset + len(images)] = [v + offset for v in images]
    return raw_from_images(img)


def mul_raw(a, b):
    """Compose left to right: result[i] = b[a[i]]."""
    n = len(b)
    if n <= BYTES_MAX_DEGREE:
        return a.translate(b + _TAIL[n])
    return operator.itemgetter(*a)(b)


def inv_raw(a):
    n = len(a)
    if n <= BYTES_MAX_DEGREE:
        return bytes.maketrans(a, _HEAD[n])[:n]
    out = [0] * n
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def conj_raw(x, g):
    """g^-1 * x * g without forming the inverse: the result maps g[i] to g[x[i]]."""
    n = len(g)
    if n <= BYTES_MAX_DEGREE:
        return bytes.maketrans(g, x.translate(g + _TAIL[n]))[:n]
    out = [0] * n
    for i, gi in enumerate(g):
        out[gi] = g[x[i]]
    return tuple(out)


def mul_all(xs, g):
    """[mul_raw(x, g) for x in xs], with g's padded table formed once."""
    n = len(g)
    if n <= BYTES_MAX_DEGREE:
        table = g + _TAIL[n]
        return [x.translate(table) for x in xs]
    return [operator.itemgetter(*x)(g) for x in xs]


def conjugation_sieve(xs, base, g):
    """The members x of xs whose conjugate x^g has x's images of base, in
    order.  No conjugate is formed: (x^g)[b] = g[x[g^-1[b]]], so column
    g^-1[b] of xs, mapped through g, is compared with column b, one base
    point at a time on the members still left.  When xs lie in a group
    with that base and g normalizes it, a member is left exactly when g
    centralizes it; otherwise x^g may agree with x on base without being x.
    """
    ginv = inv_raw(g)
    for b in base:
        moved = map(g.__getitem__, map(operator.itemgetter(ginv[b]), xs))
        xs = list(compress(xs, map(operator.eq, map(operator.itemgetter(b), xs), moved)))
    return xs


def base_rows(xs, base):
    """Each x's images of the base points, x[b] for b in base, as a row that
    map_rows can map through a permutation of the same degree."""
    if len(xs[0]) <= BYTES_MAX_DEGREE:
        return [bytes(x[b] for b in base) for x in xs]
    return [tuple(x[b] for b in base) for x in xs]


def map_rows(rows, g):
    """Each row with every point p replaced by g[p]: mul_all for rows shorter
    than a whole table, such as base_rows."""
    n = len(g)
    if n <= BYTES_MAX_DEGREE:
        table = g + _TAIL[n]
        return [x.translate(table) for x in rows]
    return [tuple(map(g.__getitem__, x)) for x in rows]


def element_index(xs, base, values=None):
    """The function giving each member xs[i] of a group's elements
    values[i], by default its position i, for base a base of the group's
    chain.

    Up to degree 256 it keys by the member itself, whose hash bytes caches.
    A wider member is a tuple, which hashes every entry on each lookup, so
    it keys by the member's images of base, which tell the group's elements
    apart; a permutation outside the group may be taken for a member.
    """
    values = range(len(xs)) if values is None else values
    if len(xs[0]) <= BYTES_MAX_DEGREE or not base:
        return dict(zip(xs, values)).__getitem__
    key = operator.itemgetter(*base)
    value = dict(zip(map(key, xs), values)).__getitem__
    return lambda x: value(key(x))


def _index_tables(xs, base, moves):
    """For each (g, points) in moves, the list t with t[j] the index of the
    member of xs whose images of base are g's images of xs[j]'s images of
    points: the columns of xs at points, mapped through g.

    The members of xs must differ somewhere on base, and each such image
    must be some member's.  Every column of xs that base or a move needs is
    cut in one step, as slices of the joined tables (one itemgetter map per
    column above degree 256), and the joined tables are dropped before any
    key is built; each column is mapped through g in one translate (one
    map).  Up to 8 bytes of base images pack into one int key, read off an
    interleaved buffer in one pass (wider keys are tuples), and one dict
    lookup per member turns a key into an index.  That dict is short when
    two members share their images of base, which raises ValueError.
    """
    n = len(xs[0])
    size = 1 if n <= BYTES_MAX_DEGREE else 2 if n <= 1 << 16 else 4
    needed = set(base).union(*(points for _, points in moves))
    if size == 1:
        flat = b"".join(xs)  # column p is flat[p::n]
        cut = {p: flat[p::n] for p in needed}
        del flat
    else:
        cut = {p: list(map(operator.itemgetter(p), xs)) for p in needed}

    def keys(g, points):
        if size == 1:
            table = g + _TAIL[n]
            columns = [cut[p].translate(table) for p in points]
        else:
            columns = [array(_CODES[size], map(g.__getitem__, cut[p])) for p in points]
        width = size * max(len(columns), 1)  # with no base (a trivial group) every key is 0
        if width > 8:
            return zip(*columns)
        width = next(w for w in (1, 2, 4, 8) if w >= width)
        buf = bytearray(width * len(xs))
        view = memoryview(buf).cast(_CODES[size])
        for j, col in enumerate(columns):
            view[j :: width // size] = col
        return memoryview(buf).cast(_CODES[width])

    index = dict(zip(keys(identity_raw(n), base), range(len(xs))))
    if len(index) < len(xs):
        raise ValueError("%d members but %d distinct images of base" % (len(xs), len(index)))
    return [list(map(index.__getitem__, keys(g, points))) for g, points in moves]


def conjugation_tables(xs, base, gens):
    """For each g in gens, the list t with xs[t[j]] == xs[j]^g.

    xs must be closed under conjugation by each g, and its members must
    differ somewhere on the points in base, as a group's elements do on a
    base of its stabilizer chain.  No conjugate is formed: (x^g)[b] =
    g[x[g^-1[b]]], so the base images of every x^g are g's images of one
    column of xs per base point.
    """
    moves = []
    for g in gens:
        ginv = inv_raw(g)
        moves.append((g, [ginv[b] for b in base]))
    return _index_tables(xs, base, moves)


def multiplication_tables(xs, base, gens):
    """For each g in gens, the list t with xs[t[j]] == xs[j] * g.

    The conditions of conjugation_tables hold with xs closed under right
    multiplication by each g.  No product is formed: (x * g)[b] = g[x[b]],
    so the base images of every x * g are g's images of the base columns
    of xs, which are cut once for all of gens.
    """
    return _index_tables(xs, base, [(g, base) for g in gens])


def orbits(tables, values):
    """The orbits of the indices of values under the index tables, each the
    list of values at its indices in index order, in order of least index;
    each table maps range(len(values)) onto itself, as the tables of
    conjugation_tables do on a list closed under conjugation.

    A walk labels each index with its orbit's list, and one pass in index
    order appends the values, so no orbit is sorted.
    """
    label = [None] * len(values)
    out = []
    for i in range(len(values)):
        if label[i] is not None:
            continue
        orbit = label[i] = []
        out.append(orbit)
        todo = [i]
        for j in todo:
            for move in tables:
                k = move[j]
                if label[k] is None:
                    label[k] = orbit
                    todo.append(k)
    deque(map(list.append, label, values), 0)
    return out


def comm_raw(x, y):
    """[x, y] = x^-1 y^-1 x y."""
    return mul_raw(inv_raw(x), conj_raw(x, y))


def pow_raw(a, n: int):
    """a^n for n >= 0, by repeated squaring."""
    result = identity_raw(len(a))
    while n:
        if n & 1:
            result = mul_raw(result, a)
        a = mul_raw(a, a)
        n >>= 1
    return result


def order_raw(a, base=None) -> int:
    """Order as the lcm of cycle lengths.

    With a base of a group that a belongs to, only the cycles through base
    points are walked above degree 256: a power of a that fixes every base
    point is the identity, so they alone give the order.  For a permutation
    outside every group with that base the answer can be too small.  Up to
    degree 256 the base is not needed and is ignored.
    """
    n = len(a)
    if n <= BYTES_MAX_DEGREE:
        # A power costs one translate, about what the cycle walk below pays
        # per point, and group elements mostly have order below their degree.
        ident, table = _HEAD[n], a + _TAIL[n]
        power = a
        for k in range(1, n + 1):
            if power == ident:
                return k
            power = power.translate(table)
    seen = bytearray(n)
    order = 1
    for i in range(n) if base is None else base:
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


def cycles_raw(a) -> list[tuple[int, ...]]:
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
        img = [int(v) - 1 for v in images]
        n = len(img)
        if n == 0:
            raise CycleParseError("a permutation needs positive degree")
        if sorted(img) != list(range(n)):
            raise CycleParseError("image table %r is not a bijection of 1..%d" % (list(images), n))
        self._img = raw_from_images(img)

    @staticmethod
    def _from_raw(raw) -> "Permutation":
        p = object.__new__(Permutation)
        p._img = raw
        return p

    @staticmethod
    def from_zero_based(images) -> "Permutation":
        """Wrap a 0-based image table that is known to be a bijection."""
        return Permutation._from_raw(raw_from_images(images))

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
    def raw(self):
        return self._img

    def __call__(self, point: int) -> int:
        return self._img[point - 1] + 1

    def is_identity(self) -> bool:
        return self._img == identity_raw(len(self._img))

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
        return Permutation._from_raw(pow_raw(self._img, n))

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
    while pos < len(s):
        m = _CYCLE_RE.match(s, pos)
        if m is None:
            raise CycleParseError("malformed cycle notation at %r" % s[pos:])
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
    return Permutation.from_zero_based(images)
