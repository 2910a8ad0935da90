"""Constructive catalog of concrete permutation groups.

Every named group the rest of the package works with is built here from
scratch: projective lines and planes over small fields, affine actions,
regular representations of matrix groups, the 65-point Suzuki ovoid, and a
handful of direct and central products.  Each build states its expected
order up front and fails loudly if the computed order disagrees, so a broken
construction can never masquerade as data.

A regular representation acts on the elements E of a matrix group, found by
a closure in which each generator maps row vectors through one table.  Its
product tables are certified regular at the permutation level: they are
transitive, and for each image a of one point under a generator, some map
commuting with every table sends the point to a.  That proves the order is
|E| without trusting the matrix arithmetic, so the stabilizer chain is
bounded by |E| and keeps only its transversal.  Without the certificate the
chain is built in full; the expected order is checked either way.

Families.  SL(2, q) for q in {3, 5, 9}, the groups between PSL(2,9) and
PGammaL(2,9), and PSL(3,4) extended by collineations of PG(2, 4) are each one
builder and one table of members, id -> row.  The catalog entry of a member
calls the builder with its id and its row, so a new member is a new row.

Conventions.  Every point action is built one way: _induced(points, maps)
numbers the points by their position in one sorted list and returns the
permutation each map induces on them.  Affine points are the vectors of
F_q^n, moved by v -> vM + t; projective points are the vectors whose
leftmost nonzero coordinate is 1, moved by v -> vM normalized; the Frobenius
map raises each coordinate to the p-th power.  Matrices act on the right,
which makes M -> permutation a homomorphism under our left-to-right
composition.  The projective line is PG(1, q): its point (0, 1) is infinity
and comes first, then (1, x) for x in field order.  PG(2, 4) is one list of
pairs, (0, v) for its 21 points and then (1, v) for its 21 lines; line
coordinates transform by the inverse transpose, and the duality swaps the
point <v> with the line of the same coordinate vector.  The Suzuki ovoid is
the sorted orbit of (1, 0, 0, 0) in PG(3, 8).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .arith import is_prime
from .bsgs import StabilizerChain
from .errors import AtlasError, SchemaError
from .fields import GF, Matrix, gf
from .group import FiniteGroup, quotient_by_normal
from .permutation import Permutation, block_raw, mul_raw, parse_permutation


@dataclass
class BuiltGroup:
    id_text: str
    group: FiniteGroup
    expected_order: int
    notes: str = ""
    extras: dict = field(default_factory=dict)


def _finish(id_text, gens, degree, expected, notes="", bound=None):
    """Wrap the generators as a group and check its order against expected.
    A proven bound on the order bounds the group's stabilizer chain; the
    expected order is what the check verifies, so it is never used as one."""
    group = FiniteGroup(gens, degree=degree, name=id_text)
    if bound is not None:
        group._chain = StabilizerChain.from_raw_generators(degree, group._raw_gens, bound)
    got = group.order()
    if got != expected:
        raise AtlasError(
            "construction %s came out with order %d, expected %d" % (id_text, got, expected)
        )
    return BuiltGroup(id_text, group, expected, notes)


# ---------------------------------------------------------------------------
# point actions: one point list, numbered by position, and maps on its points


def _induced(points, maps):
    """The permutation each map induces on points, a point numbered by its
    position in the list."""
    index = {v: i for i, v in enumerate(points)}
    return [Permutation.from_zero_based(index[f(v)] for v in points) for f in maps]


def _affine_points(F: GF, n):
    """The vectors of F_q^n, sorted."""
    return list(itertools.product(F.elements, repeat=n))


def _projective_points(F: GF, n):
    """The points of PG(n-1, q): the vectors of F_q^n whose leftmost nonzero
    coordinate is 1, sorted."""
    return [v for v in _affine_points(F, n) if next((c for c in v if c), 0) == 1]


def _normalize_projective(F: GF, vec):
    """The multiple of a nonzero vector whose leftmost nonzero coordinate is 1."""
    lead = next(c for c in vec if c)
    if lead == 1:
        return tuple(vec)
    s = F.inv(lead)
    return tuple(F.mul(s, x) for x in vec)


def _affine_map(M: Matrix, t=None):
    """v -> vM + t on F_q^n; t defaults to the zero vector."""
    if t is None:
        return M.apply_row
    add = M.field._add
    return lambda v: tuple(add[x][y] for x, y in zip(M.apply_row(v), t))


def _projective_map(M: Matrix):
    """v -> vM on projective points, normalized."""
    F = M.field
    return lambda v: _normalize_projective(F, M.apply_row(v))


def _frobenius_map(F: GF):
    """v -> v^p coordinate-wise, on affine or projective points."""
    return lambda v: tuple(map(F.frobenius, v))


# ---------------------------------------------------------------------------
# easy families


def _build_cyclic(n):
    if n < 1:
        raise AtlasError("cyclic(n) needs n >= 1")
    if n == 1:
        return _finish("cyclic(1)", [], 1, 1)
    images = list(range(1, n)) + [0]
    return _finish("cyclic(%d)" % n, [Permutation.from_zero_based(images)], n, n)


def _build_elem_abelian(p, k):
    if not is_prime(p) or k < 1 or p**k > 4096:
        raise AtlasError("elem_abelian(p, k) needs a prime p with p^k manageable")
    degree = p * k
    gens = []
    for i in range(k):
        images = list(range(degree))
        for j in range(p):
            images[i * p + j] = i * p + (j + 1) % p
        gens.append(Permutation.from_zero_based(images))
    return _finish("elem_abelian(%d,%d)" % (p, k), gens, degree, p**k)


def _build_dihedral(n):
    if n < 3:
        raise AtlasError("dihedral(n) needs n >= 3")
    rot = Permutation.from_zero_based(list(range(1, n)) + [0])
    ref = Permutation.from_zero_based((n - i) % n for i in range(n))
    return _finish("dihedral(%d)" % n, [rot, ref], n, 2 * n)


def _sym_gens(n):
    if n == 1:
        return []
    swap = [1, 0] + list(range(2, n))
    cyc = list(range(1, n)) + [0]
    return [Permutation.from_zero_based(swap), Permutation.from_zero_based(cyc)]


def _build_sym(n):
    if n < 1 or n > 12:
        raise AtlasError("sym(n) supported for 1 <= n <= 12")
    return _finish("sym(%d)" % n, _sym_gens(n), max(n, 1), math.factorial(n))


def _build_alt(n):
    if n < 3 or n > 12:
        raise AtlasError("alt(n) supported for 3 <= n <= 12")
    three = Permutation.from_zero_based([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        big = Permutation.from_zero_based(list(range(1, n)) + [0])
    else:
        big = Permutation.from_zero_based([0] + list(range(2, n)) + [1])
    return _finish("alt(%d)" % n, [three, big], n, math.factorial(n) // 2)


# ---------------------------------------------------------------------------
# regular representations of matrix groups


def _matrix_group_elements(gens):
    """The rows of every element of <gens>, sorted, and for each element the
    rows of its right products x * g, one per generator, recorded during the
    breadth-first search.  Each generator acts on the q^n row vectors through
    one table, so x * g is one lookup per row of x."""
    F, n = gens[0].field, gens[0].n
    vectors = _affine_points(F, n)
    row_maps = [{v: g.apply_row(v) for v in vectors} for g in gens]
    ident = Matrix.identity(F, n).rows
    right = {}
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            prods = []
            for row_map in row_maps:
                y = tuple(map(row_map.__getitem__, x))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                prods.append(y)
            right[x] = prods
        frontier = nxt
    return sorted(seen), right


def _is_regular(tables, root):
    """Whether the bijections with these 0-based image tables generate a
    regular group, decided on the tables alone.

    The tables must move root to every point; the breadth-first search that
    shows it records a Schreier tree.  For each image a of root under a
    table t, the map lambda_a that sends root to a and commutes with the
    tree's edges must commute with every table, and so with the group.  Then
    whatever fixes root fixes lambda_a(root) = a too, so the stabilizer of
    root is the stabilizer of a, its conjugate by t: every table normalizes
    it.  A normal point stabilizer of a transitive group fixes every point,
    so it is trivial, the group is regular, and its order is the number of
    points.
    """
    n = len(tables[0])
    parent = {root: None}  # point -> (previous point, table) along the tree
    order = [root]
    for p in order:
        for t in tables:
            if t[p] not in parent:
                parent[t[p]] = (p, t)
                order.append(t[p])
    if len(order) != n:
        return False
    for a in {t[root] for t in tables}:
        lam = [0] * n
        lam[root] = a
        for p in order[1:]:
            q, t = parent[p]
            lam[p] = t[lam[q]]
        if any([lam[x] for x in t] != [t[x] for x in lam] for t in tables):
            return False
    return True


def _regular_rep(id_text, mat_gens, expected, notes=""):
    """The right regular representation of <mat_gens> on its sorted elements.

    Each generator's product table must be a bijection.  When the tables
    certify a regular group (_is_regular), its order is the number of
    elements, so the chain is built with that bound and keeps only its
    transversal; otherwise it is built in full.  Either way _finish checks
    the order against expected.
    """
    elems, right = _matrix_group_elements(mat_gens)
    if len(elems) != expected:
        raise AtlasError(
            "matrix model for %s has %d elements, expected %d" % (id_text, len(elems), expected)
        )
    index = {rows: i for i, rows in enumerate(elems)}
    tables = [[index[right[x][j]] for x in elems] for j in range(len(mat_gens))]
    if any(len(set(t)) != len(elems) for t in tables):
        raise AtlasError(
            "matrix model for %s has a product table that is not a bijection" % id_text
        )
    root = index[Matrix.identity(mat_gens[0].field, mat_gens[0].n).rows]
    bound = len(elems) if _is_regular(tables, root) else None
    perms = [Permutation.from_zero_based(t) for t in tables]
    return _finish(id_text, perms, expected, expected, notes, bound)


def _q8_matrix_gens():
    F3 = gf(3)
    i = Matrix(F3, [[0, 1], [2, 0]])
    j = Matrix(F3, [[1, 1], [1, 2]])
    return [i, j]


def _build_q8():
    return _regular_rep("q8", _q8_matrix_gens(), 8, "regular representation")


# SL(2, q) in its regular representation: id -> (q,)
_SL2 = {"sl2_%d" % q: (q,) for q in (3, 5, 9)}


def _build_sl2(id_text, q):
    """SL(2, q) on its q(q^2 - 1) elements, generated by [[1, b], [0, 1]] for
    b in the additive basis of F_q and [[0, 1], [-1, 0]]."""
    F = gf(q)
    gens = [Matrix(F, [[1, b], [0, 1]]) for b in F.additive_basis]
    gens.append(Matrix(F, [[0, 1], [F.neg(1), 0]]))
    return _regular_rep(id_text, gens, q * (q * q - 1), "regular representation")


# ---------------------------------------------------------------------------
# extraspecial groups


def _build_extraspecial(p, sign):
    if p not in (2, 3, 5) or sign not in ("+", "-"):
        raise AtlasError("extraspecial(p, sign) needs p in {2,3,5} and sign + or -")
    if p == 2:
        return _extraspecial_32(sign)
    if sign == "+":
        # Heisenberg model: affine maps (x, y) -> (x + a, y + c + b*x) on p^2 points
        F = gf(p)
        maps = [
            _affine_map(Matrix.identity(F, 2), (1, 0)),
            _affine_map(Matrix(F, [[1, 1], [0, 1]])),
        ]
        gens = _induced(_affine_points(F, 2), maps)
        return _finish(
            "extraspecial(%d,+)" % p, gens, p * p, p**3, "Heisenberg model, exponent %d" % p
        )
    # exponent p^2 model: x -> (1+p)^j * x + i on Z_{p^2}
    m = p * p
    shift = Permutation.from_zero_based((x + 1) % m for x in range(m))
    twist = Permutation.from_zero_based(((1 + p) * x) % m for x in range(m))
    return _finish(
        "extraspecial(%d,-)" % p, [shift, twist], m, p**3, "exponent %d model" % (p * p)
    )


def _extraspecial_32(sign):
    d8 = _build_dihedral(4)
    if sign == "+":
        other = _build_dihedral(4)
        label = "extraspecial(2,+)"
        notes = "central product of two dihedral groups of order 8"
    else:
        other = _build_q8()
        label = "extraspecial(2,-)"
        notes = "central product of dihedral order 8 with q8"
    left = d8.group
    right = other.group
    big = _direct_product_group(left, right)
    z_left = (left.generators[0] ** 2).raw
    z_right = (right.generators[0] ** 2).raw
    fused = mul_raw(
        block_raw(z_left, 0, big.degree), block_raw(z_right, left.degree, big.degree)
    )
    center_diag = FiniteGroup([Permutation._from_raw(fused)], degree=big.degree)
    q = quotient_by_normal(big, center_diag)
    return _finish(label, q.generators, q.degree, 32, notes)


# ---------------------------------------------------------------------------
# affine constructions


def _build_agl1(q):
    F = gf(q)
    maps = [_affine_map(Matrix.identity(F, 1), (b,)) for b in F.additive_basis]
    if q > 2:
        maps.append(_affine_map(Matrix(F, [[F.generator()]])))
    gens = _induced(_affine_points(F, 1), maps)
    return _finish("agl1(%d)" % q, gens, q, q * (q - 1), "affine maps x -> ax + b")


def _build_asl2_4():
    F = gf(4)
    a = 2
    maps = [
        _affine_map(Matrix(F, [[1, 1], [0, 1]])),
        _affine_map(Matrix(F, [[1, a], [0, 1]])),
        _affine_map(Matrix(F, [[0, 1], [1, 0]])),
        _affine_map(Matrix.identity(F, 2), (1, 0)),
    ]
    gens = _induced(_affine_points(F, 2), maps)
    return _finish("asl2_4", gens, 16, 960, "F4^2 translations extended by SL(2,4)")


# ---------------------------------------------------------------------------
# projective lines: PSL(2, q) and the groups between PSL(2,9) and PGammaL(2,9)


def _psl2_maps(F: GF):
    """x -> x + b for b in the additive basis and x -> -1/x, as maps of
    PG(1, q), whose point (1, x) is x and (0, 1) is infinity."""
    maps = [_projective_map(Matrix(F, [[1, b], [0, 1]])) for b in F.additive_basis]
    maps.append(_projective_map(Matrix(F, [[0, F.neg(1)], [1, 0]])))
    return maps


def _psl2_order(q):
    return q * (q - 1) * (q + 1) // math.gcd(2, q - 1)


def _build_psl2(q):
    F = gf(q)
    gens = _induced(_projective_points(F, 2), _psl2_maps(F))
    notes = "projective line, %d points" % (q + 1)
    return _finish("psl2(%d)" % q, gens, q + 1, _psl2_order(q), notes)


# the groups between PSL(2,9) and PGammaL(2,9): id -> (outer generators,
# each a pair (i, j) standing for scale^i * frob^j; order; notes)
_PSL2_9_EXTENSIONS = {
    "pgl2_9": (((1, 0),), 720, ""),
    "psigmal2_9": (((0, 1),), 720, ""),
    "m10": (((1, 1),), 720, "socle extension by scaling-then-frobenius"),
    "pgammal2_9": (((1, 0), (0, 1)), 1440, ""),
    "s6_in_pgammal29": (
        ((0, 1),),
        720,
        "the subgroup of pgammal2_9 generated by the socle and the frobenius map",
    ),
}


def _build_psl2_9_extension(id_text, outer, order, notes):
    """PSL(2,9)'s generators on PG(1, 9), then scale^i * frob^j for each
    (i, j) in outer, where scale is x -> gx by the least primitive element g
    and frob is the Frobenius map.  The extras keep phi, the scaling, and the
    socle generators."""
    F = gf(9)
    scaling = _projective_map(Matrix(F, [[1, 0], [0, F.generator()]]))
    *socle, scale, frob = _induced(
        _projective_points(F, 2), _psl2_maps(F) + [scaling, _frobenius_map(F)]
    )
    built = _finish(id_text, socle + [scale**i * frob**j for i, j in outer], 10, order, notes)
    built.extras.update(phi=scale, socle_generators=socle)
    return built


# ---------------------------------------------------------------------------
# the projective plane over F4 and the groups around PSL(3, 4)


_PG24_FIELD = gf(4)
# the 21 points (0, v) of PG(2, 4), then its 21 lines (1, v)
_PG24 = [(kind, v) for kind in (0, 1) for v in _projective_points(_PG24_FIELD, 3)]


def projective_permutation(M: Matrix, domain="points") -> Permutation:
    """Permutation a nonsingular 3x3 matrix over F4 induces on PG(2, 4).

    domain "points": the 21 projective points.  domain "points_and_lines":
    those points followed by the 21 lines, lines transforming through the
    inverse transpose.
    """
    F = M.field
    if F.q != 4 or M.n != 3:
        raise AtlasError("projective_permutation expects a 3x3 matrix over F4")
    on_kind = (_projective_map(M), _projective_map(M.inverse().transpose()))
    if domain not in ("points", "points_and_lines"):
        raise AtlasError("domain must be 'points' or 'points_and_lines'")
    flags = _PG24[:21] if domain == "points" else _PG24
    return _induced(flags, [lambda f: (f[0], on_kind[f[0]](f[1]))])[0]


def frobenius_collineation() -> Permutation:
    """Coordinate-wise squaring on PG(2, 4), on its points and then its lines."""
    frob = _frobenius_map(_PG24_FIELD)
    return _induced(_PG24, [lambda f: (f[0], frob(f[1]))])[0]


def duality_collineation() -> Permutation:
    """The polarity swapping each point with the line of the same coordinates."""
    return _induced(_PG24, [lambda f: (1 - f[0], f[1])])[0]


def _psl34_matrix_gens():
    F = _PG24_FIELD
    a = 2
    return [
        Matrix(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix(F, [[1, a, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix(F, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    ]


def _delta_matrix():
    return Matrix(_PG24_FIELD, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def _build_psl3_4():
    gens = [projective_permutation(M, "points") for M in _psl34_matrix_gens()]
    return _finish("psl3_4", gens, 21, 20160, "21 points of the projective plane over F4")


def _delta_collineation():
    return projective_permutation(_delta_matrix(), "points_and_lines")


# PSL(3,4) extended by collineations, on points and lines: id -> (the
# collineations added to the socle; order; notes)
_PSL34_EXTENSIONS = {
    "psl34_phi_ext": ((frobenius_collineation,), 40320, "socle extended by the field squaring"),
    "psl34_g1": (
        (_delta_collineation, frobenius_collineation),
        120960,
        "socle with the order-3 diagonal collineation and the field squaring",
    ),
    "psl34_g2": (
        (_delta_collineation, duality_collineation),
        120960,
        "socle with the order-3 diagonal collineation and the polarity",
    ),
}


def _build_psl34_extension(id_text, outer, order, notes):
    gens = [projective_permutation(M, "points_and_lines") for M in _psl34_matrix_gens()]
    return _finish(id_text, gens + [f() for f in outer], 42, order, notes)


# ---------------------------------------------------------------------------
# the Suzuki group on its 65-point ovoid


def _sz8_theta(F, x):
    return F.power(x, 4)


def _sz8_unipotent(F, a, b):
    th = lambda x: _sz8_theta(F, x)
    m = F.mul
    top = F.add(F.add(m(a, m(a, th(a))), m(a, b)), th(b))  # a^(theta+2) + ab + b^theta
    return Matrix(
        F,
        [
            [1, a, b, top],
            [0, 1, th(a), F.add(b, m(a, th(a)))],
            [0, 0, 1, a],
            [0, 0, 0, 1],
        ],
    )


def _sz8_torus(F, k):
    th1 = F.mul(k, _sz8_theta(F, k))  # k^(theta+1)
    return Matrix(F, [[1, 0, 0, 0], [0, k, 0, 0], [0, 0, th1, 0], [0, 0, 0, F.mul(k, th1)]])


def _sz8_flip(F):
    return Matrix(F, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def _build_sz8():
    F = gf(8)
    mats = [
        _sz8_unipotent(F, 1, 0),
        _sz8_unipotent(F, 2, 0),
        _sz8_unipotent(F, 4, 0),
        _sz8_torus(F, F.generator()),
        _sz8_flip(F),
    ]
    maps = [_projective_map(M) for M in mats]
    orbit = [(1, 0, 0, 0)]
    seen = set(orbit)
    for v in orbit:
        for f in maps:
            w = f(v)
            if w not in seen:
                seen.add(w)
                orbit.append(w)
    gens = _induced(sorted(orbit), maps)
    return _finish("sz8", gens, 65, 29120, "action on the 65-point ovoid over F8")


# ---------------------------------------------------------------------------
# products and the catalog


def _direct_product_group(left: FiniteGroup, right: FiniteGroup) -> FiniteGroup:
    degree = left.degree + right.degree
    gens = []
    for g in left.generators:
        gens.append(Permutation._from_raw(block_raw(g.raw, 0, degree)))
    for g in right.generators:
        gens.append(Permutation._from_raw(block_raw(g.raw, left.degree, degree)))
    return FiniteGroup(gens, degree=degree)


def _build_direct_product(left_id, right_id):
    lb = build(left_id)
    rb = build(right_id)
    id_text = "direct_product(%s,%s)" % (lb.id_text, rb.id_text)
    prod = _direct_product_group(lb.group, rb.group)
    return _finish(
        id_text, prod.generators, prod.degree, lb.expected_order * rb.expected_order
    )


def _is_int(a) -> bool:
    """An int that is not a bool: JSON true would otherwise pass as 1."""
    return isinstance(a, int) and not isinstance(a, bool)


# parameter kinds: what an argument must be, and the test it must pass
_INT = ("an integer", _is_int)
_SIGN = ('a sign "+" or "-"', lambda a: a in ("+", "-"))
_ID = ("an atlas id", lambda a: isinstance(a, str))


def _members(builder, family):
    """Catalog entries for a family's members, each built from its own row."""
    return {name: (functools.partial(builder, name, *row), ()) for name, row in family.items()}


# name -> (builder, the kinds of its parameters)
_CATALOG = {
    "cyclic": (_build_cyclic, (_INT,)),
    "elem_abelian": (_build_elem_abelian, (_INT, _INT)),
    "dihedral": (_build_dihedral, (_INT,)),
    "q8": (_build_q8, ()),
    "sym": (_build_sym, (_INT,)),
    "alt": (_build_alt, (_INT,)),
    "s4": (lambda: _build_sym(4), ()),
    "extraspecial": (_build_extraspecial, (_INT, _SIGN)),
    **_members(_build_sl2, _SL2),
    "agl1": (_build_agl1, (_INT,)),
    "asl2_4": (_build_asl2_4, ()),
    "psl2": (_build_psl2, (_INT,)),
    "psl3_4": (_build_psl3_4, ()),
    **_members(_build_psl2_9_extension, _PSL2_9_EXTENSIONS),
    **_members(_build_psl34_extension, _PSL34_EXTENSIONS),
    "sz8": (_build_sz8, ()),
    "direct_product": (_build_direct_product, (_ID, _ID)),
}


def catalog_names():
    return sorted(_CATALOG)


def parse_atlas_id(text):
    """Parse "name" or "name(arg, ...)" into (name, [args]).

    Arguments are ints, the signs "+" and "-", or nested atlas ids (used by
    direct_product).  Nested ids stay as text.
    """
    text = text.strip()
    if not text:
        raise AtlasError("empty atlas id")
    if "(" not in text:
        if not text.isidentifier():
            raise AtlasError("malformed atlas id %r" % text)
        return text, []
    if not text.endswith(")"):
        raise AtlasError("malformed atlas id %r" % text)
    name, _, rest = text.partition("(")
    name = name.strip()
    if not name.isidentifier():
        raise AtlasError("malformed atlas id %r" % text)
    inner = rest[:-1]
    args = []
    depth = 0
    current = ""
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise AtlasError("unbalanced parentheses in %r" % text)
        if ch == "," and depth == 0:
            args.append(current.strip())
            current = ""
        else:
            current += ch
    if depth != 0:
        raise AtlasError("unbalanced parentheses in %r" % text)
    if current.strip() or args:
        args.append(current.strip())
    out = []
    for arg in args:
        if not arg:
            raise AtlasError("empty argument in %r" % text)
        if arg in ("+", "-"):
            out.append(arg)
        elif arg.lstrip("-").isdigit():
            out.append(int(arg))
        else:
            out.append(arg)  # nested id, handled by the builder
    return name, out


def build(atlas_id) -> BuiltGroup:
    """Build a cataloged group by id, either "name(args)" text or (name, args)."""
    if isinstance(atlas_id, str):
        name, args = parse_atlas_id(atlas_id)
    else:
        name, args = atlas_id
    if name not in _CATALOG:
        raise AtlasError("unknown atlas id %r" % name)
    builder, kinds = _CATALOG[name]
    if len(args) != len(kinds):
        raise AtlasError("%s expects %d parameter(s), got %d" % (name, len(kinds), len(args)))
    for i, (arg, (what, ok)) in enumerate(zip(args, kinds), 1):
        if not ok(arg):
            raise AtlasError("%s parameter %d must be %s, got %r" % (name, i, what, arg))
    return builder(*args)


# ---------------------------------------------------------------------------
# group-spec documents


def load_group_spec(document) -> FiniteGroup:
    """Build a group from a spec document.

    Either {"name", "degree", "generators": [cycle strings]} or
    {"atlas": id-name, "params": [...], "name"?: display name}, never both.
    """
    if not isinstance(document, dict):
        raise SchemaError("group spec must be a mapping")
    if not isinstance(document.get("name", ""), str):
        raise SchemaError("name must be a string")
    if {"generators", "degree"} & document.keys() and {"atlas", "params"} & document.keys():
        raise SchemaError("group spec mixes 'generators'/'degree' with 'atlas'/'params'")
    if "generators" in document:
        for key in ("name", "degree"):
            if key not in document:
                raise SchemaError("explicit group spec needs %r" % key)
        degree = document["degree"]
        if not _is_int(degree) or degree < 1:
            raise SchemaError("degree must be a positive integer")
        texts = document["generators"]
        if not isinstance(texts, list) or not all(isinstance(text, str) for text in texts):
            raise SchemaError("generators must be a list of strings")
        gens = []
        for text in texts:
            try:
                gens.append(parse_permutation(text, degree))
            except Exception as exc:
                raise SchemaError("bad generator %r: %s" % (text, exc)) from exc
        return FiniteGroup(gens, degree=degree, name=document["name"])
    if "atlas" in document:
        if not isinstance(document["atlas"], str):
            raise SchemaError("atlas must be a catalog name")
        params = document.get("params", [])
        if not isinstance(params, list):
            raise SchemaError("params must be a list")
        built = build((document["atlas"], params))
        group = built.group
        if "name" in document:
            group.name = document["name"]
        return group
    raise SchemaError("group spec needs either 'generators' or 'atlas'")


# ---------------------------------------------------------------------------
# the two hand-checked computations


def reproduce_psl34_commutators() -> dict:
    """Re-run the matrix computations behind the two order-6 commutators.

    Returns {c1_order, c1_delta_commutes, g1_witness_order, c2_order,
    g2_witness_order}.  c1 = A1^-1 A1^frob and c2 = A2^-1 (A2^T)^-1 are
    fixed matrices; the witness orders come from the degree-42 permutations.
    """
    F = _PG24_FIELD
    a = 2
    a2 = 3
    A1 = Matrix(F, [[1, 0, 0], [0, 1, a], [0, 0, 1]])
    A2 = Matrix(F, [[1, 0, 0], [0, a, 1], [0, 0, a2]])
    D = _delta_matrix()

    c1 = A1.inverse() * A1.frobenius()
    c2 = A2.inverse() * A2.transpose().inverse()

    phi = frobenius_collineation()
    beta = duality_collineation()
    x1 = projective_permutation(A1 * D, "points_and_lines")
    x2 = projective_permutation(A2 * D, "points_and_lines")
    w1 = ~x1 * ~phi * x1 * phi
    w2 = ~x2 * ~beta * x2 * beta
    return {
        "c1_order": c1.order(),
        "c1_delta_commutes": c1 * D == D * c1,
        "g1_witness_order": w1.order(),
        "c2_order": c2.order(),
        "g2_witness_order": w2.order(),
    }


def exceptional_automorphism_witness():
    """Search the degree-10 model of S6 for a twisted commutator of order 3.

    With H the s6_in_pgammal29 group, A its socle and phi the designated
    element outside H, scan x in H minus A and y in A, and return
    (x, phi*y, 3) for the first pair whose commutator [x, phi*y] has order 3,
    the least odd order greater than 1.  AtlasError if no pair has one.
    """
    built = build("s6_in_pgammal29")
    H = built.group
    phi = built.extras["phi"]
    socle = FiniteGroup(built.extras["socle_generators"], degree=10)
    a_elems = socle.elements()
    outer = [x for x in H.elements() if not socle.contains(x)]
    for x in outer:
        xinv = ~x
        for y in a_elems:
            t = phi * y
            if (xinv * ~t * x * t).order() == 3:
                return x, t, 3
    raise AtlasError("no twisted commutator of order 3 in the S6 model")
