"""Structural series and recognition for finite permutation groups.

Derived, lower-central and upper-Fitting series; Sylow subgroups, p-cores,
the Fitting subgroup and soluble radical; the normal subgroup lattice;
simplicity and quasisimplicity read off class closures, with no lattice or
quotient; and fingerprint identification of seven of the eight simple
groups whose elements all have prime-power order (all but Sz(32), which is
too large to enumerate).  Results kept per group are memoized on it by
group.py's `cached`, so this module never touches a group's storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import factorization, is_prime, p_part
from .bsgs import StabilizerChain
from .errors import (
    ClassCapError,
    InsolubleError,
    NotNilpotentError,
    NotPGroupError,
    NotSimpleError,
)
from .group import FiniteGroup, cached, quotient_by_normal
from .permutation import comm_raw, conj_raw, identity_raw, mul_all, mul_raw, order_raw

DEFAULT_CLASS_CAP = 60


@dataclass
class SeriesChain:
    terms: list  # subgroups of the ambient group; the upper Fitting series runs upward
    # the upper Fitting series only: i -> G/terms[i] for each nontrivial proper term
    quotients: dict = field(default_factory=dict)


@cached
def _element_orders(G: FiniteGroup):
    """Orders of G's elements, parallel to _raw_elements."""
    base = G.chain().base
    return [order_raw(x, base) for x in G._raw_elements()]


# ---------------------------------------------------------------------------
# descending series


def derived_series(G: FiniteGroup) -> SeriesChain:
    terms = [G]
    while True:
        nxt = terms[-1].derived_subgroup()
        if nxt.order() == terms[-1].order():
            break
        terms.append(nxt)
        if nxt.order() == 1:
            break
    return SeriesChain(terms)


@cached
def is_soluble(G: FiniteGroup) -> bool:
    return derived_series(G).terms[-1].order() == 1


def is_perfect(G: FiniteGroup) -> bool:
    return G.derived_subgroup().order() == G.order()


def lower_central_series(G: FiniteGroup) -> SeriesChain:
    ident = identity_raw(G.degree)
    terms = [G]
    while True:
        seeds = set()
        for a in terms[-1]._raw_gens:
            for b in G._raw_gens:
                c = comm_raw(a, b)
                if c != ident:
                    seeds.add(c)
        nxt = G._normal_closure_raw(sorted(seeds))
        if nxt.order() == terms[-1].order():
            break
        terms.append(nxt)
        if nxt.order() == 1:
            break
    return SeriesChain(terms)


@cached
def is_nilpotent(G: FiniteGroup) -> bool:
    return lower_central_series(G).terms[-1].order() == 1


# ---------------------------------------------------------------------------
# Sylow subgroups and cores


def sylow_subgroup(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup, grown by normalizer ascent from a p-element.

    While the current p-subgroup P is short of full p-part, some p-element
    outside P normalizes it (P is proper in a Sylow group S, and the
    normalizer of P in S is strictly bigger than P), so scanning p-elements
    for a normalizing one and extending always makes progress.  P<y> is a
    p-group, so |G|_p bounds the chain and its last build stops there.
    """
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    target = p_part(G.order(), p)
    if target == 1:
        return G.trivial_subgroup()
    elems = G._raw_elements()
    orders = _element_orders(G)
    p_powers = {o for o in set(orders) if o > 1 and p_part(o, p) == o}
    p_elems = [x for x, o in zip(elems, orders) if o in p_powers]
    gens = [p_elems[0]]
    chain = StabilizerChain(G.degree, target)
    chain.extend(p_elems[0])
    while chain.order() < target:
        for y in p_elems:
            if chain.contains_raw(y):
                continue
            if all(chain.contains_raw(conj_raw(g, y)) for g in gens):
                gens.append(y)
                chain.extend(y)
                break
        else:
            raise RuntimeError("sylow ascent stalled below the full p-part")
    sub = G._subgroup_raw(gens)
    sub._chain = chain
    return sub


def _class_product(G: FiniteGroup, i: int, j: int) -> frozenset:
    """The classes meeting C_i*C_j, memoized on the unordered pair: x*y is
    conjugate to y*x, so C_i*C_j and C_j*C_i meet the same classes."""
    return _sorted_class_product(G, i, j) if i <= j else _sorted_class_product(G, j, i)


@cached
def _sorted_class_product(G: FiniteGroup, i: int, j: int) -> frozenset:
    """The classes meeting C_i*C_j for i <= j, so that C_i is no larger than
    C_j (classes sort by size).  Every product x*y (x in C_i, y in C_j) is
    conjugate to x'*r for the representative r of C_j and some x' in C_i,
    so one batch product over C_i names them all.
    """
    classes = G._raw_classes()
    class_of = G._class_index()
    return frozenset(map(class_of.__getitem__, mul_all(classes[i].members, classes[j].rep)))


def _class_closure(G: FiniteGroup, k: int, allowed=None, bound=None) -> frozenset | None:
    """The classes of the normal closure <C_k>, read off class products.

    <C_k> is the union of the powers of C_k, and the classes of C_k^(n+1)
    are those meeting C_i*C_k for the classes C_i of C_k^n, so products with
    C_k alone reach them all.  Growth stops with None at a class outside
    `allowed` or once the classes met hold more than `bound` elements.  With
    no bound, more than |G|/2 elements lie in no proper subgroup, so the
    closure is all of G.  C_k itself must lie in `allowed`.  The size is
    tested before each product, the first included, so a class that alone
    holds more than `bound` elements forms none.
    """
    classes = G._raw_classes()
    limit = G.order() // 2 if bound is None else bound
    met = {k}
    size = len(classes[k].members)
    frontier = [k]
    for i in frontier:
        if size > limit:
            if bound is not None:
                return None
            whole = frozenset(range(len(classes)))
            return whole if allowed is None or whole <= allowed else None
        for c in _class_product(G, i, k):
            if c in met:
                continue
            if allowed is not None and c not in allowed:
                return None
            met.add(c)
            size += len(classes[c].members)
            frontier.append(c)
    return frozenset(met)


@cached
def p_core(G: FiniteGroup, p: int) -> FiniteGroup:
    """O_p(G), the largest normal p-subgroup, as the union of the conjugacy
    classes of p-power order whose normal closure is a p-group.

    This is the intersection of the Sylow p-subgroups: that intersection is
    a normal p-subgroup, and every normal p-subgroup lies in each Sylow
    p-subgroup.  If x lies in O_p then its normal closure <x^G> lies in O_p
    too and is a p-group; conversely, a normal closure that is a p-group is
    a normal p-subgroup and lies in O_p.  Membership is constant on a class,
    so one closure per class decides it.  Each closure is read off class
    products: it fails at its first class whose order is not a power of p,
    or once it holds more than |G|_p elements, and a class already inside
    the core needs none.  No chain is built but the core's own, and a
    trivial core needs none.
    """
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    target = p_part(G.order(), p)
    classes = G._raw_classes()
    # an element order divides |G|, so it is a power of p iff it divides |G|_p
    allowed = frozenset(k for k, c in enumerate(classes) if target % c.order == 0)
    core = set()
    for k in sorted(allowed):
        if k not in core:
            core.update(_class_closure(G, k, allowed, target) or ())
    if len(core) == 1:
        return G.trivial_subgroup()
    return G._subgroup_from_raw_elements([x for k in core for x in classes[k].members])


@cached
def fitting_subgroup(G: FiniteGroup) -> FiniteGroup:
    """F(G), the product of the cores O_p(G) over the primes dividing |G|."""
    gens = []
    for p, _ in factorization(G.order()):
        gens.extend(p_core(G, p)._raw_gens)
    return G._subgroup_raw(gens)


# ---------------------------------------------------------------------------
# the upper Fitting series, Fitting height and the soluble radical


@cached
def upper_fitting_series(G: FiniteGroup) -> SeriesChain:
    """1 = F0 <= F1 = F(G) <= ... with F_{i+1}/F_i the Fitting subgroup of G/F_i.

    The series starts at F(G), so it never forms G/1, and climbs until the
    Fitting subgroup of the quotient is trivial or the series reaches G.
    The stationary term is the soluble radical for every G, soluble or not:
    a minimal soluble normal subgroup above it would be elementary abelian
    and so would show up inside a nontrivial Fitting subgroup of the
    quotient.  The series keeps its quotient by each proper nontrivial
    term: find_max_tower climbs through them again, and for an insoluble G
    with R(G) != 1 the last one is G/R(G), whose derived subgroup
    (G/R(G))' = G'/R(G') classify identifies.
    """
    terms = [G.trivial_subgroup()]
    fitting = fitting_subgroup(G)
    if fitting.order() > 1:
        terms.append(fitting)
    quotients = {}
    while 1 < terms[-1].order() < G.order():
        q = quotients[len(terms) - 1] = quotient_by_normal(G, terms[-1])
        fq = fitting_subgroup(q)
        pulled = G._subgroup_raw(q.preimage_gens(fq))
        if pulled.order() != terms[-1].order() * fq.order():
            raise RuntimeError("pullback of a quotient Fitting subgroup went wrong")
        if pulled.order() == terms[-1].order():
            break
        terms.append(pulled)
    return SeriesChain(terms, quotients=quotients)


def fitting_height(G: FiniteGroup) -> int:
    if not is_soluble(G):
        raise InsolubleError("fitting height is defined for soluble groups only")
    return len(upper_fitting_series(G).terms) - 1


def soluble_radical(G: FiniteGroup) -> FiniteGroup:
    return upper_fitting_series(G).terms[-1]


# ---------------------------------------------------------------------------
# odds and ends on nilpotent groups and p-groups


def p_prime_part_of_nilpotent(N: FiniteGroup, p: int) -> FiniteGroup:
    """The subgroup of a nilpotent group generated by its p'-elements."""
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    if not is_nilpotent(N):
        raise NotNilpotentError("the p' part shortcut needs a nilpotent group")
    elems = N._raw_elements()
    orders = _element_orders(N)
    kept = [x for x, o in zip(elems, orders) if o % p != 0]
    return N._subgroup_from_raw_elements(kept)


def frattini_of_p_group(P: FiniteGroup) -> FiniteGroup:
    """The Frattini subgroup of a p-group: generated by p-th powers and commutators."""
    if P.order() == 1:
        return P.trivial_subgroup()
    fact = factorization(P.order())
    if len(fact) != 1:
        raise NotPGroupError("frattini shortcut applies to p-groups only")
    p = fact[0][0]
    gens = set(P.derived_subgroup()._raw_gens)
    ident = identity_raw(P.degree)
    for x in P._raw_elements():
        y = x
        for _ in range(p - 1):
            y = mul_raw(y, x)
        if y != ident:
            gens.add(y)
    return P._subgroup_raw(sorted(gens))


# ---------------------------------------------------------------------------
# the normal subgroup lattice


@cached
def normal_subgroups(G: FiniteGroup) -> list:
    """Every normal subgroup, as the join closure of class normal closures.

    A normal subgroup is a union of conjugacy classes, so all of them arise
    as joins of the normal closures of single class representatives.  Each
    subgroup is keyed by its signature, the set of classes it swallows, and
    the list is sorted by (order, sorted signature).  No signature needs a
    chain.  An atom's signature is its class closure, read off the class
    products C_i*C_k.  For normal N and M the join is N*M, the union of the
    class products C_i*C_j over C_i in N and C_j in M, so a join's signature
    is a union of class products.  An atom's subgroup is formed only when
    its signature is new or a new join needs its generators, and a join's
    only when its signature is new.
    """
    classes = G._raw_classes()
    if len(classes) > DEFAULT_CLASS_CAP:
        raise ClassCapError(len(classes), DEFAULT_CLASS_CAP)
    ident = identity_raw(G.degree)
    formed = {}  # class index -> the normal closure of its representative

    def atom(k):
        if k not in formed:
            formed[k] = G._normal_closure_raw([classes[k].rep])
        return formed[k]

    trivial = frozenset(k for k, c in enumerate(classes) if c.rep == ident)
    found = {trivial: G.trivial_subgroup()}
    atoms = []
    for k, c in enumerate(classes):
        if c.rep != ident:
            sig = _class_closure(G, k)
            atoms.append((sig, k))
            if sig not in found:
                found[sig] = atom(k)
    frontier = list(found)
    while frontier:
        new_frontier = []
        for sig in frontier:
            base = found[sig]
            for asig, k in atoms:
                # a join with a subgroup or overgroup is one of the two
                if asig <= sig or sig <= asig:
                    continue
                fresh = asig - sig
                jsig = sig.union(*(_class_product(G, i, j) for i in sig for j in fresh))
                if jsig not in found:
                    found[jsig] = G._subgroup_raw(base._raw_gens + atom(k)._raw_gens)
                    new_frontier.append(jsig)
        frontier = new_frontier
    sizes = [len(c.members) for c in classes]
    ordered = sorted(
        found.items(), key=lambda item: (sum(sizes[i] for i in item[0]), sorted(item[0]))
    )
    return [sub for _, sub in ordered]


def is_simple(G: FiniteGroup) -> bool:
    """Nonabelian simplicity: a group of prime order does not count.
    Nonabelian G is simple iff each nontrivial class has class closure G."""
    if G.order() == 1 or G.is_abelian():
        return False
    # classes sort by (size, least member), so the identity's comes first
    whole = len(G._raw_classes())
    return all(len(_class_closure(G, k)) == whole for k in range(1, whole))


# ---------------------------------------------------------------------------
# recognizing the simple groups with prime-power element orders


@dataclass
class SimpleEppoId:
    tag: str


# fingerprint rows: order -> (tag, sorted class representative orders),
# generated from the atlas constructions and frozen here.  Sz(32), the
# eighth simple group with prime-power element orders, has no row: at order
# 32,537,600 it is far past the enumeration cap, so its classes are never
# computed and no fingerprint of it could be checked.
_SIMPLE_EPPO_TABLE = {
    60: ("PSL2_4", [1, 2, 3, 5, 5]),
    168: ("PSL2_7", [1, 2, 3, 4, 7, 7]),
    504: ("PSL2_8", [1, 2, 3, 7, 7, 7, 9, 9, 9]),
    360: ("PSL2_9", [1, 2, 3, 3, 4, 5, 5]),
    2448: ("PSL2_17", [1, 2, 3, 4, 8, 8, 9, 9, 9, 17, 17]),
    20160: ("PSL3_4", [1, 2, 3, 4, 4, 4, 5, 5, 7, 7]),
    29120: ("Sz8", [1, 2, 4, 4, 5, 7, 7, 7, 13, 13, 13]),
}


def identify_simple_eppo(G: FiniteGroup) -> SimpleEppoId:
    """Match a nonabelian simple group against the seven fingerprint rows by
    order and class representative orders; any other simple group is
    "NotInList"."""
    if not is_simple(G):
        raise NotSimpleError("identification applies to nonabelian simple groups")
    row = _SIMPLE_EPPO_TABLE.get(G.order())
    if row is not None and G.class_rep_orders() == row[1]:
        return SimpleEppoId(row[0])
    return SimpleEppoId("NotInList")


def is_quasisimple(G: FiniteGroup) -> bool:
    """Perfect with simple central quotient: for perfect G, G/Z(G) is simple
    iff each class outside Z = Z(G) != G normally generates G, since a
    normal N not inside Z has NZ = G, so G = G' = N' <= N."""
    if not is_perfect(G):
        return False
    centre = G.center()
    if centre.order() == G.order():
        return False
    inside = centre.chain().contains_raw
    classes = G._raw_classes()
    outside = [k for k, c in enumerate(classes) if not inside(c.rep)]
    return all(len(_class_closure(G, k)) == len(classes) for k in outside)
