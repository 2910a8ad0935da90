"""Structural series and recognition for finite permutation groups.

Derived, lower-central and upper-Fitting series; Sylow subgroups, p-cores,
the Fitting subgroup and soluble radical; the normal subgroup lattice with
simplicity, minimal normals and socle; and fingerprint identification of
the eight simple groups whose elements all have prime-power order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import factorization, is_prime, p_part
from .bsgs import StabilizerChain
from .errors import (
    ClassCapError,
    InsolubleError,
    NotNilpotentError,
    NotPGroupError,
    NotSimpleError,
)
from .group import FiniteGroup, Subgroup, quotient_by_normal
from .permutation import comm_raw, conj_raw, identity_raw, mul_raw, order_raw

DEFAULT_CLASS_CAP = 60


@dataclass
class SeriesChain:
    kind: str  # "derived", "lower_central" or "upper_fitting"
    terms: list  # Subgroups of the ambient group; upper_fitting runs upward
    stabilized: bool = True


def _as_group(x) -> FiniteGroup:
    return x.group if isinstance(x, Subgroup) else x


def _whole(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, G)


def _element_orders(G: FiniteGroup):
    """Orders of G's elements, parallel to _raw_elements, cached on the group."""
    key = "element_orders"
    if key not in G._cache:
        G._cache[key] = [order_raw(x) for x in G._raw_elements()]
    return G._cache[key]


# ---------------------------------------------------------------------------
# descending series


def derived_series(G: FiniteGroup) -> SeriesChain:
    terms = [_whole(G)]
    while True:
        nxt = _as_group(terms[-1]).derived_subgroup()
        if nxt.order() == terms[-1].order():
            break
        terms.append(Subgroup(G, nxt.group))
        if nxt.order() == 1:
            break
    return SeriesChain("derived", terms)


def is_soluble(G: FiniteGroup) -> bool:
    key = "is_soluble"
    if key not in G._cache:
        G._cache[key] = derived_series(G).terms[-1].order() == 1
    return G._cache[key]


def is_perfect(G: FiniteGroup) -> bool:
    return G.derived_subgroup().order() == G.order()


def lower_central_series(G: FiniteGroup) -> SeriesChain:
    ident = identity_raw(G.degree)
    terms = [_whole(G)]
    while True:
        cur = _as_group(terms[-1])
        seeds = set()
        for a in cur._raw_gens:
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
    return SeriesChain("lower_central", terms)


def is_nilpotent(G: FiniteGroup) -> bool:
    key = "is_nilpotent"
    if key not in G._cache:
        G._cache[key] = lower_central_series(G).terms[-1].order() == 1
    return G._cache[key]


def gamma_infinity(G: FiniteGroup) -> Subgroup:
    """The stationary term of the lower central series."""
    term = lower_central_series(G).terms[-1]
    return term if isinstance(term, Subgroup) else _whole(G)


# ---------------------------------------------------------------------------
# Sylow subgroups and cores


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown by normalizer ascent from a p-element.

    While the current p-subgroup P is short of full p-part, some p-element
    outside P normalizes it (P is proper in a Sylow group S, and the
    normalizer of P in S is strictly bigger than P), so scanning p-elements
    for a normalizing one and extending always makes progress.
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
    chain = StabilizerChain(G.degree)
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
    sub.group._chain = chain
    return sub


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """O_p(G), the intersection of all conjugates of a Sylow p-subgroup.

    Computed by refinement: start with the Sylow group and intersect with a
    conjugate under some non-normalizing generator until none is left.  The
    refined set always contains O_p, shrinks strictly, and stops exactly at
    a normal p-subgroup, which must then be O_p itself.
    """
    syl = sylow_subgroup(G, p)
    if syl.order() == 1:
        return syl
    K = set(syl.group._raw_elements())
    while True:
        clash = None
        for g in G._raw_gens:
            Kg = {conj_raw(x, g) for x in K}
            if Kg != K:
                clash = Kg
                break
        if clash is None:
            break
        K &= clash
    return G._subgroup_from_raw_elements(K)


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """F(G), the product of the cores O_p(G) over the primes dividing |G|."""
    key = "fitting"
    if key not in G._cache:
        gens = []
        for p, _ in factorization(G.order()):
            gens.extend(p_core(G, p).group._raw_gens)
        G._cache[key] = G._subgroup_raw(gens)
    return G._cache[key]


# ---------------------------------------------------------------------------
# the upper Fitting series, Fitting height and the soluble radical


def upper_fitting_series(G: FiniteGroup) -> SeriesChain:
    """1 = F0 <= F1 <= ... with F_{i+1}/F_i the Fitting subgroup of G/F_i.

    The series climbs until the Fitting subgroup of the quotient is trivial.
    The stationary term is the soluble radical for every G, soluble or not:
    a minimal soluble normal subgroup above it would be elementary abelian
    and so would show up inside a nontrivial Fitting subgroup of the
    quotient.  The series is computed once per group and cached on it.
    """
    key = "upper_fitting"
    if key in G._cache:
        return G._cache[key]
    terms = [G.trivial_subgroup()]
    while True:
        q = quotient_by_normal(G, terms[-1])
        fq = fitting_subgroup(q)
        pulled = G._subgroup_raw(q.preimage_gens(fq))
        if pulled.order() != terms[-1].order() * fq.order():
            raise RuntimeError("pullback of a quotient Fitting subgroup went wrong")
        if pulled.order() == terms[-1].order():
            break
        terms.append(pulled)
    G._cache[key] = SeriesChain("upper_fitting", terms)
    return G._cache[key]


def fitting_height(G: FiniteGroup) -> int:
    if not is_soluble(G):
        raise InsolubleError("fitting height is defined for soluble groups only")
    return len(upper_fitting_series(G).terms) - 1


def soluble_radical(G: FiniteGroup) -> Subgroup:
    return upper_fitting_series(G).terms[-1]


# ---------------------------------------------------------------------------
# odds and ends on nilpotent groups and p-groups


def p_prime_part_of_nilpotent(N, p: int) -> Subgroup:
    """The subgroup of a nilpotent group generated by its p'-elements."""
    if not is_prime(p):
        raise ValueError("%d is not a prime" % p)
    group = _as_group(N)
    if not is_nilpotent(group):
        raise NotNilpotentError("the p' part shortcut needs a nilpotent group")
    elems = group._raw_elements()
    orders = _element_orders(group)
    kept = [x for x, o in zip(elems, orders) if o % p != 0]
    return group._subgroup_from_raw_elements(kept)


def is_p_group(G: FiniteGroup) -> bool:
    n = _as_group(G).order()
    if n == 1:
        return True
    fact = factorization(n)
    return len(fact) == 1


def frattini_of_p_group(P) -> Subgroup:
    """The Frattini subgroup of a p-group: generated by p-th powers and commutators."""
    group = _as_group(P)
    if group.order() == 1:
        return group.trivial_subgroup()
    fact = factorization(group.order())
    if len(fact) != 1:
        raise NotPGroupError("frattini shortcut applies to p-groups only")
    p = fact[0][0]
    gens = set(group.derived_subgroup().group._raw_gens)
    ident = identity_raw(group.degree)
    for x in group._raw_elements():
        y = x
        for _ in range(p - 1):
            y = mul_raw(y, x)
        if y != ident:
            gens.add(y)
    return group._subgroup_raw(sorted(gens))


def is_extraspecial(P) -> bool:
    """p-group with centre of order p and elementary abelian nontrivial quotient."""
    group = _as_group(P)
    fact = factorization(group.order())
    if len(fact) != 1 or group.order() == 1:
        return False
    p = fact[0][0]
    centre = group.center()
    if centre.order() != p:
        return False
    q = quotient_by_normal(group, centre)
    if q.order() == 1:
        return False
    if not q.is_elementary_abelian():
        return False
    frat = frattini_of_p_group(group)
    return frat.group.same_group_as(centre.group)


# ---------------------------------------------------------------------------
# the normal subgroup lattice


def normal_subgroups(G: FiniteGroup, class_cap: int = DEFAULT_CLASS_CAP) -> list:
    """Every normal subgroup, as the join closure of class normal closures.

    A normal subgroup is a union of conjugacy classes, so all of them arise
    as joins of the normal closures of single class representatives.  Each
    subgroup is keyed by the set of classes it swallows, which makes the
    closure loop terminate without ever comparing groups elementwise.
    """
    key = ("normals", class_cap)
    if key not in G._cache:
        classes = G._raw_classes()
        if len(classes) > class_cap:
            raise ClassCapError(len(classes), class_cap)
        reps = [c.rep for c in classes]
        ident = identity_raw(G.degree)

        def signature(sub: Subgroup):
            chain = sub.group.chain()
            return frozenset(i for i, r in enumerate(reps) if chain.contains_raw(r))

        found = {}
        triv = G.trivial_subgroup()
        found[signature(triv)] = triv
        atoms = []
        for r in reps:
            if r != ident:
                sub = G._normal_closure_raw([r])
                sig = signature(sub)
                atoms.append((sig, sub))
                found.setdefault(sig, sub)
        frontier = list(found)
        while frontier:
            new_frontier = []
            for sig in frontier:
                base = found[sig]
                for asig, atom in atoms:
                    if asig <= sig:
                        continue
                    join = G._subgroup_raw(base.group._raw_gens + atom.group._raw_gens)
                    jsig = signature(join)
                    if jsig not in found:
                        found[jsig] = join
                        new_frontier.append(jsig)
            frontier = new_frontier
        out = sorted(found.values(), key=lambda s: (s.order(), sorted(signature(s))))
        G._cache[key] = out
    return G._cache[key]


def minimal_normal_subgroups(G: FiniteGroup, class_cap: int = DEFAULT_CLASS_CAP) -> list:
    """Minimal members among the nontrivial normal subgroups (G itself if simple)."""
    nontrivial = [n for n in normal_subgroups(G, class_cap) if n.order() > 1]
    out = []
    for n in nontrivial:
        if not any(m.order() < n.order() and n.contains_subgroup(m) for m in nontrivial):
            out.append(n)
    return out


def socle(G: FiniteGroup, class_cap: int = DEFAULT_CLASS_CAP) -> Subgroup:
    gens = []
    for m in minimal_normal_subgroups(G, class_cap):
        gens.extend(m.group._raw_gens)
    return G._subgroup_raw(gens)


def is_simple(
    G: FiniteGroup, allow_abelian_simple: bool = False, class_cap: int = DEFAULT_CLASS_CAP
) -> bool:
    """Nonabelian simplicity by default; prime order counts only when flagged."""
    n = G.order()
    if n == 1:
        return False
    if G.is_abelian():
        return allow_abelian_simple and is_prime(n)
    return len(normal_subgroups(G, class_cap)) == 2


# ---------------------------------------------------------------------------
# recognizing the simple groups with prime-power element orders


@dataclass
class SimpleEppoId:
    tag: str
    order_only_match: bool = False


# fingerprint rows: order -> (tag, sorted class representative orders).
# The desk-scale rows were generated from the atlas constructions and are
# frozen here; Sz(32) is matched by order alone since it is never built.
_SIMPLE_EPPO_TABLE = {
    60: ("PSL2_4", [1, 2, 3, 5, 5]),
    168: ("PSL2_7", [1, 2, 3, 4, 7, 7]),
    504: ("PSL2_8", [1, 2, 3, 7, 7, 7, 9, 9, 9]),
    360: ("PSL2_9", [1, 2, 3, 3, 4, 5, 5]),
    2448: ("PSL2_17", [1, 2, 3, 4, 8, 8, 9, 9, 9, 17, 17]),
    20160: ("PSL3_4", [1, 2, 3, 4, 4, 4, 5, 5, 7, 7]),
    29120: ("Sz8", [1, 2, 4, 4, 5, 7, 7, 7, 13, 13, 13]),
}

_SZ32_ORDER = 32537600


def identify_simple_eppo(G: FiniteGroup, class_cap: int = DEFAULT_CLASS_CAP) -> SimpleEppoId:
    """Match a simple group against the eight-group table by order and class orders."""
    if G.order() == _SZ32_ORDER:
        return SimpleEppoId("Sz32", order_only_match=True)
    if not is_simple(G, class_cap=class_cap):
        raise NotSimpleError("identification applies to nonabelian simple groups")
    row = _SIMPLE_EPPO_TABLE.get(G.order())
    if row is not None and G.class_rep_orders() == row[1]:
        return SimpleEppoId(row[0])
    return SimpleEppoId("NotInList")


def is_quasisimple(G: FiniteGroup, class_cap: int = DEFAULT_CLASS_CAP) -> bool:
    """Perfect with simple central quotient."""
    if not is_perfect(G):
        return False
    centre = G.center()
    if centre.order() == G.order():
        return False
    q = quotient_by_normal(G, centre)
    return is_simple(q, class_cap=class_cap)
