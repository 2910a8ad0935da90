"""Finite permutation groups: orders, membership, classes, commutators.

A FiniteGroup is a generator list plus lazy caches (stabilizer chain, element
list, conjugacy classes).  Orders and membership go through the chain and
never enumerate; anything that does enumerate honours the group's cap and
raises EnumerationCapError beyond it.  The elements themselves come from the
chain, as products of one stored coset representative per level, so each is
formed at most once, and those of the first level are the stored inverses
themselves.  Conjugacy classes form no conjugate: an element is fixed by its
images of the chain's base, so each generator acts on element indices
through a table read off those images, and the classes are the orbits of the
index tables, walked by orbits, the one sweep that also gives the tower
probe its candidate classes.  The sweep runs on the element list in the
order it is held, so each class's members come in that order and its
representative is their minimum.  The tables cost one row per element per
generator, so a group with more than two generators and |G| > degree^2
sweeps on a pair of elements checked to generate it, when one is found.
Commutators are read off the class table: one scan names, for each class
representative r and each s in its class, the class of the commutator
r^-1 s.  The commutator set is the union of the classes the scan hits.  The
CPPO witness looks at G' first when |G| exceeds the degree: every commutator
lies in G', so only the classes of non-prime-power order inside G' can break
CPPO, and with none of them it needs no scan; otherwise it reads orders off
the classes the scan names.  is_cppo tries a short fixed-seed walk of
commutators of random words before that, so a group it catches is refuted
with no element listed.  G''s class data is read off G's classes, of which
G' is a union: derived_classes names them once and seeds G''s element list
with their members.  A quotient G/N acts on the right cosets of N, each
named by the least row of its elements' images of G's base; the cosets are
walked on those rows alone, with no product formed.
Each coset keeps its link (the coset and generator it was met from) and its
rows, which projection maps through an element; its least element is the
minimum of one batch product, formed only when a lift first needs it.  All
derived data is produced in a deterministic order: a group keeps one element
list, in the chain's enumeration order (or as G's classes hand it to G') until
a reader that needs its order asks, which sorts it in place lexicographically
by image table; classes are ordered by (size, least member).

Every other result a group keeps, here or in structure and towers, is
memoized on it by one decorator, `cached`, so only this module knows how a
group stores its results.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce, wraps
from itertools import combinations, islice

from .arith import is_prime_power
from .bsgs import StabilizerChain
from .errors import (
    DegreeMismatchError,
    EnumerationCapError,
    NotInGroupError,
    NotNormalError,
)
from .permutation import (
    Permutation,
    base_rows,
    comm_raw,
    conj_raw,
    conjugation_sieve,
    conjugation_tables,
    element_index,
    identity_raw,
    inv_raw,
    map_rows,
    mul_all,
    mul_raw,
    order_raw,
    orbits,
)

DEFAULT_ENUMERATION_CAP = 200_000

# commutators of random words is_cppo tries before it falls back to the scan
_WITNESS_WALK_TRIES = 16


def cached(fn):
    """Memoize fn(G, *args) on the group G: computed once per group and per
    positional arguments, stored in G._cache under (fn.__qualname__, *args).
    A call that raises stores nothing."""
    name = fn.__qualname__

    @wraps(fn)
    def memo(G, *args):
        key = (name, *args)
        cache = G._cache
        if key not in cache:
            cache[key] = fn(G, *args)
        return cache[key]

    return memo


def _commutator_seeds(degree, pairs) -> list:
    """The distinct nontrivial commutators [x, y] over the raw pairs (x, y), sorted."""
    return sorted({comm_raw(x, y) for x, y in pairs} - {identity_raw(degree)})


class _RawClass:
    """A conjugacy class: least member as representative, the members in the
    order of the element list the sweep ran on, and the element order every
    member shares."""

    __slots__ = ("rep", "members", "order")

    def __init__(self, members, base):
        self.rep = min(members)
        self.members = members
        self.order = order_raw(self.rep, base)


class ConjugacyClass:
    __slots__ = ("representative", "_members")

    def __init__(self, representative, members):
        self.representative = representative
        self._members = members

    @property
    def size(self) -> int:
        return len(self._members)

    def members(self) -> list[Permutation]:
        return [Permutation._from_raw(m) for m in self._members]

    def __repr__(self):
        return "ConjugacyClass(rep=%s, size=%d)" % (self.representative, self.size)


@dataclass
class CppoWitness:
    """A commutator of non-prime-power order, with the pair producing it."""

    commutator: Permutation
    order: int
    left: Permutation
    right: Permutation


@dataclass
class EppoWitness:
    element: Permutation
    order: int


class FiniteGroup:
    def __init__(self, generators, degree=None, *, cap=DEFAULT_ENUMERATION_CAP, name=None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise DegreeMismatchError("an empty generator list needs an explicit degree")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatchError(
                    "generator degree %d does not match group degree %d" % (g.degree, degree)
                )
        self.degree = degree
        self.cap = cap
        self.name = name
        if not gens:
            gens = [Permutation.identity(degree)]
        self.generators: list[Permutation] = gens
        raw = []
        seen = set()
        ident = identity_raw(degree)
        for g in gens:
            r = g.raw
            if r != ident and r not in seen:
                raw.append(r)
                seen.add(r)
        self._raw_gens: list = raw
        self._chain = None
        self._elements = None
        self._elements_sorted = False
        self._classes = None
        self._cache: dict = {}

    # -- orders -------------------------------------------------------------

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain.from_raw_generators(self.degree, self._raw_gens)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def with_cap(self, cap: int | None) -> "FiniteGroup":
        """The same group carrying `cap` as its enumeration cap; itself when
        cap is None.  It shares this group's chain, but enumerates afresh."""
        if cap is None:
            return self
        capped = FiniteGroup(self.generators, degree=self.degree, cap=cap, name=self.name)
        capped._chain = self._chain
        return capped

    def is_trivial(self) -> bool:
        return not self._raw_gens

    def is_abelian(self) -> bool:
        gens = self._raw_gens
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if mul_raw(a, b) != mul_raw(b, a):
                    return False
        return True

    # -- membership ---------------------------------------------------------

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self.chain().contains_raw(g.raw)

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def contains_group(self, other: "FiniteGroup") -> bool:
        return all(self.chain().contains_raw(r) for r in other._raw_gens)

    def same_group_as(self, other: "FiniteGroup") -> bool:
        return self.order() == other.order() and self.contains_group(other)

    def normalized_by(self, raw_gens) -> bool:
        """Whether every given permutation conjugates this group into itself."""
        chain = self.chain()
        return all(chain.contains_raw(conj_raw(x, g)) for g in raw_gens for x in self._raw_gens)

    # -- enumeration --------------------------------------------------------

    def _listed_elements(self) -> list:
        """The element list in the order it is held: the chain's enumeration
        order (or the order G's classes handed it over in, for G') until
        _raw_elements sorts it in place.  A caller keeps no index into it
        beyond its own call."""
        if self._elements is None:
            # the chain knows the order, so a group past the cap is refused
            # before any element is formed
            if self.order() > self.cap:
                raise EnumerationCapError(self.cap, self.cap)
            self._keep_elements(self.chain().elements())
        return self._elements

    def _raw_elements(self) -> list:
        """The element list sorted lexicographically by image table: the one
        list _listed_elements holds, sorted in place on the first call, and
        checked then to hold no element twice."""
        elems = self._listed_elements()
        if not self._elements_sorted:
            elems.sort()
            # equal elements sit side by side once sorted
            repeats = sum(map(operator.eq, elems, islice(elems, 1, None)))
            if repeats:
                self._elements = None
                raise RuntimeError(
                    "enumeration found %d distinct elements but the chain says %d"
                    % (len(elems) - repeats, self.order())
                )
            self._elements_sorted = True
        return elems

    def _keep_elements(self, elems) -> None:
        """Keep the list elems, in any order, as the element list, once its
        length is checked against the chain's order.  That no element comes
        twice is checked by the first reader: the class sweep's index tables,
        or _raw_elements' sort."""
        if len(elems) != self.order():
            raise RuntimeError(
                "enumeration found %d elements but the chain says %d"
                % (len(elems), self.order())
            )
        self._elements = elems

    def elements(self) -> list[Permutation]:
        return [Permutation._from_raw(r) for r in self._raw_elements()]

    @cached
    def _element_position(self):
        """The function giving each element its position in _raw_elements,
        by element_index."""
        return element_index(self._raw_elements(), self.chain().base)

    # -- conjugacy classes --------------------------------------------------

    def _raw_classes(self) -> list[_RawClass]:
        if self._classes is None:
            elems = self._listed_elements()
            # moves[i][j] is the index of elems[j]'s conjugate by the i-th class generator
            base = self.chain().base
            moves = conjugation_tables(elems, base, self._class_gens())
            out = [_RawClass(members, base) for members in orbits(moves, elems)]
            out.sort(key=lambda c: (len(c.members), c.rep))
            self._classes = out
        return self._classes

    def _class_gens(self) -> list:
        """A generating list for the class sweep, which pays one table row per
        element per generator: a pair (g_i, w), w the product of all the
        generators, when one is checked to generate the group, else them all.

        The check is a chain bounded by |G| (sound, as the pair lies in G),
        which costs up to about `degree` points per level and saves k - 2
        rows per element, so it is tried only for k > 2 and |G| > degree^2.
        """
        gens = self._raw_gens
        n = self.order()
        if len(gens) > 2 and n > self.degree**2:
            w = reduce(mul_raw, gens)
            for g in gens:
                if StabilizerChain.from_raw_generators(self.degree, [g, w], n).order() == n:
                    return [g, w]
        return gens

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        return [
            ConjugacyClass(Permutation._from_raw(c.rep), sorted(c.members))
            for c in self._raw_classes()
        ]

    def _conjugate_gen_sets(self, raw_gens):
        """The distinct sorted tuples of conjugates of raw_gens, in element order."""
        seen = set()
        for c in self._raw_elements():
            gens = tuple(sorted(conj_raw(x, c) for x in raw_gens))
            if gens not in seen:
                seen.add(gens)
                yield gens

    def _class_conjugator(self, rep, target):
        """Some g with rep^g = target, retraced through the class orbit."""
        gens = self._raw_gens
        ident = identity_raw(self.degree)
        conj_of = {rep: ident}
        if target == rep:
            return ident
        frontier = [rep]
        while frontier:
            new_frontier = []
            for y in frontier:
                u = conj_of[y]
                for g in gens:
                    z = conj_raw(y, g)
                    if z not in conj_of:
                        conj_of[z] = mul_raw(u, g)
                        if z == target:
                            return conj_of[z]
                        new_frontier.append(z)
            frontier = new_frontier
        raise NotInGroupError("%r is not conjugate to %r here" % (target, rep))

    @cached
    def _class_index(self):
        """The function giving each element the index of its class in
        _raw_classes, by element_index."""
        classes = self._raw_classes()
        return element_index(
            [x for c in classes for x in c.members],
            self.chain().base,
            [k for k, c in enumerate(classes) for _ in c.members],
        )

    def class_rep_orders(self) -> list[int]:
        """Orders of the class representatives, one entry per class."""
        return sorted(c.order for c in self._raw_classes())

    def exponent(self) -> int:
        return math.lcm(*(c.order for c in self._raw_classes()))

    def is_cyclic(self) -> bool:
        n = self.order()
        return any(c.order == n for c in self._raw_classes())

    # -- commutator machinery -----------------------------------------------

    def _commutator_class_scan(self):
        """Per class C with representative r, in class order: C, r^-1, and an
        iterator over the class index of r^-1 s for each s in C.

        Every commutator [x, y] = x^-1 x^y is conjugate to some r^-1 s, and
        s r^-1 is conjugate (by r) to r^-1 s, so one batch product per class
        names the class of each such commutator.
        """
        class_of = self._class_index()
        for c in self._raw_classes():
            rinv = inv_raw(c.rep)
            yield c, rinv, map(class_of, mul_all(c.members, rinv))

    def commutator_set(self) -> set[Permutation]:
        """All commutators: the union of the classes the scan hits, which is
        exact since the commutator set is closed under conjugation."""
        hit = set()
        for _, _, ks in self._commutator_class_scan():
            hit.update(ks)
        classes = self._raw_classes()
        return {Permutation._from_raw(x) for k in hit for x in classes[k].members}

    @cached
    def cppo_witness(self) -> CppoWitness | None:
        """First commutator of non-prime-power order in scan order, if any.

        Orders are conjugation invariant, so each commutator's order is read
        off the class the scan names for it.  Every commutator lies in G',
        so only a class of non-prime-power order among derived_classes can
        be hit.  With no such class there is nothing to scan, and the scan
        finds the same first witness as one over every class of
        non-prime-power order.

        G' is consulted only when |G| > degree.  Its closure builds a chain
        whose orbits hold up to `degree` points, while a scan forms at most
        |G| products and stops at its first witness, so a group no larger
        than its degree (a regular one, say) scans without it.
        """
        classes = self._raw_classes()
        bad = {k for k, c in enumerate(classes) if not is_prime_power(c.order)}
        if bad and self.order() > self.degree:
            bad.intersection_update(self.derived_classes())
        if not bad:
            return None
        for c, rinv, ks in self._commutator_class_scan():
            # the least member s whose r^-1 s is bad, as a scan in sorted order meets first
            hit = min(((s, k) for s, k in zip(c.members, ks) if k in bad), default=None)
            if hit is not None:
                s, k = hit
                return CppoWitness(
                    commutator=Permutation._from_raw(mul_raw(rinv, s)),
                    order=classes[k].order,
                    left=Permutation._from_raw(c.rep),
                    right=Permutation._from_raw(self._class_conjugator(c.rep, s)),
                )
        return None

    @cached
    def derived_classes(self) -> list[int]:
        """Indices of the classes of G that lie in G', in class order.

        G' is normal, so it is the union of these classes, and one
        membership test of each representative in G''s chain names them
        (none when G is perfect, as then G' = G).  A G' with no element list
        yet is handed the union of their members, G's own objects in class
        order, so its elements are never formed from products."""
        classes = self._raw_classes()
        derived = self.derived_subgroup()
        if derived is self:
            return list(range(len(classes)))
        inside = derived.chain().contains_raw
        ks = [k for k, c in enumerate(classes) if inside(c.rep)]
        if derived._elements is None:
            derived._keep_elements([x for k in ks for x in classes[k].members])
        return ks

    def is_cppo(self) -> bool:
        """True when every commutator has prime-power order (1 included).

        A walk seeded with random.Random(0) tries _WITNESS_WALK_TRIES
        commutators [x, y] first, x and y words in the generators that each
        grow by one random generator per try.  Their orders are read on the
        chain's base, so the first of non-prime-power order decides False
        with no element formed, past the cap too.  Otherwise the verdict is
        cppo_witness() is None, which enumerates; cppo_witness alone names
        the canonical witness.
        """
        gens, base = self._raw_gens, self.chain().base
        rng = random.Random(0)
        x = y = identity_raw(self.degree)
        # with fewer than two generators the group is cyclic and every commutator is 1
        for _ in range(_WITNESS_WALK_TRIES if len(gens) > 1 else 0):
            x, y = mul_raw(x, rng.choice(gens)), mul_raw(y, rng.choice(gens))
            if not is_prime_power(order_raw(comm_raw(x, y), base)):
                return False
        return self.cppo_witness() is None

    def eppo_witness(self) -> EppoWitness | None:
        for c in self._raw_classes():
            if not is_prime_power(c.order):
                return EppoWitness(element=Permutation._from_raw(c.rep), order=c.order)
        return None

    def is_eppo(self) -> bool:
        """True when every element has prime-power order."""
        return self.eppo_witness() is None

    # -- subgroup constructions ---------------------------------------------

    def subgroup(self, perms) -> "FiniteGroup":
        for g in perms:
            if not self.contains(g):
                raise NotInGroupError("%s is not an element here" % g)
        return FiniteGroup(list(perms), degree=self.degree, cap=self.cap)

    def _subgroup_raw(self, raw_gens) -> "FiniteGroup":
        sub = FiniteGroup(
            [Permutation._from_raw(r) for r in raw_gens], degree=self.degree, cap=self.cap
        )
        if not self.contains_group(sub):
            raise NotInGroupError("subgroup generator outside the parent group")
        return sub

    def trivial_subgroup(self) -> "FiniteGroup":
        return self._subgroup_raw([])

    def _closure_raw(self, raw_seeds, raw_conjugators) -> "FiniteGroup":
        """Smallest subgroup containing the seeds and closed under the conjugators.

        One chain grows element by element; the seeds and conjugates that
        were new when met become the generators, in breadth-first order.
        The chain is bounded by |G|, which is sound because the closing
        containment check refuses any seed or conjugate outside G.
        """
        chain = StabilizerChain(self.degree, self.order())
        gens = [s for s in raw_seeds if chain.extend(s)]
        for x in gens:
            for c in raw_conjugators:
                y = conj_raw(x, c)
                if chain.extend(y):
                    gens.append(y)
        sub = self._subgroup_raw(gens)
        sub._chain = chain
        return sub

    def _subgroup_from_raw_elements(self, raw_elems) -> "FiniteGroup":
        """Reduce an element collection to a short generator list."""
        return self._closure_raw(sorted(raw_elems), ())

    def _normal_closure_raw(self, raw_seeds) -> "FiniteGroup":
        return self._closure_raw(raw_seeds, self._raw_gens)

    @cached
    def derived_subgroup(self) -> "FiniteGroup":
        # [b, a] = [a, b]^-1 lies in the normal closure, so one order of each pair suffices
        seeds = _commutator_seeds(self.degree, combinations(self._raw_gens, 2))
        derived = self._normal_closure_raw(seeds)
        # A perfect group is its own derived subgroup; handing back the
        # group itself keeps one copy of its elements, classes and radical.
        return self if derived.order() == self.order() else derived

    def centralizer(self, perms) -> "FiniteGroup":
        """Pointwise centralizer of the given elements, read off base images.

        x commutes with t iff x^t == x.  conjugation_sieve keeps the elements
        whose conjugate by each target agrees with them on the chain's base,
        and forms no conjugate.  An element of G is fixed by its base images,
        but x^t lies in G only when t normalizes G, so each element the sieve
        leaves is confirmed with one conj_raw per target.
        """
        targets = []
        for g in perms:
            if g.degree != self.degree:
                raise DegreeMismatchError("centralizer target has the wrong degree")
            targets.append(g.raw)
        base = self.chain().base
        kept = self._listed_elements()
        for t in targets:
            kept = conjugation_sieve(kept, base, t)
        kept = [x for x in kept if all(conj_raw(x, t) == x for t in targets)]
        return self._subgroup_from_raw_elements(kept)

    @cached
    def center(self) -> "FiniteGroup":
        return self.centralizer(self.generators)


class QuotientGroup(FiniteGroup):
    """Coset-action quotient G/N with its projection and a lifting section.

    quotient_by_normal forms it and hands over what its coset walk found.
    Coset 0 is N, and every other coset j was met from an earlier coset
    through one generator of G: links[j] = (parent, generator index).  Each
    coset also keeps its rows (its elements' images of G's base, in _rows),
    and the chain is set, bounded by |G:N|.  A coset's least element is the
    minimum of one batch product, formed by representative() on first use.
    """

    def __init__(self, generators, degree, *, source, kernel, links, by_key, cap):
        super().__init__(generators, degree, cap=cap)
        self.source = source
        self.kernel = kernel
        self._links = links
        self._by_key = by_key
        self._identity_mode = links is None
        self._least = {0: identity_raw(source.degree)}  # coset N holds the identity

    # In identity mode (trivial kernel) the quotient shares the source's
    # heavy caches, its one element list included, since it is the same
    # permutation group.
    def _listed_elements(self):
        if self._identity_mode:
            self._elements = self.source._listed_elements()
            return self._elements
        return super()._listed_elements()

    def _raw_elements(self):
        if self._identity_mode:
            self._elements = self.source._raw_elements()
            return self._elements
        return super()._raw_elements()

    def _raw_classes(self):
        if self._identity_mode:
            return self.source._raw_classes()
        return super()._raw_classes()

    def representative(self, j: int):
        """The least element of coset j, raw, formed on first use and kept.

        The links are followed up to the nearest coset whose least element r
        is formed (N's identity at worst).  Each coset below it on the path
        holds t = r g, g its link's generator, and its least element is the
        least n t over n in N: the minimum of one batch product.
        """
        least, links = self._least, self._links
        path = []
        while j not in least:
            path.append(j)
            j = links[j][0]
        r = least[j]
        gens, nraw = self.source._raw_gens, self.kernel._listed_elements()
        for j in reversed(path):
            r = least[j] = min(mul_all(nraw, mul_raw(r, gens[links[j][1]])))
        return r

    def project(self, g: Permutation) -> Permutation:
        """Image of g under the coset action; kernel elements map to identity.
        Coset N r g is looked up by its least row of base images, as
        quotient_by_normal names it: the rows each coset kept from the walk
        are mapped through g, one map_rows per coset."""
        if not self.source.contains(g):
            raise NotInGroupError("%s is not in the source group" % g)
        if self._identity_mode:
            return g
        return Permutation.from_zero_based(
            self._by_key[min(map_rows(r, g.raw))] for r in self._rows
        )

    def lift(self, q: Permutation) -> Permutation:
        """A source-group representative of the coset permutation q."""
        if not self.contains(q):
            raise NotInGroupError("%s is not in the quotient" % q)
        if self._identity_mode:
            return q
        return Permutation._from_raw(self.representative(q.raw[0]))

    def preimage_gens(self, sub) -> list:
        """Raw generators of the source subgroup that maps onto sub: the kernel
        generators, then a lift of each generator of sub."""
        return self.kernel._raw_gens + [self.lift(g).raw for g in sub.generators]


def quotient_by_normal(G: FiniteGroup, N: FiniteGroup) -> QuotientGroup:
    """The quotient G/N as a permutation group on the right cosets of N.

    N must be normal in G.  With trivial N the group itself is returned in a
    QuotientGroup wrapper (identity projection, G's own chain) rather than
    the regular coset action, whose degree |G| would be useless at our
    sizes.  The cosets are walked on rows of base images alone and form no
    product; each coset keeps its link to the coset it was met from and its
    rows, which project maps, and its least element is left to one batch
    product in representative.  The chain is built here, bounded by |G:N|.
    """
    if N.degree != G.degree:
        raise DegreeMismatchError("subgroup degree differs from parent degree")
    if not G.contains_group(N):
        raise NotInGroupError("subgroup generator outside the parent group")
    if not N.normalized_by(G._raw_gens):
        raise NotNormalError("the given subgroup is not normal in the group")

    if N.is_trivial():
        q = QuotientGroup(
            G.generators, G.degree, source=G, kernel=N, links=None, by_key=None, cap=G.cap
        )
        q._chain = G.chain()
        return q

    gens = G._raw_gens
    # Elements of G differ on G's base, so the least row of base images over
    # a coset names it.  The rows of N r g are those of N r mapped through g.
    rows = [base_rows(N._listed_elements(), G.chain().base)]
    by_key = {min(rows[0]): 0}
    links = [None]
    images = [[] for _ in gens]
    for pos, r_rows in enumerate(rows):  # grows while it is walked
        for gi, g in enumerate(gens):
            g_rows = map_rows(r_rows, g)
            key = min(g_rows)
            j = by_key.get(key)
            if j is None:
                if len(rows) >= G.cap:
                    raise EnumerationCapError(len(rows) + 1, G.cap)
                j = by_key[key] = len(rows)
                links.append((pos, gi))
                rows.append(g_rows)
            images[gi].append(j)
    degree = len(rows)
    # images[gi] was filled row by row in coset order, one entry per coset
    qgens = [Permutation.from_zero_based(img) for img in images]
    q = QuotientGroup(qgens, degree, source=G, kernel=N, links=links, by_key=by_key, cap=G.cap)
    q._rows = rows
    # N fixes every coset, so the image has order at most |G:N|
    q._chain = StabilizerChain.from_raw_generators(degree, q._raw_gens, G.order() // N.order())
    if N.order() * q.order() != G.order():
        raise RuntimeError("coset action has the wrong order; normality check was fooled")
    return q
