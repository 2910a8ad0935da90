"""Finite permutation groups: orders, membership, classes, commutators.

A FiniteGroup is a generator list plus lazy caches (stabilizer chain, element
list, conjugacy classes).  Orders and membership go through the chain and
never enumerate; anything that does enumerate honours the group's cap and
raises EnumerationCapError beyond it.  All derived data is produced in a
deterministic order: element lists are sorted lexicographically by image
table, classes by (size, least member).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    comm_raw,
    conj_raw,
    identity_raw,
    inv_raw,
    mul_raw,
    order_raw,
)

DEFAULT_ENUMERATION_CAP = 200_000


class _RawClass:
    """A conjugacy class: least member as representative, sorted members."""

    __slots__ = ("rep", "members")

    def __init__(self, rep, members):
        self.rep = rep
        self.members = members


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
        self._elem_dict = None
        self._classes = None
        self._cache: dict = {}

    # -- identity and orders ------------------------------------------------

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain.from_raw_generators(self.degree, self._raw_gens)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def with_cap(self, cap: int | None) -> "FiniteGroup":
        """The same group carrying `cap` as its enumeration cap; itself when cap is None."""
        if cap is None:
            return self
        return FiniteGroup(self.generators, degree=self.degree, cap=cap, name=self.name)

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

    def _raw_elements(self) -> list:
        if self._elements is None:
            # the chain knows the order, so a group past the cap is refused
            # before any element is formed
            if self.order() > self.cap:
                raise EnumerationCapError(self.cap, self.cap)
            ident = identity_raw(self.degree)
            seen = {ident}
            frontier = [ident]
            gens = self._raw_gens
            while frontier:
                new_frontier = []
                for x in frontier:
                    for g in gens:
                        y = mul_raw(x, g)
                        if y not in seen:
                            seen.add(y)
                            new_frontier.append(y)
                frontier = new_frontier
            elems = sorted(seen)
            if len(elems) != self.order():
                raise RuntimeError(
                    "enumeration found %d elements but the chain says %d"
                    % (len(elems), self.order())
                )
            self._elements = elems
            self._elem_dict = {x: x for x in elems}
        return self._elements

    def elements(self) -> list[Permutation]:
        return [Permutation._from_raw(r) for r in self._raw_elements()]

    # -- conjugacy classes --------------------------------------------------

    def _raw_classes(self) -> list[_RawClass]:
        if self._classes is None:
            elems = self._raw_elements()
            master = self._elem_dict
            gens = self._raw_gens
            seen = set()
            out = []
            for x in elems:
                if x in seen:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    new_frontier = []
                    for y in frontier:
                        for g in gens:
                            z = master[conj_raw(y, g)]
                            if z not in orbit:
                                orbit.add(z)
                                new_frontier.append(z)
                    frontier = new_frontier
                out.append(_RawClass(x, sorted(orbit)))
                seen |= orbit
            out.sort(key=lambda c: (len(c.members), c.rep))
            self._classes = out
        return self._classes

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        return [
            ConjugacyClass(Permutation._from_raw(c.rep), c.members) for c in self._raw_classes()
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

    def class_rep_orders(self) -> list[int]:
        """Orders of the class representatives, one entry per class."""
        return sorted(order_raw(c.rep) for c in self._raw_classes())

    def exponent(self) -> int:
        import math

        e = 1
        for c in self._raw_classes():
            e = math.lcm(e, order_raw(c.rep))
        return e

    def is_cyclic(self) -> bool:
        n = self.order()
        return any(order_raw(c.rep) == n for c in self._raw_classes())

    def is_elementary_abelian(self) -> bool:
        if not self.is_abelian():
            return False
        if self.is_trivial():
            return True
        from .arith import factorization

        fact = factorization(self.order())
        if len(fact) != 1:
            return False
        p = fact[0][0]
        return all(order_raw(g) == p for g in self._raw_gens)

    # -- commutator machinery -----------------------------------------------

    def _commutator_candidates(self):
        """The set {x^-1 * s : s in class of x}, one representative per class.

        Every commutator [x, y] = x^-1 x^y lies here, and the full commutator
        set is the closure of this under conjugation.
        """
        cands = set()
        for c in self._raw_classes():
            rinv = inv_raw(c.rep)
            for s in c.members:
                cands.add(mul_raw(rinv, s))
        return cands

    def commutator_set(self) -> set[Permutation]:
        key = "commutator_set"
        if key not in self._cache:
            cands = self._commutator_candidates()
            gens = self._raw_gens
            frontier = list(cands)
            while frontier:
                new_frontier = []
                for y in frontier:
                    for g in gens:
                        z = conj_raw(y, g)
                        if z not in cands:
                            cands.add(z)
                            new_frontier.append(z)
                frontier = new_frontier
            self._cache[key] = cands
        return {Permutation._from_raw(t) for t in self._cache[key]}

    def cppo_witness(self) -> CppoWitness | None:
        """First commutator of non-prime-power order in scan order, if any.

        Orders are conjugation invariant, so scanning x^-1 * Cl(x) per class
        covers every commutator order without closing under conjugation.
        """
        key = "cppo_witness"
        if key not in self._cache:
            witness = None
            for c in self._raw_classes():
                rinv = inv_raw(c.rep)
                seen = set()
                for s in c.members:
                    w = mul_raw(rinv, s)
                    if w in seen:
                        continue
                    seen.add(w)
                    o = order_raw(w)
                    if not is_prime_power(o):
                        g = self._class_conjugator(c.rep, s)
                        witness = CppoWitness(
                            commutator=Permutation._from_raw(w),
                            order=o,
                            left=Permutation._from_raw(c.rep),
                            right=Permutation._from_raw(g),
                        )
                        break
                if witness is not None:
                    break
            self._cache[key] = witness
        return self._cache[key]

    def is_cppo(self) -> bool:
        """True when every commutator has prime-power order (1 included)."""
        return self.cppo_witness() is None

    def eppo_witness(self) -> EppoWitness | None:
        for c in self._raw_classes():
            o = order_raw(c.rep)
            if not is_prime_power(o):
                return EppoWitness(element=Permutation._from_raw(c.rep), order=o)
        return None

    def is_eppo(self) -> bool:
        """True when every element has prime-power order."""
        return self.eppo_witness() is None

    # -- subgroup constructions ---------------------------------------------

    def subgroup(self, perms, name=None) -> "Subgroup":
        for g in perms:
            if not self.contains(g):
                raise NotInGroupError("%s is not an element here" % g)
        inner = FiniteGroup(list(perms), degree=self.degree, cap=self.cap, name=name)
        return Subgroup(self, inner)

    def _subgroup_raw(self, raw_gens, name=None) -> "Subgroup":
        inner = FiniteGroup(
            [Permutation._from_raw(r) for r in raw_gens],
            degree=self.degree,
            cap=self.cap,
            name=name,
        )
        return Subgroup(self, inner)

    def trivial_subgroup(self) -> "Subgroup":
        return self._subgroup_raw([])

    def _closure_raw(self, raw_seeds, raw_conjugators) -> "Subgroup":
        """Smallest subgroup containing the seeds and closed under the conjugators.

        One chain grows element by element; the seeds and conjugates that
        were new when met become the generators, in breadth-first order.
        """
        chain = StabilizerChain(self.degree)
        gens = [s for s in raw_seeds if chain.extend(s)]
        for x in gens:
            for c in raw_conjugators:
                y = conj_raw(x, c)
                if chain.extend(y):
                    gens.append(y)
        sub = self._subgroup_raw(gens)
        sub.group._chain = chain
        return sub

    def _subgroup_from_raw_elements(self, raw_elems) -> "Subgroup":
        """Reduce an element collection to a short generator list."""
        return self._closure_raw(sorted(raw_elems), ())

    def normal_closure(self, perms) -> "Subgroup":
        """Smallest normal subgroup of this group containing the given elements."""
        seeds = []
        for g in perms:
            if not self.contains(g):
                raise NotInGroupError("%s is not an element here" % g)
            if not g.is_identity():
                seeds.append(g.raw)
        return self._normal_closure_raw(seeds)

    def _normal_closure_raw(self, raw_seeds) -> "Subgroup":
        return self._closure_raw(raw_seeds, self._raw_gens)

    def derived_subgroup(self) -> "Subgroup":
        key = "derived"
        if key not in self._cache:
            gens = self._raw_gens
            ident = identity_raw(self.degree)
            seeds = set()
            for i, a in enumerate(gens):
                for b in gens[i + 1 :]:
                    c = comm_raw(a, b)
                    if c != ident:
                        seeds.add(c)
            derived = self._normal_closure_raw(sorted(seeds))
            # A perfect group is its own derived subgroup; handing back the
            # group itself keeps one copy of its elements, classes and radical.
            if derived.order() == self.order():
                derived = Subgroup(self, self)
            self._cache[key] = derived
        return self._cache[key]

    def centralizer(self, perms) -> "Subgroup":
        """Pointwise centralizer of the given elements, by enumeration filter."""
        targets = []
        for g in perms:
            if g.degree != self.degree:
                raise DegreeMismatchError("centralizer target has the wrong degree")
            targets.append(g.raw)
        kept = [
            x
            for x in self._raw_elements()
            if all(mul_raw(x, t) == mul_raw(t, x) for t in targets)
        ]
        return self._subgroup_from_raw_elements(kept)

    def center(self) -> "Subgroup":
        key = "center"
        if key not in self._cache:
            self._cache[key] = self.centralizer(self.generators)
        return self._cache[key]

    def quotient(self, normal) -> "QuotientGroup":
        return quotient_by_normal(self, normal)


class Subgroup:
    """A subgroup remembered together with its ambient parent group."""

    __slots__ = ("parent", "group")

    def __init__(self, parent: FiniteGroup, group: FiniteGroup):
        if parent.degree != group.degree:
            raise DegreeMismatchError("subgroup degree differs from parent degree")
        for g in group._raw_gens:
            if not parent.chain().contains_raw(g):
                raise NotInGroupError("subgroup generator outside the parent group")
        self.parent = parent
        self.group = group

    @property
    def generators(self) -> list[Permutation]:
        return self.group.generators

    @property
    def degree(self) -> int:
        return self.group.degree

    def order(self) -> int:
        return self.group.order()

    def elements(self) -> list[Permutation]:
        return self.group.elements()

    def contains(self, g: Permutation) -> bool:
        return self.group.contains(g)

    def is_trivial(self) -> bool:
        return self.group.is_trivial()

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return self.group.contains_group(other.group)

    def same_subgroup_as(self, other: "Subgroup") -> bool:
        return self.group.same_group_as(other.group)

    def __repr__(self):
        return "Subgroup(order=%d, degree=%d)" % (self.order(), self.degree)


class QuotientGroup(FiniteGroup):
    """Coset-action quotient G/N with its projection and a lifting section."""

    def __init__(self, generators, degree, *, source, kernel, reps, index, cap, name=None):
        super().__init__(generators, degree, cap=cap, name=name)
        self.source = source
        self.kernel = kernel
        self._reps = reps
        self._index = index
        self._identity_mode = reps is None

    # In identity mode (trivial kernel) the quotient shares the source's
    # heavy caches, since it is the same permutation group.
    def chain(self):
        if self._identity_mode:
            return self.source.chain()
        return super().chain()

    def _raw_elements(self):
        if self._identity_mode:
            elems = self.source._raw_elements()
            self._elements = elems
            self._elem_dict = self.source._elem_dict
            return elems
        return super()._raw_elements()

    def _raw_classes(self):
        if self._identity_mode:
            return self.source._raw_classes()
        return super()._raw_classes()

    def _canonical(self, raw):
        nraw = self.kernel.group._raw_elements()
        return min(mul_raw(n, raw) for n in nraw)

    def project(self, g: Permutation) -> Permutation:
        """Image of g under the coset action; kernel elements map to identity."""
        if not self.source.contains(g):
            raise NotInGroupError("%s is not in the source group" % g)
        if self._identity_mode:
            return g
        raw = g.raw
        return Permutation.from_zero_based(
            self._index[self._canonical(mul_raw(r, raw))] for r in self._reps
        )

    def lift(self, q: Permutation) -> Permutation:
        """A source-group representative of the coset permutation q."""
        if not self.contains(q):
            raise NotInGroupError("%s is not in the quotient" % q)
        if self._identity_mode:
            return q
        return Permutation._from_raw(self._reps[q.raw[0]])

    def preimage_gens(self, sub) -> list:
        """Raw generators of the source subgroup that maps onto sub: the kernel
        generators, then a lift of each generator of sub."""
        return self.kernel.group._raw_gens + [self.lift(g).raw for g in sub.group.generators]


def quotient_by_normal(G: FiniteGroup, N, name=None) -> QuotientGroup:
    """The quotient G/N as a permutation group on the right cosets of N.

    N must be normal in G.  With trivial N the group itself is returned in a
    QuotientGroup wrapper (identity projection) rather than the regular coset
    action, whose degree |G| would be useless at our sizes.
    """
    if isinstance(N, Subgroup):
        ngroup = N.group
        nsub = N if N.parent is G else Subgroup(G, ngroup)
    else:
        ngroup = N
        nsub = Subgroup(G, ngroup)
    if not ngroup.normalized_by(G._raw_gens):
        raise NotNormalError("the given subgroup is not normal in the group")

    if ngroup.is_trivial():
        return QuotientGroup(
            G.generators,
            G.degree,
            source=G,
            kernel=nsub,
            reps=None,
            index=None,
            cap=G.cap,
            name=name,
        )

    nraw = ngroup._raw_elements()
    gens = G._raw_gens
    start = nraw[0]  # canonical representative of the coset N itself
    reps = [start]
    index = {start: 0}
    images = [[] for _ in gens]
    pos = 0
    while pos < len(reps):
        r = reps[pos]
        for gi, g in enumerate(gens):
            t = mul_raw(r, g)
            c = min(mul_raw(n, t) for n in nraw)
            j = index.get(c)
            if j is None:
                if len(reps) >= G.cap:
                    raise EnumerationCapError(len(reps) + 1, G.cap)
                j = len(reps)
                index[c] = j
                reps.append(c)
            images[gi].append(j)
        pos += 1
    degree = len(reps)
    # images[gi] was filled row by row in rep order, one entry per coset
    qgens = [Permutation.from_zero_based(img) for img in images]
    q = QuotientGroup(
        [g for g in qgens] or [Permutation.identity(degree)],
        degree,
        source=G,
        kernel=nsub,
        reps=reps,
        index=index,
        cap=G.cap,
        name=name,
    )
    if ngroup.order() * q.order() != G.order():
        raise RuntimeError("coset action has the wrong order; normality check was fooled")
    return q
