"""Deterministic incremental Schreier-Sims stabilizer chains.

A chain holds a base b_0, b_1, ... and, per level i, the strong generators
fixing b_0..b_{i-1} in the order they were filed, with the orbit of b_i.
Each orbit point q keeps the inverse u_q^-1 of its coset representative
(u_q maps b_i to q): sifting only ever multiplies by inverses, so the chain
stores those and makes a representative only when one is asked for.  Orders
come from the product of orbit sizes and membership from sifting, so neither
needs the group enumerated.

The chain only grows (Seress, Permutation Group Algorithms, 4.2).  A new
generator extends each orbit it reaches by breadth-first search from the old
orbit; old entries are never replaced.  Every (point p, generator s) pair
that is not a search edge is queued once at its level and checked with one
product: the Schreier generator u_p s u_q^-1 (q = p^s) is trivial when
s^-1 u_p^-1 == u_q^-1.  Otherwise it is sifted through the levels below, and
a nontrivial residue is filed as a new generator.  The deepest queue is
served first; the chain is complete when all are empty.  Everything iterates
in a fixed order, so chains (and anything derived from them) are
reproducible run to run.

A chain may be given a proven upper bound on the order of the group it
builds, such as |G| for a subgroup of G or |G|_p for a p-subgroup.  The
product of the orbit sizes never exceeds the order of the group generated,
and it equals that order only when each orbit is the whole orbit of the
base point's stabilizer and no nontrivial element fixes every base point.
So once the product reaches the bound the chain is complete: every pair
still queued would give a Schreier generator that sifts to the identity,
and the build drops the queues instead of checking them (the known-order
stop, Seress 4.3).  Those checks would file no generator, so the base,
orbits and strong generators are the ones a full run leaves.
"""

from __future__ import annotations

from itertools import islice

from .permutation import identity_raw, inv_raw, mul_all, mul_raw


class StabilizerChain:
    def __init__(self, degree: int, bound: int | None = None):
        self.degree = degree
        self._bound = bound  # a proven upper bound on the order, or None
        self.base: list[int] = []
        self._gens: list[list] = []  # per level, (s, s^-1) for each generator fixing base[:i]
        self._inverses: list[dict] = []  # per level, orbit point q -> u_q^-1
        self._queues: list[list] = []  # per level, (p, q = p^s, s^-1) pairs to verify
        self._identity = identity_raw(degree)

    @classmethod
    def from_raw_generators(
        cls, degree: int, raw_gens, bound: int | None = None
    ) -> "StabilizerChain":
        chain = cls(degree, bound)
        for g in raw_gens:
            if g != chain._identity:
                chain._insert(g)
        chain._schreier_sims()
        return chain

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for t in self._inverses:
            n *= len(t)
        return n

    def sift(self, p: tuple, start: int = 0) -> tuple:
        """Reduce p through the chain; identity residue means membership."""
        r = p
        base, inverses = self.base, self._inverses
        for lvl in range(start, len(base)):
            d = r[base[lvl]]
            if d != base[lvl]:
                inv = inverses[lvl].get(d)
                if inv is None:
                    return r
                r = mul_raw(r, inv)
        return r

    def contains_raw(self, p: tuple) -> bool:
        if len(p) != self.degree:
            return False
        return self.sift(p) == self._identity

    def elements(self) -> list:
        """Every element of the group, each once, in no particular order.

        Sifting g down the chain writes g = u_k ... u_0 with one coset
        representative per level, so g^-1 = v_0 v_1 ... v_k with v_i = u_i^-1
        taken from the stored inverses, and g^-1 runs over the group as g
        does.  Level 0's inverses are the products v_0 as they stand, the
        stored objects themselves.  Each later level multiplies every product
        so far by each of its inverses but the first, which belongs to the
        base point and is the identity, one batch per orbit point.
        """
        if not self._inverses:
            return [self._identity]
        products = list(self._inverses[0].values())
        for inverses in self._inverses[1:]:
            others = islice(inverses.values(), 1, None)
            products += [y for v in others for y in mul_all(products, v)]
        return products

    # -- construction -------------------------------------------------------

    def extend(self, g: tuple) -> bool:
        """Grow the chain to contain g; False when g is already a member."""
        if self.contains_raw(g):
            return False
        self._insert(g)
        self._schreier_sims()
        return True

    def _insert(self, g: tuple) -> int:
        """File a nontrivial element as a strong generator; returns its level.

        g joins every level whose earlier base points it fixes.  Old orbit
        points meet g, new ones meet every generator, and each meeting that
        does not reach a new point queues its pair.
        """
        base = self.base
        j = 0
        while j < len(base) and g[base[j]] == base[j]:
            j += 1
        if j == len(base):
            b = next(p for p, q in enumerate(g) if p != q)
            base.append(b)
            self._gens.append([])
            self._inverses.append({b: self._identity})
            self._queues.append([])
        pair = (g, inv_raw(g))
        for lvl in range(j + 1):
            gens, inverses, queue = self._gens[lvl], self._inverses[lvl], self._queues[lvl]
            gens.append(pair)
            # below level j, g fixes the base point b, and the pair (b, g) gives g
            # itself, a generator of the next level; it is not queued
            pending = [(p, (pair,)) for p in list(inverses)[1 if lvl < j else 0 :]]
            for p, meets in pending:  # grows as new points are reached
                v = inverses[p]
                for s, s_inv in meets:
                    q = s[p]
                    if q in inverses:
                        queue.append((p, q, s_inv))
                    else:
                        inverses[q] = mul_raw(s_inv, v)  # (u_p s)^-1
                        pending.append((q, gens))
        return j

    def _schreier_sims(self):
        """Verify queued pairs, deepest level first, until no queue is left
        or the order reaches the bound, which drops the pairs still queued."""
        lvl = len(self.base) - 1 if self.order() != self._bound else -1
        while lvl >= 0:
            queue = self._queues[lvl]
            if not queue:
                lvl -= 1
                continue
            p, q, s_inv = queue.pop()
            inverses = self._inverses[lvl]
            h_inv = mul_raw(s_inv, inverses[p])  # (u_p s)^-1
            if h_inv != inverses[q]:
                # sifting u_p s from this level starts with u_p s u_q^-1, the Schreier generator
                r = self.sift(inv_raw(h_inv), lvl)
                if r != self._identity:
                    lvl = self._insert(r)
                    if self.order() == self._bound:
                        lvl = -1
        for queue in self._queues:
            queue.clear()
