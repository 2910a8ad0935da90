"""Deterministic Schreier-Sims stabilizer chains.

A chain holds a base b_0, b_1, ... and, per level i, the strong generators
fixing b_0..b_{i-1} together with a transversal of the orbit of b_i.  Orders
come from the product of orbit sizes and membership from sifting, so neither
needs the group enumerated.  Everything iterates in a fixed order, which makes
chains (and anything derived from them) reproducible run to run.
"""

from __future__ import annotations

from .permutation import identity_raw, inv_raw, mul_raw


class StabilizerChain:
    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        # _gens_at[i] holds generators whose natural level is exactly i,
        # i.e. they fix base[:i] but move base[i] (or extend the base).
        self._gens_at: list[list[tuple]] = []
        self._transversals: list[dict[int, tuple]] = []
        self._identity = identity_raw(degree)

    @classmethod
    def from_raw_generators(cls, degree: int, raw_gens) -> "StabilizerChain":
        chain = cls(degree)
        for g in raw_gens:
            if g != chain._identity:
                chain._insert(g)
        chain._schreier_sims()
        return chain

    # -- queries ------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for t in self._transversals:
            n *= len(t)
        return n

    def sift(self, p: tuple, start: int = 0) -> tuple:
        """Reduce p through the chain; identity residue means membership."""
        r = p
        for lvl in range(start, len(self.base)):
            d = r[self.base[lvl]]
            u = self._transversals[lvl].get(d)
            if u is None:
                return r
            r = mul_raw(r, inv_raw(u))
        return r

    def contains_raw(self, p: tuple) -> bool:
        if len(p) != self.degree:
            return False
        return self.sift(p) == self._identity

    def coset_representative(self, level: int, point: int) -> tuple | None:
        return self._transversals[level].get(point)

    def orbit_sizes(self) -> list[int]:
        return [len(t) for t in self._transversals]

    # -- construction -------------------------------------------------------

    def extend(self, g: tuple) -> bool:
        """Grow the chain to contain g; False when g is already a member."""
        if self.contains_raw(g):
            return False
        self._insert(g)
        self._schreier_sims()
        return True

    def _level_gens(self, i: int) -> list[tuple]:
        out = []
        for j in range(i, len(self._gens_at)):
            out.extend(self._gens_at[j])
        return out

    def _rebuild_transversal(self, i: int):
        base_pt = self.base[i]
        gens = self._level_gens(i)
        trans = {base_pt: self._identity}
        frontier = [base_pt]
        while frontier:
            new_frontier = []
            for p in frontier:
                u = trans[p]
                for s in gens:
                    q = s[p]
                    if q not in trans:
                        trans[q] = mul_raw(u, s)
                        new_frontier.append(q)
            frontier = new_frontier
        self._transversals[i] = trans

    def _insert(self, g: tuple) -> int:
        """File a nontrivial element as a strong generator; returns its level."""
        i = 0
        while i < len(self.base) and g[self.base[i]] == self.base[i]:
            i += 1
        if i == len(self.base):
            moved = min(p for p in range(self.degree) if g[p] != p)
            self.base.append(moved)
            self._gens_at.append([])
            self._transversals.append({})
        self._gens_at[i].append(g)
        for j in range(i + 1):
            self._rebuild_transversal(j)
        return i

    def _schreier_sims(self):
        if not self.base:
            return
        i = len(self.base) - 1
        while i >= 0:
            inserted = self._verify_level(i)
            if inserted is None:
                i -= 1
            else:
                i = inserted

    def _verify_level(self, i: int) -> int | None:
        """Sift every Schreier generator of level i; file the first failure."""
        trans = self._transversals[i]
        gens = self._level_gens(i)
        for p in list(trans):
            u = trans[p]
            for s in gens:
                q = s[p]
                schreier = mul_raw(mul_raw(u, s), inv_raw(trans[q]))
                r = self.sift(schreier, start=i + 1)
                if r != self._identity:
                    return self._insert(r)
        return None
