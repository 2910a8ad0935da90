"""Towers of p-subgroups and Fitting-height certification.

A tower is a sequence of stages (p_i, P_i): each P_i a p_i-group, earlier
stages normalizing later ones, adjacent primes distinct, and every stage
acting nontrivially "effectively": writing K_h = 1 and, going up,
K_i = { x in P_i : [P_{i+1}, x] <= K_{i+1} }, the groups P_i / K_i must all
be nontrivial.  The maximum height of a tower of a soluble group equals its
Fitting height; find_max_tower certifies that equality constructively.

Stages are small p-groups, so kernels are computed on element lists by one
bottom-up recurrence, _kernel_sets, which a Tower runs once and keeps, as it
keeps its structural check: each step reads K_i off the conjugation tables
of P_i on the element list of P_{i+1}.  P_i normalizes P_{i+1}, so a full
K_{i+1} is carried up as a full K_i with no table, and item 3 is one test of
the top kernel, _acts_trivially, shared by validate_tower and the probe's
leaves.  Validation, kernels() and the irreducibility check read one run.

The exhaustive search behind tower_probe works on indices into G's sorted
element list, so it forms no permutation and builds no group or stabilizer
chain until it has a tower to return.  Subgroups are index sets, found by
cyclic extension over the Sylow group's multiplication tables, each join
closed coset by coset by _close_set; since the indices follow element
order, sorting index sets sorts the element sets alike.  The candidates
are indexed once, and one conjugation_tables call per probe gives the
tables of all their generators; a generator's masks, of the candidates it
normalizes and of those it centralizes, are filled on its first use.  A
tower it returns has still passed validate_tower.

The probe searches up to conjugacy, with no appeal to Fitting height.
Adjacent stages have distinct primes and every stage is nontrivial, so a
group of prime-power order has no tower above height one, and the probe
says so before listing a candidate.  Conjugation by an element of G maps
towers to towers and the candidates onto themselves, so the first tower
the full search would find has the least top stage of its class: a lesser
conjugate would top the conjugate tower, found earlier.  The top stage is
therefore drawn from one candidate per class, and the answer is the same.
The classes are the orbits of the candidates' conjugation tables, kept
from the closure that adds the conjugates to them, under the sweep that
gives G's element classes (orbits), which hands back the candidate indices
in index order: each top stage is an orbit's first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property

from .arith import factorization
from .errors import InsolubleError, TowerDefectError
from .group import FiniteGroup, _commutator_seeds, cached, quotient_by_normal
from .permutation import (
    Permutation,
    comm_raw,
    conjugation_tables,
    identity_raw,
    mul_raw,
    multiplication_tables,
    orbits,
)
from .structure import (
    _element_orders,
    frattini_of_p_group,
    is_soluble,
    p_core,
    sylow_subgroup,
    upper_fitting_series,
)

# tower_probe refuses groups above this order, and find_max_tower falls
# back on it only up to this order
PROBE_ORDER_CAP = 500


class Tower:
    """An ordered list of (prime, subgroup) stages inside one ambient group."""

    def __init__(self, ambient: FiniteGroup, stages):
        self.ambient = ambient
        self.stages = [(int(p), sub) for p, sub in stages]
        self._kernels = None

    @property
    def height(self) -> int:
        return len(self.stages)

    @cached_property
    def _defect(self):
        """Items 1, 2 and 4: (item, message) for the first failure, or None;
        checked once per tower, like its kernels."""
        for idx, (p, sub) in enumerate(self.stages):
            if not self.ambient.contains_group(sub):
                return 2, "stage %d does not lie in the ambient group" % (idx + 1)
            n = sub.order()
            if n == 1:
                return 1, "stage %d is trivial" % (idx + 1)
            fact = factorization(n)
            if len(fact) != 1 or fact[0][0] != p:
                return 1, "stage %d is not a %d-group (order %d)" % (idx + 1, p, n)
        for i in range(len(self.stages)):
            for j in range(i + 1, len(self.stages)):
                upper = self.stages[i][1]
                lower = self.stages[j][1]
                if not lower.normalized_by(upper._raw_gens):
                    return 2, "stage %d does not normalize stage %d" % (i + 1, j + 1)
        for i in range(len(self.stages) - 1):
            if self.stages[i][0] == self.stages[i + 1][0]:
                return 4, "stages %d and %d share the prime %d" % (
                    i + 1,
                    i + 2,
                    self.stages[i][0],
                )
        return None

    @cached_property
    def _kernel_positions(self):
        """The stages' sorted element lists and their kernel sets, bottom up,
        from one _kernel_sets run kept like _defect; a defective tower has none."""
        if self._defect is not None:
            raise TowerDefectError("item %d: %s" % self._defect)
        bottom_up = [sub._raw_elements() for _, sub in reversed(self.stages)]
        return bottom_up, _kernel_sets(bottom_up, self.ambient.chain().base)

    def kernels(self):
        """K_i per stage, top down, formed from the kept kernel sets."""
        if self._kernels is None:
            bottom_up, sets = self._kernel_positions
            self._kernels = [
                self.ambient._subgroup_from_raw_elements([members[j] for j in k])
                for members, k in zip(reversed(bottom_up), reversed(sets))
            ]
        return self._kernels

    def __repr__(self):
        return "Tower(height=%d, primes=%s)" % (self.height, [p for p, _ in self.stages])


@dataclass
class TowerValidity:
    valid: bool
    items: dict
    detail: str | None = None


@dataclass
class IrreducibilityReport:
    verdict: str  # "yes", or "no" with the first failed condition
    details: list = field(default_factory=list)


def effective_quotients(t: Tower) -> list:
    """The stage actions P_i / K_i as explicit coset-action groups."""
    return [quotient_by_normal(sub, k) for (_, sub), k in zip(t.stages, t.kernels())]


def validate_tower(t: Tower) -> TowerValidity:
    items = {1: True, 2: True, 3: True, 4: True}
    if t._defect is not None:
        item, message = t._defect
        items[item] = False
        # item 3 is unknowable without the structure; leave it optimistic
        return TowerValidity(False, items, "item %d: %s" % (item, message))
    if _acts_trivially(*t._kernel_positions):
        items[3] = False
        return TowerValidity(False, items, "item 3: stage 1 acts trivially below it")
    return TowerValidity(True, items)


# ---------------------------------------------------------------------------
# irreducibility


def _closure_under_conjugation(ambient, seed_raws, conjugator_raws):
    """Smallest subgroup containing the seeds closed under the given conjugators."""
    return ambient._closure_raw(seed_raws, conjugator_raws)


def _commutator_span(ambient, action_raws, target: FiniteGroup):
    """[A, T]: generated by commutators of the action gens with target elements,
    closed under conjugation by both sides.  Lands inside the target when the
    action gens normalize it."""
    seeds = _commutator_seeds(ambient.degree, itertools.product(action_raws, target._raw_gens))
    return _closure_under_conjugation(ambient, seeds, list(action_raws) + target._raw_gens)


def _elementary_abelian_subgroups(Q: FiniteGroup, p: int):
    """The nontrivial elementary abelian p-subgroups of Q as (index set, raw
    generators), lazily, in _p_subgroup_sets order, each rank formed only
    for a caller that reads past the rank below.

    Those of order p come first, each <x> met at its least element x of
    order p, read off the element orders.  A subgroup E of the next rank is
    joined with each y of order p that commutes with E's generators; E has
    prime index in the join, so y is skipped once an earlier join from E
    holds it.  Each rank is sorted by _by_size, and the ranks stop where
    p |E| no longer divides |Q|.
    """
    elems = Q._raw_elements()
    position = Q._element_position()
    order_p = [i for i, o in enumerate(_element_orders(Q)) if o == p]
    rank, seen = {}, set()
    for i in order_p:
        if i not in seen:
            members, y = {0}, elems[i]  # the identity sorts first
            for _ in range(p - 1):
                members.add(position(y))
                y = mul_raw(y, elems[i])
            seen |= members
            members = frozenset(members)
            rank[members] = [i]
            yield members, [elems[i]]
    if not rank or Q.order() % p**2:
        return
    # every element of an elementary abelian subgroup but the identity has order p
    rows = _right_rows(elems, Q.chain().base, order_p)
    size = p
    while rank and Q.order() % (size * p) == 0:
        grown = {}
        for members, gens in rank.items():
            tried = set(members)
            for y in order_p:
                if y not in tried and all(rows[y][g] == rows[g][y] for g in gens):
                    key = _close_set(members, [y], rows)
                    tried |= key
                    grown.setdefault(key, gens + [y])
        rank = dict(_by_size(grown))
        for members, gens in rank.items():
            yield members, [elems[x] for x in gens]
        size *= p


def _failed_conditions(t: Tower):
    """The failed irreducibility conditions of a valid tower, as details."""
    stages, ambient = t.stages, t.ambient
    kernels = t.kernels()
    quotients = effective_quotients(t)

    # (2) the top stage is cyclic with effective action of prime order
    if not stages[0][1].is_cyclic():
        yield "item 2: the top stage is not cyclic"
    if quotients[0].order() != stages[0][0]:
        yield "item 2: the top stage acts with order %d, not prime" % quotients[0].order()

    # (1) frattini conditions on the effective stage
    frattinis = []
    for i, ((p, _), q) in enumerate(zip(stages, quotients)):
        frat = frattini_of_p_group(q)
        frattinis.append(frat)
        if frattini_of_p_group(frat).order() != 1:
            yield "item 1: stage %d has a frattini subgroup that is not elementary" % (i + 1)
        if not q.center().contains_group(frat):
            yield "item 1: stage %d frattini subgroup is not central" % (i + 1)
        if p != 2 and q.exponent() != p:
            yield "item 1: stage %d has exponent %d, wanted %d" % (i + 1, q.exponent(), p)
        if i:
            lifts = [q.lift(f).raw for f in frat.generators]
            if not all(
                kernels[i].chain().contains_raw(comm_raw(f, g))
                for f in lifts
                for g in stages[i - 1][1]._raw_gens
            ):
                detail = "item 1: stage %d does not centralize the frattini subgroup of stage %d"
                yield detail % (i, i + 1)

    # (3) an elementary abelian chunk of the stage above covers this stage
    for i in range(1, len(stages)):
        p_above, q_above = stages[i - 1][0], quotients[i - 1]
        sub, k_gens = stages[i][1], kernels[i]._raw_gens

        def covers(action_raws):
            span = _commutator_span(ambient, action_raws, sub)
            return ambient._subgroup_raw(span._raw_gens + k_gens).order() == sub.order()

        if not covers([q_above.lift(g).raw for g in q_above.generators]):
            yield "item 3: even the whole stage %d fails to cover stage %d" % (i, i + 1)
        if not any(
            covers([q_above.lift(Permutation._from_raw(c)).raw for c in gens])
            for _, gens in _elementary_abelian_subgroups(q_above, p_above)
        ):
            yield "item 3: no elementary abelian subgroup above covers stage %d" % (i + 1)

    # (4) invariant closures of elements outside the frattini preimage fill the stage
    conjugators = []
    for i, ((_, sub), q, frat) in enumerate(zip(stages, quotients, frattinis)):
        pre_chain = ambient._subgroup_raw(q.preimage_gens(frat)).chain()
        if any(
            _closure_under_conjugation(ambient, [x], conjugators).order() != sub.order()
            for x in sub._raw_elements()
            if not pre_chain.contains_raw(x)
        ):
            yield (
                "item 4: stage %d has a proper invariant subgroup outside the frattini preimage"
                % (i + 1)
            )
        conjugators += sub._raw_gens


def is_irreducible_tower(t: Tower) -> IrreducibilityReport:
    """Check the four irreducibility conditions on a valid tower in one
    ordered pass (item 2, item 1 stage by stage, item 3, item 4) that forms
    each stage's effective quotient and frattini subgroup once: "no" with
    the first failed condition, "yes" otherwise."""
    report = validate_tower(t)
    if not report.valid:
        raise TowerDefectError("irreducibility applies to valid towers only: %s" % report.detail)
    detail = next(_failed_conditions(t), None)
    return IrreducibilityReport("yes") if detail is None else IrreducibilityReport("no", [detail])


# ---------------------------------------------------------------------------
# quotient image of a tower


def quotient_tower(t: Tower, q) -> Tower:
    """The image of the stages under a quotient projection of the ambient group."""
    stages = []
    for p, sub in t.stages:
        gens = [q.project(g) for g in sub.generators]
        stages.append((p, q.subgroup([g for g in gens if not g.is_identity()] or gens)))
    return Tower(q, stages)


# ---------------------------------------------------------------------------
# searching for towers


def _right_rows(elems, base, xs):
    """Index -> its right-multiplication table, for the indices xs:
    rows[x][j] is the index of elems[j] * elems[x]."""
    return dict(zip(xs, multiplication_tables(elems, base, [elems[x] for x in xs])))


def _close_set(members, gens, rows):
    """The subgroup generated by the index set `members` of a subgroup H and
    the indices `gens`, as a frozenset of indices; rows[z] is z's
    right-multiplication table, for every z in the result.

    The result is a union of right cosets H z, one map of rows[z] over H
    each, so the walk runs over coset representatives: a coset H r is
    joined to H r g for each generator g.
    """
    seen = set(members)
    subgroup = list(members)
    reps = subgroup[:1]
    for r in reps:
        for g in gens:
            z = rows[g][r]
            if z not in seen:
                seen.update(map(rows[z].__getitem__, subgroup))
                reps.append(z)
    return frozenset(seen)


def _kernel_set(members, lower, below, base):
    """The positions j in members with [y, members[j]] in below for every y
    in lower, as a frozenset.

    members and lower are the sorted element lists of a stage P_i and of the
    stage P_{i+1} below it, below is K_{i+1} as positions in lower, and the
    elements of lower differ on base.  [y, x] lies in below exactly when y^x
    lies in the left coset y below, so each y is labelled with the least
    position in its left coset, and x passes when conjugation by x keeps
    every label.  P_i normalizes every stage below it (item 2), so it
    normalizes P_{i+1} and K_{i+1}: the conjugates lie in lower, and the
    members that pass form a subgroup, K_i.  When K_{i+1} is trivial each
    coset is one element, so the labels are the positions themselves.
    """
    if len(below) == 1:
        label = list(range(len(lower)))
    else:
        label = list(map(min, zip(*multiplication_tables(lower, base, [lower[b] for b in below]))))
    moves = conjugation_tables(lower, base, members)
    return frozenset(j for j, t in enumerate(moves) if list(map(label.__getitem__, t)) == label)


def _kernel_sets(bottom_up, base) -> list:
    """K_h, ..., K_1 as position sets, for the stages' sorted element lists
    bottom_up from the bottom one up: K_h = 1 is {0}, the identity sorting
    first, and K_i comes from K_{i+1} by _kernel_set, or is all of P_i with
    no table when K_{i+1} is full, since P_i normalizes P_{i+1}."""
    kernels = [frozenset([0])] if bottom_up else []
    for lower, members in zip(bottom_up, bottom_up[1:]):
        k = kernels[-1]
        if len(k) == len(lower):
            kernels.append(frozenset(range(len(members))))
        else:
            kernels.append(_kernel_set(members, lower, k, base))
    return kernels


def _acts_trivially(bottom_up, kernels) -> bool:
    """Item 3 fails: K_1 is all of P_1, for bottom_up and kernels as in
    _kernel_sets.  A full kernel is carried up, so this tests every stage;
    a tower with no stages passes."""
    return bool(kernels) and len(kernels[-1]) == len(bottom_up[-1])


def _by_size(sets):
    """The (index set, generator list) items of a dict, by size and then by
    sorted indices, which is the order of the sorted element sets."""
    return sorted(sets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def _cyclic_extension(xs, rows):
    """Every subgroup of the group whose element indices are xs, in element
    order, as a dict from index set to generator index list.

    Each subgroup H of the frontier is joined with each x of xs in turn; x is
    skipped once the coset Hx of an earlier x has been tried, since both give
    the same join.  rows[x] is x's right-multiplication table.  The identity
    sorts first, so its index is 0.
    """
    trivial = frozenset([0])
    seen = {trivial: []}
    frontier = [(trivial, [])]
    while frontier:
        new_frontier = []
        for members, gens in frontier:
            tried = set(members)
            for x in xs:
                if x in tried:
                    continue
                tried.update(map(rows[x].__getitem__, members))
                grown_gens = gens + [x]
                key = _close_set(members, grown_gens, rows)
                if key not in seen:
                    seen[key] = grown_gens
                    new_frontier.append((key, grown_gens))
        frontier = new_frontier
    return seen


def _p_subgroup_index_sets(G: FiniteGroup, p: int, conj):
    """_p_subgroup_sets as (index set, generator indices) pairs over G's
    sorted elements, and tables moves with moves[g][i] the position of pair
    i's conjugate under conj[g], the conjugation table of G's g-th
    generator.  Only the Sylow group's elements get right-multiplication
    tables."""
    elems = G._raw_elements()
    base = G.chain().base
    xs = sorted(map(G._element_position(), sylow_subgroup(G, p)._raw_elements()))
    found = _cyclic_extension(xs, _right_rows(elems, base, xs))
    pool = {k: gens for k, gens in _by_size(found) if len(k) > 1}
    queue = list(pool.items())
    images = {}
    for members, gens in queue:
        images[members] = row = []
        for t in conj:
            key = frozenset(map(t.__getitem__, members))
            row.append(key)
            if key not in pool:
                conj_gens = [t[x] for x in gens]
                pool[key] = conj_gens
                queue.append((key, conj_gens))
    pairs = _by_size(pool)
    position = {k: i for i, (k, _) in enumerate(pairs)}
    moves = list(zip(*(map(position.__getitem__, images[k]) for k, _ in pairs)))
    return pairs, moves


def _p_subgroup_sets(G: FiniteGroup, p: int):
    """All nontrivial p-subgroups of G as (index set, raw generators), the
    indices into G's sorted elements, sorted by size then by sorted indices:
    the subgroups of one Sylow group plus their conjugates under the group
    generators."""
    elems = G._raw_elements()
    conj = conjugation_tables(elems, G.chain().base, G._raw_gens)
    return [(k, [elems[x] for x in gens]) for k, gens in _p_subgroup_index_sets(G, p, conj)[0]]


def tower_probe(G: FiniteGroup, min_height: int):
    """Bounded exhaustive search for a valid tower of at least the given height.

    Stage candidates are the p-subgroups of G, as sets of element indices,
    indexed once: primes in factorization order, then subgroups by size and
    sorted elements.  The search fills stages top-down in that order, and
    the first valid tower wins.  Two bitmasks decide which candidates may go
    below a stage: the ones it normalizes (item 2), and among those the ones
    it does not centralize.  They are the AND of masks kept per generator,
    of the candidates whose generators it maps into the candidate and of
    those whose generators it fixes, read off its conjugation table over
    every candidate.  A stage that centralizes the stage below has K_i = P_i
    and fails item 3 whatever lies lower, so only the second mask is offered
    directly below.  A full-height leaf checks item 3 by _acts_trivially on
    its top kernel, as validate_tower does; only a leaf that passes becomes
    a Tower, which keeps the leaf's kernel sets, and it is returned only if
    validate_tower accepts it.

    Above height one a group with a single prime divisor answers None
    before any candidate is listed, and the top stage is offered only the
    least candidate of each conjugacy class, the least of its orbit under
    the candidates' conjugation tables; the module docstring says why
    neither changes the answer.  Deeper stages are searched in full: the
    top stage normalizes each of them, so conjugating by its elements
    moves none.

    Intended as a falsification oracle on small groups, not a production
    search; groups above PROBE_ORDER_CAP are refused.
    """
    if G.order() > PROBE_ORDER_CAP:
        raise TowerDefectError(
            "tower probe is limited to groups of order at most %d" % PROBE_ORDER_CAP
        )
    primes = [p for p, _ in factorization(G.order())]
    if min_height <= 0:
        return Tower(G, [])
    if min_height > 1 and len(primes) < 2:
        return None  # adjacent stages need distinct primes
    elems = G._raw_elements()
    base = G.chain().base
    gen_conj = conjugation_tables(elems, base, G._raw_gens)
    cands = []
    moves = [[] for _ in gen_conj]
    for p in primes:
        pairs, tables = _p_subgroup_index_sets(G, p, gen_conj)
        # conjugation keeps the prime, so each prime's tables shift by its offset
        for row, t in zip(moves, tables):
            row.extend(i + len(cands) for i in t)
        cands += [(p, members, gens) for members, gens in pairs]
    tops = sum(1 << orbit[0] for orbit in orbits(moves, range(len(cands))))
    movers = sorted({x for _, _, gens in cands for x in gens})
    conj = dict(zip(movers, conjugation_tables(elems, base, [elems[x] for x in movers])))
    prime_bits = {p: 0 for p in primes}
    for i, (p, _, _) in enumerate(cands):
        prime_bits[p] |= 1 << i

    @cache
    def masks(x):
        """The candidates mover x normalizes, and those it centralizes."""
        t = conj[x]
        norm = fixed = 0
        for j, (_, members, gens) in enumerate(cands):
            images = [t[y] for y in gens]
            if members.issuperset(images):
                norm |= 1 << j
                if images == gens:
                    fixed |= 1 << j
        return norm, fixed

    def below_rows(i):
        """The candidates i normalizes, and those it also moves."""
        norm = fixed = -1  # every bit set
        for x in cands[i][2]:
            x_norm, x_fixed = masks(x)
            norm &= x_norm
            fixed &= x_fixed
        return norm, norm & ~fixed

    def extend(stages, normed):
        """normed: the candidates that every stage above the last normalizes."""
        if len(stages) == min_height:
            bottom_up = [[elems[j] for j in sorted(cands[i][1])] for i in reversed(stages)]
            kernels = _kernel_sets(bottom_up, base)
            if _acts_trivially(bottom_up, kernels):
                return None
            t = Tower(
                G, [(cands[i][0], G._subgroup_raw([elems[x] for x in cands[i][2]])) for i in stages]
            )
            # the leaf's element lists and kernel sets are the tower's own
            t._kernel_positions = bottom_up, kernels
            return t if validate_tower(t).valid else None
        if not stages:
            allowed = tops
        else:
            last = stages[-1]
            norm, moved = below_rows(last)
            normed &= norm
            allowed = normed & moved & ~prime_bits[cands[last][0]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            found = extend(stages + [low.bit_length() - 1], normed)
            if found is not None:
                return found
        return None

    return extend([], (1 << len(cands)) - 1)


@cached
def find_max_tower(G: FiniteGroup):
    """A tower whose height equals the Fitting height, with that height.

    Stages are assembled bottom-up along the upper Fitting series: the
    bottom stage is a core O_q(G), and each later stage is a Sylow subgroup
    of the pulled-back q-core of the quotient, conjugated until it
    normalizes everything chosen so far.  Prime assignments, one prime of
    each factor of the series, are tried in product order, skipping those
    with equal adjacent primes; if none produces a valid tower the bounded
    exhaustive probe has the last word.
    """
    if not is_soluble(G):
        raise InsolubleError("towers certify fitting height for soluble groups only")
    series = upper_fitting_series(G)
    h = len(series.terms) - 1
    if h == 0:
        return 0, Tower(G, [])
    factor_primes = [
        [p for p, _ in factorization(here.order() // below.order())]
        for below, here in zip(series.terms, series.terms[1:])
    ]
    for primes in itertools.product(*factor_primes):
        if any(a == b for a, b in zip(primes, primes[1:])):
            continue
        stages_bottom_up = [(primes[0], p_core(G, primes[0]))]
        for lvl, p in enumerate(primes[1:], 1):
            q = series.quotients[lvl]
            u = G._subgroup_raw(sorted(set(q.preimage_gens(p_core(q, p)))))
            stage = _pick_stage(G, u, p, stages_bottom_up)
            if stage is None:
                break
            stages_bottom_up.append((p, stage))
        else:
            tower = Tower(G, stages_bottom_up[::-1])
            if validate_tower(tower).valid:
                return h, tower

    if G.order() <= PROBE_ORDER_CAP:
        probed = tower_probe(G, h)
        if probed is not None:
            return h, probed
    raise TowerDefectError("no tower realizing fitting height %d was found" % h)


def tower_to_data(t: Tower) -> list:
    """Stage list as (prime, generator cycle strings), for reports."""
    return [[p, [str(g) for g in sub.generators]] for p, sub in t.stages]


def _normalizes_all(gens, chosen) -> bool:
    return all(lower.normalized_by(gens) for _, lower in chosen)


def _moves_stage_below(gens, chosen) -> bool:
    """A stage whose generators all centralize the stage below acts trivially
    on it; such a candidate can never pass validation."""
    below = chosen[-1][1]
    ident = identity_raw(below.degree)
    return any(comm_raw(x, g) != ident for g in gens for x in below._raw_gens)


def _pick_stage(G, u: FiniteGroup, p: int, chosen):
    """First p-subgroup of u that normalizes every chosen stage and moves the
    one directly below: full Sylow conjugates are tried before smaller ones."""
    syl = sylow_subgroup(u, p)
    for gens in u._conjugate_gen_sets(syl._raw_gens):
        if _normalizes_all(gens, chosen) and _moves_stage_below(gens, chosen):
            return G._subgroup_raw(list(gens))
    # largest first; the sort is stable, and an index set's size is its order
    for _, gens in sorted(_p_subgroup_sets(u, p), key=lambda kv: -len(kv[0])):
        if _normalizes_all(gens, chosen) and _moves_stage_below(gens, chosen):
            return G._subgroup_raw(list(gens))
    return None
