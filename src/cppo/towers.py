"""Towers of p-subgroups and Fitting-height certification.

A tower is a sequence of stages (p_i, P_i): each P_i a p_i-group, earlier
stages normalizing later ones, adjacent primes distinct, and every stage
acting nontrivially "effectively": writing K_h = 1 and, going up,
K_i = { x in P_i : [P_{i+1}, x] <= K_{i+1} }, the groups P_i / K_i must all
be nontrivial.  The maximum height of a tower of a soluble group equals its
Fitting height; find_max_tower certifies that equality constructively.

Stages are small p-groups, so kernels are computed on element lists by one
routine, _kernel_set, which Tower.kernels and the tower_probe search share:
it reads K_i off the conjugation tables of P_i on the element list of
P_{i+1}.

The exhaustive search behind tower_probe works on indices into G's sorted
element list, so it forms no permutation and builds no group or stabilizer
chain until it has a tower to return.  Subgroups are index sets, found by
cyclic extension over the Sylow group's multiplication tables, each join
closed coset by coset by _close_set; since the indices follow element
order, sorting index sets sorts the element sets alike.  The candidates
are indexed once, and one conjugation_tables call per probe gives the
tables of all their generators, from which the masks of the candidates
each generator normalizes and centralizes are filled as the search needs
them.  The kernels of a leaf are memoized by the stages they depend on.  A
tower it returns has still passed validate_tower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .arith import factorization
from .errors import InsolubleError, TowerDefectError
from .group import FiniteGroup, cached, quotient_by_normal
from .permutation import (
    Permutation,
    comm_raw,
    conjugation_tables,
    identity_raw,
    mul_all,
    mul_raw,
    multiplication_tables,
    order_raw,
)
from .structure import (
    frattini_of_p_group,
    is_soluble,
    p_core,
    sylow_subgroup,
    upper_fitting_series,
)

# is_irreducible_tower searches the elementary abelian subgroups of an
# effective stage exhaustively below this order, and by bounded
# combinations of commuting elements above it
ELEMENTARY_SEARCH_CAP = 256

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

    def _structural_check(self):
        """Items 1, 2 and 4; returns (item, message) for the first failure."""
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

    def kernels(self):
        """K_i per stage, computed from the bottom stage upward."""
        if self._kernels is None:
            defect = self._structural_check()
            if defect is not None:
                raise TowerDefectError("item %d: %s" % defect)
            ambient = self.ambient
            base = ambient.chain().base
            bottom_up = [sub._raw_elements() for _, sub in reversed(self.stages)]
            # K_h = 1, and the identity sorts first
            sets = [frozenset([0])] if bottom_up else []
            for lower, members in zip(bottom_up, bottom_up[1:]):
                sets.append(_kernel_set(members, lower, sets[-1], base))
            self._kernels = [
                ambient._subgroup_from_raw_elements([members[j] for j in k])
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
    verdict: str  # "yes", "no" or "undecided"
    details: list = field(default_factory=list)


def effective_quotients(t: Tower) -> list:
    """The stage actions P_i / K_i as explicit coset-action groups."""
    kernels = t.kernels()
    out = []
    for (p, sub), k in zip(t.stages, kernels):
        out.append(quotient_by_normal(sub, k))
    return out


def validate_tower(t: Tower) -> TowerValidity:
    items = {1: True, 2: True, 3: True, 4: True}
    defect = t._structural_check()
    if defect is not None:
        item, message = defect
        items[item] = False
        # item 3 is unknowable without the structure; leave it optimistic
        return TowerValidity(False, items, "item %d: %s" % (item, message))
    for idx, (k, (p, sub)) in enumerate(zip(t.kernels(), t.stages)):
        if k.order() == sub.order():
            items[3] = False
            return TowerValidity(
                False, items, "item 3: stage %d acts trivially below it" % (idx + 1)
            )
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
    ident = identity_raw(ambient.degree)
    seeds = set()
    for h in action_raws:
        for y in target._raw_gens:
            c = comm_raw(h, y)
            if c != ident:
                seeds.add(c)
    return _closure_under_conjugation(
        ambient, sorted(seeds), list(action_raws) + list(target._raw_gens)
    )


def _elementary_abelian_gens(gens, p: int) -> bool:
    """Whether the raw elements gens have order p and commute, that is,
    generate an elementary abelian p-group."""
    return all(order_raw(x) == p for x in gens) and all(
        mul_raw(a, b) == mul_raw(b, a) for a, b in itertools.combinations(gens, 2)
    )


def _elementary_abelian_subgroup_gens(Q: FiniteGroup, p: int):
    """Generator lists for elementary abelian p-subgroups of Q, and whether
    the list holds all of them.

    Below ELEMENTARY_SEARCH_CAP the list holds every member of
    _all_subgroups(Q) whose generators have order p and commute, so it is
    complete.  Otherwise it holds combinations of at most three commuting
    order-p elements drawn from the least elements; that search is complete
    only when the pool holds every order-p element and p^4 does not divide
    |Q|, so that no elementary abelian subgroup has rank above three.
    """
    if Q.order() < ELEMENTARY_SEARCH_CAP:
        return [gens for _, gens in _all_subgroups(Q) if _elementary_abelian_gens(gens, p)], True
    order_p = [x for x in Q._raw_elements() if order_raw(x) == p]
    ident = identity_raw(Q.degree)
    pool = order_p[:48]
    seen_sets = set()
    out = []
    for size in (1, 2, 3):
        for combo in itertools.combinations(pool, size):
            if not _elementary_abelian_gens(combo, p):
                continue
            # commuting elements of order p: the group is the product of their powers
            key = {ident}
            for g in combo:
                layer = list(key)
                for _ in range(p - 1):
                    layer = mul_all(layer, g)
                    key.update(layer)
            if len(key) != p**size:
                continue  # not independent, a smaller combo already covers it
            key = frozenset(key)
            if key not in seen_sets:
                seen_sets.add(key)
                out.append(list(combo))
    return out, len(order_p) <= len(pool) and Q.order() % p**4 != 0


def is_irreducible_tower(t: Tower) -> IrreducibilityReport:
    """Check the four irreducibility conditions on a valid tower."""
    report = validate_tower(t)
    if not report.valid:
        raise TowerDefectError("irreducibility applies to valid towers only: %s" % report.detail)
    kernels = t.kernels()
    quotients = effective_quotients(t)
    details = []
    undecided = False

    # (2) the top stage is cyclic with effective action of prime order
    p1, top = t.stages[0]
    if not top.is_cyclic():
        return IrreducibilityReport("no", ["item 2: the top stage is not cyclic"])
    if quotients[0].order() != p1:
        return IrreducibilityReport(
            "no", ["item 2: the top stage acts with order %d, not prime" % quotients[0].order()]
        )

    for i, ((p, sub), q) in enumerate(zip(t.stages, quotients)):
        # (1) frattini conditions on the effective stage
        frat = frattini_of_p_group(q)
        if frattini_of_p_group(frat).order() != 1:
            return IrreducibilityReport(
                "no", ["item 1: stage %d has a frattini subgroup that is not elementary" % (i + 1)]
            )
        centre = q.center()
        if not centre.contains_group(frat):
            return IrreducibilityReport(
                "no", ["item 1: stage %d frattini subgroup is not central" % (i + 1)]
            )
        if p != 2 and q.order() > 1 and q.exponent() != p:
            return IrreducibilityReport(
                "no", ["item 1: stage %d has exponent %d, wanted %d" % (i + 1, q.exponent(), p)]
            )
        if i > 0:
            above = t.stages[i - 1][1]
            k_chain = kernels[i].chain()
            for fgen in frat.generators:
                lift = q.lift(fgen).raw
                for g in above._raw_gens:
                    if not k_chain.contains_raw(comm_raw(lift, g)):
                        return IrreducibilityReport(
                            "no",
                            [
                                "item 1: stage %d does not centralize the frattini "
                                "subgroup of stage %d" % (i, i + 1)
                            ],
                        )

    for i in range(1, len(t.stages)):
        # (3) an elementary abelian chunk of the stage above covers this stage
        p, sub = t.stages[i]
        q_above = quotients[i - 1]
        p_above = t.stages[i - 1][0]
        k_gens = kernels[i]._raw_gens

        def covers(action_raws):
            span = _commutator_span(t.ambient, action_raws, sub)
            joined = t.ambient._subgroup_raw(span._raw_gens + list(k_gens))
            return joined.order() == sub.order()

        full_gens = [q_above.lift(g).raw for g in q_above.generators]
        if not covers(full_gens):
            return IrreducibilityReport(
                "no",
                ["item 3: even the whole stage %d fails to cover stage %d" % (i, i + 1)],
            )
        candidates, complete = _elementary_abelian_subgroup_gens(q_above, p_above)
        hit = None
        for cand in candidates:
            if not cand:
                continue
            lifted = [q_above.lift(Permutation._from_raw(c)).raw for c in cand]
            if covers(lifted):
                hit = cand
                break
        if hit is None:
            if complete:
                return IrreducibilityReport(
                    "no",
                    ["item 3: no elementary abelian subgroup above covers stage %d" % (i + 1)],
                )
            undecided = True
            details.append(
                "item 3: stage %d search capped before finding a cover" % (i + 1)
            )

    for i, ((p, sub), q) in enumerate(zip(t.stages, quotients)):
        # (4) invariant closures of elements outside the frattini preimage fill the stage
        frat = frattini_of_p_group(q)
        pre = t.ambient._subgroup_raw(q.preimage_gens(frat))
        pre_chain = pre.chain()
        conjugators = []
        for j in range(i):
            conjugators.extend(t.stages[j][1]._raw_gens)
        for x in sub._raw_elements():
            if pre_chain.contains_raw(x):
                continue
            closure = _closure_under_conjugation(t.ambient, [x], conjugators)
            if closure.order() != sub.order():
                return IrreducibilityReport(
                    "no",
                    [
                        "item 4: stage %d has a proper invariant subgroup outside "
                        "the frattini preimage" % (i + 1)
                    ],
                )

    if undecided:
        return IrreducibilityReport("undecided", details)
    return IrreducibilityReport("yes", details)


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


def _as_raw(elems, sets):
    """(index set, generator indices) pairs as (element set, raw generators)."""
    return [(frozenset(map(elems.__getitem__, k)), [elems[x] for x in gens]) for k, gens in sets]


def _all_subgroups(P: FiniteGroup):
    """Every subgroup of a small group as (element set, generator list), by
    cyclic extension over P's multiplication table, sorted by size then by
    sorted elements."""
    elems = P._raw_elements()
    xs = range(len(elems))
    found = _cyclic_extension(xs, _right_rows(elems, P.chain().base, xs))
    return _as_raw(elems, _by_size(found))


def _p_subgroup_index_sets(G: FiniteGroup, p: int, conj):
    """_p_subgroup_sets as (index set, generator indices) pairs over G's
    sorted elements; conj holds the conjugation table of each generator of
    G.  Only the Sylow group's elements get right-multiplication tables."""
    elems = G._raw_elements()
    index = dict(zip(elems, range(len(elems))))
    xs = sorted(map(index.__getitem__, sylow_subgroup(G, p)._raw_elements()))
    found = _cyclic_extension(xs, _right_rows(elems, G.chain().base, xs))
    pool = {k: gens for k, gens in _by_size(found) if len(k) > 1}
    queue = list(pool.items())
    for members, gens in queue:
        for t in conj:
            key = frozenset(map(t.__getitem__, members))
            if key not in pool:
                conj_gens = [t[x] for x in gens]
                pool[key] = conj_gens
                queue.append((key, conj_gens))
    return _by_size(pool)


def _p_subgroup_sets(G: FiniteGroup, p: int):
    """All nontrivial p-subgroups of G as (element set, generator list),
    sorted by size then by sorted elements: the subgroups of one Sylow group
    plus their conjugates under the group generators."""
    elems = G._raw_elements()
    conj = conjugation_tables(elems, G.chain().base, G._raw_gens)
    return _as_raw(elems, _p_subgroup_index_sets(G, p, conj))


def tower_probe(G: FiniteGroup, min_height: int):
    """Bounded exhaustive search for a valid tower of at least the given height.

    Stage candidates are the p-subgroups of G, as sets of element indices,
    indexed once: primes in factorization order, then subgroups by size and
    sorted elements.  The search fills stages top-down in that order, and
    the first valid tower wins.  Two bitmasks decide which candidates may go
    below a stage: the ones it normalizes (item 2), and among those the ones
    it does not centralize.  They are the AND of masks kept per generator,
    of the candidates whose generators it maps into the candidate and of
    those whose generators it fixes, read off its conjugation table; a
    generator's masks are filled only on the columns a search below it can
    still use.  A stage that centralizes the stage below has K_i = P_i and
    fails item 3 whatever lies lower, so only the second mask is offered
    directly below.  A full-height leaf checks item 3 with K_i computed
    bottom-up and memoized by the suffix of stage indices it depends on;
    only a leaf that passes becomes a Tower, and it is returned only if
    validate_tower accepts it.

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
    elems = G._raw_elements()
    base = G.chain().base
    gen_conj = conjugation_tables(elems, base, G._raw_gens)
    cands = [
        (p, members, gens)
        for p in primes
        for members, gens in _p_subgroup_index_sets(G, p, gen_conj)
    ]
    movers = sorted({x for _, _, gens in cands for x in gens})
    conj = dict(zip(movers, conjugation_tables(elems, base, [elems[x] for x in movers])))
    prime_bits = {p: 0 for p in primes}
    for i, (p, _, _) in enumerate(cands):
        prime_bits[p] |= 1 << i
    acts = {}  # mover -> [normalized mask, centralized mask, filled mask]
    kernels = {}  # stage-index suffix -> K of its top stage, or False if K is the stage

    def act(x, need):
        """Mover x's masks, filled at least on the columns in need."""
        masks = acts.setdefault(x, [0, 0, 0])
        todo = need & ~masks[2]
        masks[2] |= todo
        t = conj[x]
        while todo:
            low = todo & -todo
            todo ^= low
            _, members, gens = cands[low.bit_length() - 1]
            images = [t[y] for y in gens]
            if members.issuperset(images):
                masks[0] |= low
                if images == gens:
                    masks[1] |= low
        return masks

    def below_rows(i, need):
        """Within need, the candidates i normalizes, and those it also moves."""
        norm = fixed = need
        for x in cands[i][2]:
            masks = act(x, norm)
            norm &= masks[0]
            fixed &= masks[1]
        return norm, norm & ~fixed

    def kernel(suffix):
        if suffix not in kernels:
            members = sorted(map(elems.__getitem__, cands[suffix[0]][1]))
            if len(suffix) == 1:
                k = frozenset([0])  # the identity sorts first
            else:
                below = kernel(suffix[1:])
                if below is False:
                    kernels[suffix] = False
                    return False
                lower = sorted(map(elems.__getitem__, cands[suffix[1]][1]))
                k = _kernel_set(members, lower, below, base)
            kernels[suffix] = False if len(k) == len(members) else k
        return kernels[suffix]

    def extend(stages, normed):
        """normed: the candidates that every stage above the last normalizes."""
        if len(stages) == min_height:
            if kernel(tuple(stages)) is False:
                return None
            t = Tower(
                G, [(cands[i][0], G._subgroup_raw([elems[x] for x in cands[i][2]])) for i in stages]
            )
            return t if validate_tower(t).valid else None
        allowed = normed
        if stages:
            last = stages[-1]
            allowed &= ~prime_bits[cands[last][0]]
            # only the next stage reads the rows when it is the last one
            norm, moved = below_rows(last, allowed if len(stages) + 1 == min_height else normed)
            normed &= norm
            allowed &= moved
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
    normalizes everything chosen so far.  Prime choices per level are
    backtracked over; if no assignment produces a valid tower the bounded
    exhaustive probe has the last word.
    """
    if not is_soluble(G):
        raise InsolubleError("towers certify fitting height for soluble groups only")
    series = upper_fitting_series(G)
    h = len(series.terms) - 1
    if h == 0:
        return 0, Tower(G, [])
    factor_primes = []
    for lvl in range(1, h + 1):
        below = series.terms[lvl - 1].order()
        here = series.terms[lvl].order()
        factor_primes.append([p for p, _ in factorization(here // below)])

    def assignments(level, chosen):
        if level == h:
            yield list(chosen)
            return
        for p in factor_primes[level]:
            if chosen and chosen[-1] == p:
                continue
            chosen.append(p)
            yield from assignments(level + 1, chosen)
            chosen.pop()

    for primes in assignments(0, []):
        stages_bottom_up = []
        good = True
        for lvl in range(1, h + 1):
            p = primes[lvl - 1]
            if lvl == 1:
                stage = p_core(G, p)
            else:
                q = series.quotients[lvl - 1]
                core = p_core(q, p)
                u = FiniteGroup(
                    [Permutation._from_raw(r) for r in sorted(set(q.preimage_gens(core)))],
                    degree=G.degree,
                    cap=G.cap,
                )
                stage = _pick_stage(G, u, p, stages_bottom_up)
                if stage is None:
                    good = False
                    break
            stages_bottom_up.append((p, stage))
        if not good:
            continue
        tower = Tower(G, list(reversed(stages_bottom_up)))
        if tower.height == h and validate_tower(tower).valid:
            return h, tower

    if G.order() <= PROBE_ORDER_CAP:
        probed = tower_probe(G, h)
        if probed is not None:
            return h, probed
    raise TowerDefectError("no tower realizing fitting height %d was found" % h)


def tower_to_data(t: Tower) -> list:
    """Stage list as (prime, generator cycle strings), for reports."""
    return [
        [p, [str(g) for g in sub.generators]] for p, sub in t.stages
    ]


def _normalizes_all(gens, chosen) -> bool:
    return all(lower.normalized_by(gens) for _, lower in chosen)


def _moves_stage_below(gens, chosen) -> bool:
    """A stage whose generators all centralize the stage below acts trivially
    on it; such a candidate can never pass validation."""
    if not chosen:
        return True
    below = chosen[-1][1]
    ident = identity_raw(below.degree)
    for g in gens:
        for x in below._raw_gens:
            if comm_raw(x, g) != ident:
                return True
    return False


def _pick_stage(G, u: FiniteGroup, p: int, chosen):
    """First p-subgroup of u that normalizes every chosen stage and moves the
    one directly below: full Sylow conjugates are tried before smaller ones."""
    syl = sylow_subgroup(u, p)
    for gens in u._conjugate_gen_sets(syl._raw_gens):
        if _normalizes_all(gens, chosen) and _moves_stage_below(gens, chosen):
            return G._subgroup_raw(list(gens))
    # largest first; the sort is stable, and a set's size is its order
    for _, gens in sorted(_p_subgroup_sets(u, p), key=lambda kv: -len(kv[0])):
        if _normalizes_all(gens, chosen) and _moves_stage_below(gens, chosen):
            return G._subgroup_raw(list(gens))
    return None
