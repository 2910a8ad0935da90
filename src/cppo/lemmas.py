"""Instance-level checks for the supporting results behind the two main
structure theorems.

Every check here is a concrete finite computation: coprime actions are
realized inside explicit affine permutation groups, automorphisms appear as
point permutations normalizing the group they act on, and each claimed
identity is verified by enumeration.  A check never samples the statement
away; randomness (seeded) only picks among instances, all of which must
pass.

Corpus-driven families (opelinha, casolo_quotient, the perfect-group
lemmas) restrict to corpus groups of order at most 1000 so the whole suite
stays in seconds; the bound is an instance policy, not a correctness cap.
corpus_groups_upto builds those groups one at a time, so each such source
holds one group and its caches at a time.

Each family is a source and a verdict.  The source _<id>_instances(seed)
(cc_i and cc_ii share _coprime_pairs) yields (instance, *args) for each
instance once it meets the lemma's hypotheses, and raises GroupError on one
that does not; the sources of coprime actions share one check, _actions.
The verdict <id>(*args) returns (passed, witness) and checks no hypothesis,
so it runs on an instance that breaks its lemma too.  _records makes the
REGISTRY entry run(seed): it calls the verdict on each instance and makes
the LemmaCheck records in the order yielded; no source or verdict names
its id or a status.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .arith import factorization, is_prime_power, prime_factors
from .atlas import _affine_map, _affine_points, _induced, _q8_matrix_gens, build
from .corpus import corpus_groups_upto
from .errors import GroupError
from .fields import Matrix, gf
from .group import FiniteGroup, quotient_by_normal
from .permutation import (
    Permutation,
    comm_raw,
    conj_raw,
    identity_raw,
    inv_raw,
    mul_raw,
    order_raw,
)
from .structure import (
    _element_orders,
    _p_prime_part,
    fitting_height,
    fitting_subgroup,
    frattini_of_p_group,
    is_nilpotent,
    is_quasisimple,
    is_soluble,
    iter_normal_subgroups,
    quotient_is_simple,
    sylow_subgroup,
)
from .towers import (
    Tower,
    _commutator_span,
    _elementary_abelian_subgroups,
    find_max_tower,
    quotient_tower,
    validate_tower,
)


@dataclass
class LemmaCheck:
    lemma_id: str
    instance: str
    status: str  # "pass" or "fail"
    witness: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# instance builders


def _affine(*qs):
    """AGL(1,q), or AGL(1,q1) x AGL(1,q2), from the atlas, with its translation
    subgroup and one scaling per factor.

    Each factor's generators are the additive basis of GF(q) followed by
    one scaling, so they split by position.
    """
    spec = "agl1(%d)" if len(qs) == 1 else "direct_product(agl1(%d),agl1(%d))"
    amb = build(spec % qs).group
    trans, scales, i = [], [], 0
    for q in qs:
        k = factorization(q)[0][1]
        trans += amb.generators[i : i + k]
        scales.append(amb.generators[i + k])
        i += k + 1
    return amb, amb.subgroup(trans), scales


def _affine_plane_3():
    """F3^2 with its translations and the quaternion subgroup of SL(2,3)."""
    F3 = gf(3)
    one = Matrix.identity(F3, 2)
    maps = [_affine_map(one, (1, 0)), _affine_map(one, (0, 1))]
    maps += [_affine_map(M) for M in _q8_matrix_gens()]
    t1, t2, mi, mj = _induced(_affine_points(F3, 2), maps)
    amb = FiniteGroup([t1, t2, mi, mj], degree=9, name="f3^2:q8")
    return amb, amb.subgroup([t1, t2]), amb.subgroup([mi, mj])


def _s4_wreath_2():
    """S4 wr C2 on 8 points with an abelian three-stage tower inside it."""
    base = build("direct_product(s4,s4)").group.generators
    g = FiniteGroup(base + [Permutation([5, 6, 7, 8, 1, 2, 3, 4])], degree=8, name="s4wr2")
    swap = g.generators[4].raw
    t12 = g.generators[0].raw
    x = Permutation._from_raw(mul_raw(swap, t12))  # (1 5 2 6)(3 7)(4 8)
    p1 = g.subgroup([x])
    p2 = g.subgroup([Permutation([2, 3, 1, 4, 5, 6, 7, 8]), Permutation([1, 2, 3, 4, 6, 7, 5, 8])])
    p3 = g.subgroup(
        [
            Permutation([2, 1, 4, 3, 5, 6, 7, 8]),
            Permutation([3, 4, 1, 2, 5, 6, 7, 8]),
            Permutation([1, 2, 3, 4, 6, 5, 8, 7]),
            Permutation([1, 2, 3, 4, 7, 8, 5, 6]),
        ]
    )
    return g, p1, p2, p3


def _heisenberg_with_flip():
    """extraspecial(3,+), the Heisenberg model on the points (x, y) of
    GF(3)^2 numbered 3x + y, with the involutory point map (x, y) -> (-x, y):
    it inverts both noncentral generators and fixes the centre pointwise."""
    F3 = gf(3)
    P = build("extraspecial(3,+)").group
    (flip,) = _induced(_affine_points(F3, 2), [_affine_map(Matrix(F3, [[2, 0], [0, 1]]))])
    return P, flip


# ---------------------------------------------------------------------------
# small computations shared by the families


def _join(ambient: FiniteGroup, *gen_lists) -> FiniteGroup:
    return ambient._subgroup_raw(sorted(set().union(*gen_lists)))


def _nontrivial_elements(sub: FiniteGroup):
    return [x for x in sub.elements() if not x.is_identity()]


def _is_quaternion8(sub: FiniteGroup) -> bool:
    if sub.order() != 8:
        return False
    invs = [x for x in sub._raw_elements() if order_raw(x) == 2]
    return len(invs) == 1


def _tori():
    """(q, d, AGL(1,q), its translations, its scaling subgroup of order d)
    for q in 4, 5, 7, 8, 9 and each d > 1 dividing q - 1."""
    for q in (4, 5, 7, 8, 9):
        amb, v, (scale,) = _affine(q)
        n = q - 1
        for d in sorted(x for x in range(2, n + 1) if n % x == 0):
            yield q, d, amb, v, amb.subgroup([scale ** (n // d)])


def _c35():
    """AGL(1,5) x AGL(1,7) with its translations C35, the diagonal scaling of
    order 12 and the diagonal involution."""
    amb, v, (s1, s2) = _affine(5, 7)
    diag = amb._subgroup_raw([mul_raw(s1.raw, s2.raw)])
    half = amb._subgroup_raw([mul_raw((s1**2).raw, (s2**3).raw)])
    return amb, v, diag, half


def _sl23_on_q8():
    """SL(2,3) with its quaternion subgroup and, acting on it, the subgroup
    generated by the first order-3 class representative."""
    sl23 = build("sl2_3").group
    a = next(c.rep for c in sl23._raw_classes() if c.order == 3)
    return sl23, sl23.derived_subgroup(), sl23._subgroup_raw([a])


def _noncyclic_abelian_pairs():
    pairs = []
    amb, v, scales = _affine(4, 4)
    pairs.append(("c2^4 under c3 x c3", amb, v, amb.subgroup(scales)))
    amb5, v5, scales5 = _affine(5, 5)
    pairs.append(("c5^2 under c2 x c2", amb5, v5, amb5.subgroup([s**2 for s in scales5])))
    amb9, v9, scales9 = _affine(9, 9)
    pairs.append(("c3^4 under c2 x c2", amb9, v9, amb9.subgroup([s**4 for s in scales9])))
    return pairs


def _q8_automorphisms():
    """All automorphisms of the quaternion group of order 8 as element maps."""
    q8 = build("q8").group
    elems = sorted(q8._raw_elements())
    order4 = [x for x in elems if order_raw(x) == 4]
    i0 = order4[0]
    j0 = next(x for x in order4 if x not in (i0, inv_raw(i0)))
    shape = [(a, b) for a in range(4) for b in range(2)]

    def word(x, y, a, b):
        w = identity_raw(q8.degree)
        for _ in range(a):
            w = mul_raw(w, x)
        return mul_raw(w, y) if b else w

    words = [word(i0, j0, a, b) for a, b in shape]
    if len(set(words)) != 8:
        raise GroupError("quaternion word table is wrong")
    auts = []
    for u in order4:
        for v in order4:
            if v in (u, inv_raw(u)):
                continue
            phi = {w: word(u, v, a, b) for w, (a, b) in zip(words, shape)}
            if len(set(phi.values())) == 8 and all(
                phi[mul_raw(x, y)] == mul_raw(phi[x], phi[y]) for x in elems for y in elems
            ):
                auts.append(phi)
    if len(auts) != 24:
        raise GroupError("expected 24 automorphisms of q8, found %d" % len(auts))
    return elems, auts


def _involutions(elems, auts):
    return [
        phi for phi in auts if all(phi[phi[x]] == x for x in elems) and any(phi[x] != x for x in elems)
    ]


# ---------------------------------------------------------------------------
# lemma families.  A source yields (instance, *args) for each instance that
# meets the lemma's hypotheses and raises GroupError on one that does not;
# the verdict <id>(*args) returns (passed, witness) and checks no hypothesis.


def _actions(instances):
    """Each (tag, ambient, G, A, ...) instance unchanged, once A is checked
    to act coprimely on G: the orders are coprime and A normalizes G."""
    for instance in instances:
        g, a = instance[2:4]
        if math.gcd(a.order(), g.order()) != 1:
            raise GroupError("instance is not coprime")
        if not g.normalized_by(a._raw_gens):
            raise GroupError("acting subgroup fails to normalize the instance")
        yield instance


def _coprime_pairs(seed):
    """(tag, ambient, acted-on subgroup, acting subgroup), acting part cyclic unless noted."""
    pairs = [
        ("agl1(%d) torus part of order %d on translations" % (q, d), amb, v, a)
        for q, d, amb, v, a in _tori()
    ]
    pairs.append(("sl2_3 order-3 element on its quaternion subgroup", *_sl23_on_q8()))
    amb, v, diag, half = _c35()
    pairs.append(("c35 under a diagonal of order 12", amb, v, diag))
    pairs.append(("c35 under the diagonal involution", amb, v, half))
    return _actions(pairs)


def cc_i(amb, g, a):
    comm = _commutator_span(amb, a._raw_gens, g)
    cent = g.centralizer(a.generators)
    total = _join(amb, comm._raw_gens, cent._raw_gens)
    ok = total.order() == g.order()
    witness = {"comm_order": comm.order(), "cent_order": cent.order()}
    if ok and g.is_abelian():
        meet = set(comm._raw_elements()) & set(cent._raw_elements())
        ok = len(meet) == 1
        witness["meet_order"] = len(meet)
    return ok, witness


def cc_ii(amb, g, a):
    once = _commutator_span(amb, a._raw_gens, g)
    twice = _commutator_span(amb, a._raw_gens, once)
    return once.same_group_as(twice), {"once": once.order(), "twice": twice.order()}


def _cc_iii_instances(seed):
    amb, v, _, half = _c35()
    sl23, q8, a3 = _sl23_on_q8()
    amb4, v4, scales4 = _affine(4, 4)
    first_block = amb4.subgroup(v4.generators[:2])
    instances = [
        ("c35 mod its c5 part", amb, v, half, amb.subgroup([v.generators[0]])),
        ("q8 mod its centre", sl23, q8, a3, sl23.center()),
        ("c2^4 mod one block", amb4, v4, amb4.subgroup(scales4), first_block),
    ]
    return _actions(instances)


def cc_iii(amb, g, a, n):
    nchain = n.chain()
    # fixed points of the action on G/N pulled back to G: the preimage of
    # C_{G/N}(A), a subgroup, so its order is its element count
    lhs = sum(
        all(nchain.contains_raw(comm_raw(x, ag)) for ag in a._raw_gens)
        for x in g._raw_elements()
    )
    cent = g.centralizer(a.generators)
    rhs = _join(amb, n._raw_gens, cent._raw_gens).order()
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def _cc_v_instances(seed):
    for instance in _actions(_noncyclic_abelian_pairs()):
        _, _, g, a = instance
        if not is_nilpotent(g) or a.is_cyclic():
            raise GroupError("cc_v instance out of scope")
        yield instance


def cc_v(amb, g, a):
    total = _join(amb, *(g.centralizer([x])._raw_gens for x in _nontrivial_elements(a)))
    return total.order() == g.order(), {"product_order": total.order(), "group_order": g.order()}


def _cc_vi_instances(seed):
    amb, v, diag, half = _c35()
    # nonabelian target: the Frobenius group of order 21 under an involution
    amb7, v7, (scale7,) = _affine(7)
    f21 = amb7.subgroup(list(v7.generators) + [scale7**2])
    instances = [
        ("c35 with the order-12 diagonal", amb, v, diag),
        ("c35 with the diagonal involution", amb, v, half),
        ("frobenius 21 under an involution", amb7, f21, amb7.subgroup([scale7**3])),
        ("quaternion group under an order-3 element", *_sl23_on_q8()),
    ]
    return _actions(instances)


def cc_vi(amb, g, a):
    """Whether each Sylow subgroup of G has a G-conjugate that A normalizes."""
    witness = {}
    for p in prime_factors(g.order()):
        found = any(
            amb._subgroup_raw(list(gens)).normalized_by(a._raw_gens)
            for gens in g._conjugate_gen_sets(sylow_subgroup(g, p)._raw_gens)
        )
        witness[str(p)] = "found" if found else "missing"
    return "missing" not in witness.values(), witness


def _kurzweil_instances(seed):
    """Tori scalings and Q8 on F3^2: fixed point free, and abelian or a p-group."""
    actions = [
        ("agl1(%d) scaling subgroup of order %d" % (q, d), amb, v, a)
        for q, d, amb, v, a in _tori()
    ]
    actions.append(("q8 acting freely on c3 x c3", *_affine_plane_3()))
    for tag, _, v, a in _actions(actions):
        if any(v.centralizer([x]).order() > 1 for x in _nontrivial_elements(a)):
            raise GroupError("kurzweil instance is not fixed point free")
        if not (a.is_abelian() or len(factorization(a.order())) == 1):
            raise GroupError("kurzweil instance misses every hypothesis")
        yield tag, a


def kurzweil(a):
    """A acting fixed point freely is cyclic, or else Q8."""
    if a.is_cyclic():
        return True, {"a_order": a.order()}
    return _is_quaternion8(a), {
        "note": "the permitted quaternion exception: noncyclic yet fixed point free"
    }


def _acnoncop_instances(seed):
    rng = random.Random(seed)
    instances = _noncyclic_abelian_pairs()
    # conjugated copies are genuinely different subgroup pairs of the ambient
    for tag, amb, v, a in instances[:2]:
        elems = amb._raw_elements()
        c = elems[rng.randrange(len(elems))]
        vv = amb._subgroup_raw([conj_raw(x, c) for x in v._raw_gens])
        aa = amb._subgroup_raw([conj_raw(x, c) for x in a._raw_gens])
        instances.append((tag + ", conjugated", amb, vv, aa))
    for instance in _actions(instances):
        _, _, v, a = instance
        if a.is_cyclic() or not a.is_abelian() or not v.is_abelian():
            raise GroupError("acnoncop instance out of scope")
        yield instance


def acnoncop(amb, v, a):
    parts = [set(_commutator_span(amb, [x.raw], v)._raw_elements()) for x in _nontrivial_elements(a)]
    meet = set.intersection(*parts) if parts else set()
    return len(meet) == 1, {"intersection_order": len(meet)}


def _orderofav_instances(seed):
    instances = []
    for q, powers in ((5, (1, 2)), (7, (1, 2, 3)), (8, (1,)), (9, (1, 2, 4))):
        amb, v, (scale,) = _affine(q)
        for k in powers:
            a = scale**k
            instances.append(("agl1(%d) with a of order %d" % (q, a.order()), amb, v, a.raw))
    amb, v, (s1, s2) = _affine(5, 7)
    instances.append(("c35 with a acting on the c5 part only", amb, v, s1.raw))
    instances.append(("c35 with a acting on the c7 part only", amb, v, (s2**2).raw))
    for instance in instances:
        _, _, v, a_raw = instance
        if math.gcd(v.order(), order_raw(a_raw)) != 1:
            raise GroupError("orderofav instance is not coprime")
        yield instance


def orderofav(amb, v, a_raw):
    """Every v in V with a*v of order prime to |V| lies in [V, a]."""
    n = v.order()
    comm = _commutator_span(amb, [a_raw], v)
    chain = comm.chain()
    ok = True
    checked = 0
    for velt in v._raw_elements():
        if math.gcd(n, order_raw(mul_raw(a_raw, velt))) != 1:
            continue
        checked += 1
        if not chain.contains_raw(velt):
            ok = False
            break
    return ok, {"qualifying_elements": checked, "comm_order": comm.order()}


def _autoofextra_instances(seed):
    heisenberg, flip = _heisenberg_with_flip()
    _, q8, a3 = _sl23_on_q8()
    for instance in (
        ("heisenberg 27 under the inverting involution", heisenberg, flip.raw),
        ("quaternion group under an order-3 automorphism", q8, a3._raw_gens[0]),
    ):
        _, P, phi_raw = instance
        # the automorphism must normalize P and centralize exactly the frattini part
        if not P.normalized_by([phi_raw]):
            raise GroupError("automorphism fails to normalize the instance")
        if math.gcd(order_raw(phi_raw), P.order()) != 1:
            raise GroupError("automorphism order is not coprime")
        fixed = P.centralizer([Permutation._from_raw(phi_raw)])
        if not fixed.same_group_as(frattini_of_p_group(P)):
            raise GroupError("fixed points differ from the frattini subgroup")
        yield instance


def autoofextra(P, phi_raw):
    """Each element of P outside Phi(P) is P-conjugate to some [x, phi]."""
    values = {comm_raw(x, phi_raw) for x in P._raw_elements()}
    # the values lie in P, so their closure under P's conjugation is the
    # union of the classes of P that they meet
    class_of = P._class_index()
    hit = set(map(class_of, values))
    frat_set = set(frattini_of_p_group(P)._raw_elements())
    missing = [x for x in P._raw_elements() if x not in frat_set and class_of(x) not in hit]
    return not missing, {"value_count": len(values), "missed": len(missing)}


def _autodoquaternion_instances(seed):
    elems, auts = _q8_automorphisms()
    yield "automorphism group size", elems, auts
    for k, phi in enumerate(_involutions(elems, auts)):
        yield "involutory automorphism %d" % (k + 1), elems, [phi]


def autodoquaternion(elems, auts):
    """Given every automorphism of Q8, that there are 24; given one involutory
    automorphism phi, that u^-1 u^phi is the central involution z for some u."""
    if len(auts) == 1:
        z = next(x for x in elems if order_raw(x) == 2)
        found = any(mul_raw(inv_raw(u), auts[0][u]) == z for u in elems)
        return found, {"u_found": found}
    return len(auts) == 24, {"count": len(auts), "involutory": len(_involutions(elems, auts))}


def _aaa_scenario_instances(seed):
    rng = random.Random(seed)
    amb, *stages = _s4_wreath_2()
    yield "instance 1", amb, *stages
    elems = amb._raw_elements()
    for k in range(2, 5):
        c = elems[rng.randrange(len(elems))]
        yield "instance %d" % k, amb, *(
            amb._subgroup_raw([conj_raw(x, c) for x in s._raw_gens]) for s in stages
        )


def aaa_scenario(amb, a1, a2, a3):
    """If the stages meet the scenario's hypotheses, a commutator of non-prime-power order."""
    hypo = (
        validate_tower(Tower(amb, [(2, a1), (3, a2), (2, a3)])).valid
        and a1.is_cyclic()
        and a2.is_abelian()
        and not a2.is_cyclic()
        and a3.is_abelian()
        and _commutator_span(amb, a1._raw_gens, a2).same_group_as(a2)
    )
    if not hypo:
        return False, {"hypotheses": False}
    scope = FiniteGroup(a1.generators + a2.generators + a3.generators, degree=amb.degree)
    wit = scope.cppo_witness()
    return (
        wit is not None and not is_prime_power(wit.order),
        {"scope_order": scope.order(), "witness_order": wit.order if wit else None},
    )


def _opelinha_instances(seed):
    for name, g in corpus_groups_upto(1000):
        if not g.is_cppo():
            continue
        centre = g.center()
        # Fitting: a normal subgroup is nilpotent exactly when it lies in F(G)
        fitting = fitting_subgroup(g)
        nilpotent = (
            n for n in iter_normal_subgroups(g) if n.order() > 1 and fitting.contains_group(n)
        )
        # eight per group keep reports readable on lattice-rich groups
        for n in itertools.islice(nilpotent, 8):
            yield "%s, nilpotent normal of order %d" % (name, n.order()), n, centre


def opelinha(n, centre):
    """Some p has the p'-part of the nilpotent normal subgroup N central.
    The source takes N inside F(G), so N is nilpotent unchecked."""
    zchain = centre.chain()
    for p in prime_factors(n.order()):
        if all(zchain.contains_raw(x) for x in _p_prime_part(n, p)._raw_gens):
            return True, {"p": p}
    return False, {"p": None}


def _directproduct_instances(seed):
    rng = random.Random(seed)
    pool = ["q8", "dihedral(4)", "sl2_3", "extraspecial(3,+)"]
    picks = [
        ("q8", "dihedral(4)"),
        ("dihedral(4)", "dihedral(4)"),
        ("q8", "q8"),
        ("sl2_3", "sl2_3"),
        ("extraspecial(3,+)", "extraspecial(3,+)"),
    ]
    for _ in range(2):
        picks.append((rng.choice(pool), rng.choice(pool)))
    for left, right in dict.fromkeys(picks):
        g = build("direct_product(%s,%s)" % (left, right)).group
        if any(build(f).group.is_abelian() for f in (left, right)):
            raise GroupError("direct product instance needs nonabelian factors")
        yield "%s x %s" % (left, right), g


def directproduct(g):
    """A CPPO product of nonabelian groups has G' of prime-power order; others are out of scope."""
    if not g.is_cppo():
        return True, {"note": "not cppo, out of scope", "witness_order": g.cppo_witness().order}
    d = g.derived_subgroup()
    return len(factorization(d.order())) == 1, {"derived_order": d.order()}


def _solubleperfect_instances(seed):
    rng = random.Random(seed)
    for gid, nkind in (("sl2_5", "centre"), ("sl2_9", "centre"), ("asl2_4", "fitting")):
        g = build(gid).group
        n = g.center() if nkind == "centre" else fitting_subgroup(g)
        if g.derived_subgroup().order() != g.order():
            raise GroupError("instance group is not perfect")
        if not is_soluble(n):
            raise GroupError("chosen normal part is not soluble")
        if not quotient_is_simple(g, n):
            raise GroupError("quotient by the normal part is not simple")
        nchain = n.chain()
        elems = g._raw_elements()
        chosen = []
        while len(chosen) < 3:
            x = elems[rng.randrange(len(elems))]
            if not nchain.contains_raw(x):
                chosen.append(x)
        for k, x in enumerate(chosen):
            yield "%s with cyclic q of order %d, sample %d" % (gid, order_raw(x), k + 1), g, x


def solubleperfect(g, x):
    """[G, <x>] = G for x outside the soluble normal part."""
    span = _commutator_span(g, list(g._subgroup_raw([x])._raw_gens), g)
    return span.order() == g.order(), {"span_order": span.order()}


def _existelemabelqsub_instances(seed):
    # primes listed per group avoid the soluble part: for the quasisimple and
    # affine cases only primes outside the relevant normal subgroup qualify
    cases = [
        ("alt(5)", (2, 3, 5)),
        ("psl2(7)", (2, 3, 7)),
        ("asl2_4", (3, 5)),
        ("sl2_5", (3, 5)),
        ("sl2_9", (3, 5)),
    ]
    for gid, qs in cases:
        g = build(gid).group
        for qprime in qs:
            yield "%s with q = %d" % (gid, qprime), g, qprime


def existelemabelqsub(g, qprime):
    """An elementary abelian q-subgroup Q and a coprime prime-power element a
    with [Q, a] = Q, by direct search over the first 40 subgroups of
    _elementary_abelian_subgroups, which lists the larger ones only when
    none of order q serves.  a normalizes Q when it conjugates each
    generator of Q into Q's elements."""
    elems, orders = g._raw_elements(), _element_orders(g)
    position = g._element_position()
    coprime = {o for o in set(orders) if o > 1 and is_prime_power(o) and o % qprime}
    acting = [(a, o) for a, o in zip(elems, orders) if o in coprime]
    # a acts on a Q of order q through Aut(Q), of order q - 1, so an a of
    # order prime to q - 1 centralizes it and [Q, a] = 1
    moving = [(a, o) for a, o in acting if math.gcd(o, qprime - 1) > 1]
    for members, gens in itertools.islice(_elementary_abelian_subgroups(g, qprime), 40):
        cand = g._subgroup_raw(gens)
        for a, o in moving if len(members) == qprime else acting:
            if all(position(conj_raw(x, a)) in members for x in gens) and (
                _commutator_span(g, [a], cand).order() == len(members)
            ):
                return True, {"q_order": len(members), "a_order": o}
    return False, {}


def _quasisimple_negative_instances(seed):
    for gid in ("sl2_5", "sl2_9"):
        g = build(gid).group
        if not is_quasisimple(g):
            raise GroupError("%s should be quasisimple" % gid)
        yield gid, g


def quasisimple_negative(g):
    """A quasisimple group with Z(G) > 1 has a commutator of non-prime-power order."""
    wit = g.cppo_witness()
    return (
        wit is not None and not is_prime_power(wit.order),
        {"witness_order": wit.order if wit else None},
    )


def _ore_spotcheck_instances(seed):
    for q in (4, 5, 7, 8, 9):
        yield "psl2(%d)" % q, build(("psl2", [q])).group


def ore_spotcheck(g):
    """Every element is a commutator."""
    comm = g.commutator_set()
    return len(comm) == g.order(), {"commutators": len(comm), "order": g.order()}


def _casolo_quotient_instances(seed):
    """Max towers of height >= 2, each with up to four normal N in which the
    bottom stage centralizes every element of N in the stages above it."""
    for name, g in corpus_groups_upto(500):
        if not is_soluble(g) or fitting_height(g) < 2:
            continue
        _, tower = find_max_tower(g)
        stage_elems = [s._raw_elements() for _, s in tower.stages[:-1]]
        bottom_gens = tower.stages[-1][1]._raw_gens
        ident = identity_raw(g.degree)

        def centralized(n):
            nchain = n.chain()
            return all(
                comm_raw(b, x) == ident
                for elems in stage_elems
                for x in elems
                if nchain.contains_raw(x)
                for b in bottom_gens
            )

        for n in itertools.islice(filter(centralized, iter_normal_subgroups(g)), 4):
            yield "%s mod normal of order %d" % (name, n.order()), g, tower, n


def casolo_quotient(g, tower, n):
    """The tower without its bottom stage maps to a valid tower of G/N."""
    img = quotient_tower(Tower(g, tower.stages[:-1]), quotient_by_normal(g, n))
    return validate_tower(img).valid, {"image_height": img.height}


def _p3_noncyclic_instances(seed):
    for name, g in corpus_groups_upto(500):
        if is_soluble(g) and fitting_height(g) >= 3:
            tower = find_max_tower(g)[1]
            yield "%s, height %d" % (name, tower.height), tower
    amb, p1, p2, p3 = _s4_wreath_2()
    tower = Tower(amb, [(2, p1), (3, p2), (2, p3)])
    yield "s4wr2 abelian tower, height %d" % tower.height, tower


def p3_noncyclic(tower):
    """No stage from the third on is cyclic."""
    bad = [i + 1 for i, (_, s) in enumerate(tower.stages) if i + 1 >= 3 and s.is_cyclic()]
    return not bad, {"cyclic_stages": bad}


def _records(lemma_id, source, verdict):
    """The registry entry for one family: run(seed) calls the verdict on each
    instance the source yields and returns the LemmaCheck records as a list,
    in the order yielded."""

    def run(seed):
        records = []
        for instance, *args in source(seed):
            passed, witness = verdict(*args)
            records.append(LemmaCheck(lemma_id, instance, "pass" if passed else "fail", witness))
        return records

    return run


REGISTRY = {
    lemma_id: _records(lemma_id, source, verdict)
    for lemma_id, source, verdict in (
        ("cc_i", _coprime_pairs, cc_i),
        ("cc_ii", _coprime_pairs, cc_ii),
        ("cc_iii", _cc_iii_instances, cc_iii),
        ("cc_v", _cc_v_instances, cc_v),
        ("cc_vi", _cc_vi_instances, cc_vi),
        ("kurzweil", _kurzweil_instances, kurzweil),
        ("acnoncop", _acnoncop_instances, acnoncop),
        ("orderofav", _orderofav_instances, orderofav),
        ("autoofextra", _autoofextra_instances, autoofextra),
        ("autodoquaternion", _autodoquaternion_instances, autodoquaternion),
        ("aaa_scenario", _aaa_scenario_instances, aaa_scenario),
        ("opelinha", _opelinha_instances, opelinha),
        ("directproduct", _directproduct_instances, directproduct),
        ("solubleperfect", _solubleperfect_instances, solubleperfect),
        ("existelemabelqsub", _existelemabelqsub_instances, existelemabelqsub),
        ("quasisimple_negative", _quasisimple_negative_instances, quasisimple_negative),
        ("ore_spotcheck", _ore_spotcheck_instances, ore_spotcheck),
        ("casolo_quotient", _casolo_quotient_instances, casolo_quotient),
        ("p3_noncyclic", _p3_noncyclic_instances, p3_noncyclic),
    )
}


MICRO_SUITE = (
    "autodoquaternion",
    "autoofextra",
    "acnoncop",
    "orderofav",
    "kurzweil",
    "cc_i",
    "cc_ii",
    "cc_iii",
    "cc_v",
    "cc_vi",
    "opelinha",
    "aaa_scenario",
    "quasisimple_negative",
)
