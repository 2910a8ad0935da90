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

Each family check_<id>(seed) is a generator of (instance, passed, witness)
triples, one per instance.  REGISTRY maps each lemma id to run(seed), which
drains its family and makes the LemmaCheck records, in the order yielded;
no family names its id or a status.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .arith import factorization, is_prime_power, prime_factors
from .atlas import build
from .corpus import corpus_groups_upto
from .errors import GroupError
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
    fitting_height,
    fitting_subgroup,
    frattini_of_p_group,
    is_nilpotent,
    is_quasisimple,
    is_simple,
    is_soluble,
    normal_subgroups,
    p_prime_part_of_nilpotent,
    sylow_subgroup,
)
from .towers import (
    Tower,
    _commutator_span,
    _elementary_abelian_gens,
    _p_subgroup_sets,
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
    pts = [(x, y) for x in range(3) for y in range(3)]
    index = {v: i for i, v in enumerate(pts)}

    def translation(a, b):
        return Permutation.from_zero_based(index[((x + a) % 3, (y + b) % 3)] for x, y in pts)

    def linear(m00, m01, m10, m11):
        return Permutation.from_zero_based(
            index[((x * m00 + y * m10) % 3, (x * m01 + y * m11) % 3)] for x, y in pts
        )

    t1, t2 = translation(1, 0), translation(0, 1)
    mi = linear(0, 1, 2, 0)
    mj = linear(1, 1, 1, 2)
    amb = FiniteGroup([t1, t2, mi, mj], degree=9, name="f3^2:q8")
    if amb.order() != 72:
        raise GroupError("affine plane instance built wrong")
    v = amb.subgroup([t1, t2])
    q8 = amb.subgroup([mi, mj])
    if q8.order() != 8:
        raise GroupError("quaternion part of the affine plane instance is off")
    return amb, v, q8


def _s4_wreath_2():
    """S4 wr C2 on 8 points with an abelian three-stage tower inside it."""
    g = FiniteGroup(
        [
            Permutation([2, 1, 3, 4, 5, 6, 7, 8]),
            Permutation([2, 3, 4, 1, 5, 6, 7, 8]),
            Permutation([1, 2, 3, 4, 6, 5, 7, 8]),
            Permutation([1, 2, 3, 4, 6, 7, 8, 5]),
            Permutation([5, 6, 7, 8, 1, 2, 3, 4]),
        ],
        degree=8,
        name="s4wr2",
    )
    if g.order() != 1152:
        raise GroupError("wreath ambient built wrong")
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
    P = build("extraspecial(3,+)").group
    flip = Permutation.from_zero_based(3 * (-x % 3) + y for x in range(3) for y in range(3))
    return P, flip


# ---------------------------------------------------------------------------
# small computations shared by the checks


def _join(ambient: FiniteGroup, *gen_lists) -> FiniteGroup:
    gens = []
    for gl in gen_lists:
        gens.extend(gl)
    return ambient._subgroup_raw(sorted(set(gens)))


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


def _coprime_pairs():
    """(tag, ambient, acted-on subgroup, acting subgroup), acting part cyclic
    unless noted.  Every pair has coprime orders and the acting subgroup
    normalizes the acted-on one; both facts are asserted downstream."""
    pairs = [
        ("agl1(%d) torus part of order %d on translations" % (q, d), amb, v, a)
        for q, d, amb, v, a in _tori()
    ]
    pairs.append(("sl2_3 order-3 element on its quaternion subgroup", *_sl23_on_q8()))
    amb, v, diag, half = _c35()
    pairs.append(("c35 under a diagonal of order 12", amb, v, diag))
    pairs.append(("c35 under the diagonal involution", amb, v, half))
    return pairs


def _noncyclic_abelian_pairs():
    pairs = []
    amb, v, scales = _affine(4, 4)
    pairs.append(("c2^4 under c3 x c3", amb, v, amb.subgroup(scales)))
    amb5, v5, scales5 = _affine(5, 5)
    pairs.append(("c5^2 under c2 x c2", amb5, v5, amb5.subgroup([s**2 for s in scales5])))
    amb9, v9, scales9 = _affine(9, 9)
    pairs.append(("c3^4 under c2 x c2", amb9, v9, amb9.subgroup([s**4 for s in scales9])))
    return pairs


def _check_action_preconditions(amb, g_sub, a_sub):
    if math.gcd(a_sub.order(), g_sub.order()) != 1:
        raise GroupError("instance is not coprime")
    if not g_sub.normalized_by(a_sub._raw_gens):
        raise GroupError("acting subgroup fails to normalize the instance")


# ---------------------------------------------------------------------------
# check families: each yields (instance, passed, witness) per instance


def check_cc_i(seed):
    for tag, amb, g, a in _coprime_pairs():
        _check_action_preconditions(amb, g, a)
        comm = _commutator_span(amb, a._raw_gens, g)
        cent = g.centralizer(a.generators)
        total = _join(amb, comm._raw_gens, cent._raw_gens)
        ok = total.order() == g.order()
        witness = {"comm_order": comm.order(), "cent_order": cent.order()}
        if ok and g.is_abelian():
            meet = set(comm._raw_elements()) & set(cent._raw_elements())
            ok = len(meet) == 1
            witness["meet_order"] = len(meet)
        yield tag, ok, witness


def check_cc_ii(seed):
    for tag, amb, g, a in _coprime_pairs():
        _check_action_preconditions(amb, g, a)
        once = _commutator_span(amb, a._raw_gens, g)
        twice = _commutator_span(amb, a._raw_gens, once)
        yield tag, once.same_group_as(twice), {"once": once.order(), "twice": twice.order()}


def _cc_iii_instances():
    amb, v, _, half = _c35()
    yield "c35 mod its c5 part", amb, v, half, amb.subgroup([v.generators[0]])
    sl23, q8, a3 = _sl23_on_q8()
    yield "q8 mod its centre", sl23, q8, a3, sl23.center()
    amb4, v4, scales4 = _affine(4, 4)
    a = amb4.subgroup(scales4)
    first_block = amb4.subgroup(v4.generators[:2])
    yield "c2^4 mod one block", amb4, v4, a, first_block


def check_cc_iii(seed):
    for tag, amb, g, a, n in _cc_iii_instances():
        _check_action_preconditions(amb, g, a)
        nchain = n.chain()
        # fixed points of the action on G/N, pulled back to G
        pulled = [
            x
            for x in g._raw_elements()
            if all(nchain.contains_raw(comm_raw(x, ag)) for ag in a._raw_gens)
        ]
        lhs = amb._subgroup_from_raw_elements(pulled).order()
        cent = g.centralizer(a.generators)
        rhs = _join(amb, n._raw_gens, cent._raw_gens).order()
        yield tag, lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_cc_v(seed):
    for tag, amb, g, a in _noncyclic_abelian_pairs():
        _check_action_preconditions(amb, g, a)
        if not is_nilpotent(g) or a.is_cyclic():
            raise GroupError("cc_v instance out of scope")
        pieces = []
        for aelt in _nontrivial_elements(a):
            pieces.append(g.centralizer([aelt])._raw_gens)
        total = _join(amb, *pieces)
        yield (
            tag,
            total.order() == g.order(),
            {"product_order": total.order(), "group_order": g.order()},
        )


def _cc_vi_instances():
    amb, v, diag, half = _c35()
    yield "c35 with the order-12 diagonal", amb, v, diag
    yield "c35 with the diagonal involution", amb, v, half
    # nonabelian target: the Frobenius group of order 21 under an involution
    amb7, v7, (scale7,) = _affine(7)
    f21 = amb7.subgroup(list(v7.generators) + [scale7**2])
    yield "frobenius 21 under an involution", amb7, f21, amb7.subgroup([scale7**3])
    yield ("quaternion group under an order-3 element", *_sl23_on_q8())


def check_cc_vi(seed):
    for tag, amb, g, a in _cc_vi_instances():
        _check_action_preconditions(amb, g, a)
        witness = {}
        for p in prime_factors(g.order()):
            syl = sylow_subgroup(g, p)
            found = _invariant_conjugate(amb, g, syl, a)
            witness[str(p)] = "found" if found else "missing"
        yield tag, "missing" not in witness.values(), witness


def _invariant_conjugate(amb, g: FiniteGroup, syl: FiniteGroup, a: FiniteGroup):
    """Some g-conjugate of the Sylow subgroup fixed by the acting subgroup."""
    for gens in g._conjugate_gen_sets(syl._raw_gens):
        cand = amb._subgroup_raw(list(gens))
        if cand.normalized_by(a._raw_gens):
            return cand
    return None


def check_kurzweil(seed):
    for q, d, amb, v, a in _tori():
        _check_action_preconditions(amb, v, a)
        if any(v.centralizer([x]).order() > 1 for x in _nontrivial_elements(a)):
            raise GroupError("kurzweil instance is not fixed point free")
        conditions = a.is_abelian() or (
            len(factorization(a.order())) == 1
            and (a.order() % 2 == 1 or not _is_quaternion8(a))
        )
        if not conditions:
            raise GroupError("kurzweil instance misses every hypothesis")
        yield (
            "agl1(%d) scaling subgroup of order %d" % (q, d),
            a.is_cyclic(),
            {"a_order": a.order()},
        )
    amb, v, q8 = _affine_plane_3()
    _check_action_preconditions(amb, v, q8)
    if any(v.centralizer([x]).order() > 1 for x in _nontrivial_elements(q8)):
        raise GroupError("quaternion instance is not fixed point free")
    yield (
        "q8 acting freely on c3 x c3",
        not q8.is_cyclic() and _is_quaternion8(q8),
        {"note": "the permitted quaternion exception: noncyclic yet fixed point free"},
    )


def check_acnoncop(seed):
    rng = random.Random(seed)
    instances = list(_noncyclic_abelian_pairs())
    # conjugated copies are genuinely different subgroup pairs of the ambient
    extra = []
    for tag, amb, v, a in instances[:2]:
        elems = amb._raw_elements()
        c = elems[rng.randrange(len(elems))]
        vv = amb._subgroup_raw([conj_raw(x, c) for x in v._raw_gens])
        aa = amb._subgroup_raw([conj_raw(x, c) for x in a._raw_gens])
        extra.append((tag + ", conjugated", amb, vv, aa))
    for tag, amb, v, a in instances + extra:
        _check_action_preconditions(amb, v, a)
        if a.is_cyclic() or not a.is_abelian() or not v.is_abelian():
            raise GroupError("acnoncop instance out of scope")
        meet = None
        for aelt in _nontrivial_elements(a):
            part = set(
                _commutator_span(amb, [aelt.raw], v)._raw_elements()
            )
            meet = part if meet is None else (meet & part)
        yield (
            tag,
            meet is not None and len(meet) == 1,
            {"intersection_order": len(meet) if meet else 0},
        )


def _orderofav_instances():
    for q, powers in ((5, (1, 2)), (7, (1, 2, 3)), (8, (1,)), (9, (1, 2, 4))):
        amb, v, (scale,) = _affine(q)
        for k in powers:
            a = scale**k
            yield "agl1(%d) with a of order %d" % (q, a.order()), amb, v, a.raw
    amb, v, (s1, s2) = _affine(5, 7)
    yield "c35 with a acting on the c5 part only", amb, v, s1.raw
    yield "c35 with a acting on the c7 part only", amb, v, (s2**2).raw


def check_orderofav(seed):
    for tag, amb, v, a_raw in _orderofav_instances():
        n = v.order()
        if math.gcd(n, order_raw(a_raw)) != 1:
            raise GroupError("orderofav instance is not coprime")
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
        yield tag, ok, {"qualifying_elements": checked, "comm_order": comm.order()}


def check_autoofextra(seed):
    heisenberg, flip = _heisenberg_with_flip()
    _, q8, a3 = _sl23_on_q8()
    for tag, P, phi_raw in (
        ("heisenberg 27 under the inverting involution", heisenberg, flip.raw),
        ("quaternion group under an order-3 automorphism", q8, a3._raw_gens[0]),
    ):
        # the automorphism must normalize P and centralize exactly the frattini part
        if not P.normalized_by([phi_raw]):
            raise GroupError("automorphism fails to normalize the instance")
        if math.gcd(order_raw(phi_raw), P.order()) != 1:
            raise GroupError("automorphism order is not coprime")
        frat = frattini_of_p_group(P)
        if not P.centralizer([Permutation._from_raw(phi_raw)]).same_group_as(frat):
            raise GroupError("fixed points differ from the frattini subgroup")
        values = {comm_raw(x, phi_raw) for x in P._raw_elements()}
        # the values lie in P, so their closure under P's conjugation is the
        # union of the classes of P that they meet
        class_of = P._class_index()
        hit = {class_of[y] for y in values}
        frat_set = set(frat._raw_elements())
        missing = [
            x for x in P._raw_elements() if x not in frat_set and class_of[x] not in hit
        ]
        yield tag, not missing, {"value_count": len(values), "missed": len(missing)}


def _q8_automorphisms():
    """All automorphisms of the quaternion group of order 8 as element maps."""
    q8 = build("q8").group
    elems = sorted(q8._raw_elements())
    ident = identity_raw(q8.degree)
    order4 = [x for x in elems if order_raw(x) == 4]
    i0 = order4[0]
    j0 = next(x for x in order4 if x not in (i0, inv_raw(i0)))
    words = {}
    for a in range(4):
        for b in range(2):
            w = ident
            for _ in range(a):
                w = mul_raw(w, i0)
            if b:
                w = mul_raw(w, j0)
            words[(a, b)] = w
    if len(set(words.values())) != 8:
        raise GroupError("quaternion word table is wrong")
    auts = []
    for u in order4:
        for v in order4:
            if v in (u, inv_raw(u)):
                continue
            phi = {}
            good = True
            for (a, b), w in words.items():
                img = ident
                for _ in range(a):
                    img = mul_raw(img, u)
                if b:
                    img = mul_raw(img, v)
                phi[w] = img
            if len(set(phi.values())) != 8:
                continue
            for x in elems:
                for y in elems:
                    if phi[mul_raw(x, y)] != mul_raw(phi[x], phi[y]):
                        good = False
                        break
                if not good:
                    break
            if good:
                auts.append(phi)
    if len(auts) != 24:
        raise GroupError("expected 24 automorphisms of q8, found %d" % len(auts))
    return q8, elems, auts


def check_autodoquaternion(seed):
    q8, elems, auts = _q8_automorphisms()
    z = next(x for x in elems if order_raw(x) == 2)
    involutory = [
        phi for phi in auts if all(phi[phi[x]] == x for x in elems) and any(phi[x] != x for x in elems)
    ]
    yield (
        "automorphism group size",
        len(auts) == 24,
        {"count": len(auts), "involutory": len(involutory)},
    )
    for k, phi in enumerate(involutory):
        found = any(mul_raw(inv_raw(u), phi[u]) == z for u in elems)
        yield "involutory automorphism %d" % (k + 1), found, {"u_found": found}


def check_aaa_scenario(seed):
    rng = random.Random(seed)
    amb, p1, p2, p3 = _s4_wreath_2()
    stage_sets = [(p1, p2, p3)]
    elems = amb._raw_elements()
    for _ in range(3):
        c = elems[rng.randrange(len(elems))]
        stage_sets.append(
            tuple(
                amb._subgroup_raw([conj_raw(x, c) for x in s._raw_gens])
                for s in (p1, p2, p3)
            )
        )
    for k, (a1, a2, a3) in enumerate(stage_sets):
        tag = "instance %d" % (k + 1)
        tower = Tower(amb, [(2, a1), (3, a2), (2, a3)])
        report = validate_tower(tower)
        hypo = (
            report.valid
            and a1.is_cyclic()
            and a2.is_abelian()
            and not a2.is_cyclic()
            and a3.is_abelian()
            and _commutator_span(amb, a1._raw_gens, a2).same_group_as(a2)
        )
        if not hypo:
            yield tag, False, {"hypotheses": False}
            continue
        scope = FiniteGroup(
            a1.generators + a2.generators + a3.generators, degree=amb.degree
        )
        wit = scope.cppo_witness()
        yield (
            tag,
            wit is not None and not is_prime_power(wit.order),
            {"scope_order": scope.order(), "witness_order": wit.order if wit else None},
        )


def check_opelinha(seed):
    for name, g in corpus_groups_upto(1000):
        if not g.is_cppo():
            continue
        centre = g.center()
        zchain = centre.chain()
        count = 0
        for n in normal_subgroups(g):
            if n.order() == 1 or not is_nilpotent(n):
                continue
            count += 1
            if count > 8:  # keep reports readable on lattice-rich groups
                break
            good_p = None
            for p in prime_factors(n.order()):
                part = p_prime_part_of_nilpotent(n, p)
                if all(zchain.contains_raw(x) for x in part._raw_gens):
                    good_p = p
                    break
            yield (
                "%s, nilpotent normal of order %d" % (name, n.order()),
                good_p is not None,
                {"p": good_p},
            )


def check_directproduct(seed):
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
    seen = set()
    for left, right in picks:
        key = (left, right)
        if key in seen:
            continue
        seen.add(key)
        g = build("direct_product(%s,%s)" % (left, right)).group
        factors = (build(left).group, build(right).group)
        if any(f.is_abelian() for f in factors):
            raise GroupError("direct product instance needs nonabelian factors")
        tag = "%s x %s" % (left, right)
        if not g.is_cppo():
            wit = g.cppo_witness()
            yield tag, True, {"note": "not cppo, out of scope", "witness_order": wit.order}
            continue
        d = g.derived_subgroup()
        yield tag, len(factorization(d.order())) == 1, {"derived_order": d.order()}


def check_solubleperfect(seed):
    rng = random.Random(seed)
    for gid, nkind in (("sl2_5", "centre"), ("sl2_9", "centre"), ("asl2_4", "fitting")):
        g = build(gid).group
        n = g.center() if nkind == "centre" else fitting_subgroup(g)
        if g.derived_subgroup().order() != g.order():
            raise GroupError("instance group is not perfect")
        if not is_soluble(n):
            raise GroupError("chosen normal part is not soluble")
        q = quotient_by_normal(g, n)
        if not is_simple(q):
            raise GroupError("quotient by the normal part is not simple")
        nchain = n.chain()
        elems = g._raw_elements()
        chosen = []
        while len(chosen) < 3:
            x = elems[rng.randrange(len(elems))]
            if not nchain.contains_raw(x):
                chosen.append(x)
        for k, x in enumerate(chosen):
            qsub = g._subgroup_raw([x])
            span = _commutator_span(g, list(qsub._raw_gens), g)
            yield (
                "%s with cyclic q of order %d, sample %d" % (gid, order_raw(x), k + 1),
                span.order() == g.order(),
                {"span_order": span.order()},
            )


def check_existelemabelqsub(seed):
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
            found = _find_covered_elem_abelian(g, qprime)
            yield "%s with q = %d" % (gid, qprime), found is not None, found or {}


def _find_covered_elem_abelian(g: FiniteGroup, qprime: int):
    """An elementary abelian q-subgroup Q and a coprime prime-power element a
    with [Q, a] = Q, by direct search over small q-subgroups."""
    candidates = [
        gens for _, gens in _p_subgroup_sets(g, qprime) if _elementary_abelian_gens(gens, qprime)
    ]
    # sylow_subgroup has filled the order table while listing the candidates
    elems, orders = g._raw_elements(), _element_orders(g)
    for gens in candidates[:40]:
        cand = g._subgroup_raw(gens)
        size = cand.order()
        for a, o in zip(elems, orders):
            if o == 1 or not is_prime_power(o) or o % qprime == 0:
                continue
            if not cand.normalized_by([a]):
                continue
            span = _commutator_span(g, [a], cand)
            if span.order() == size:
                return {"q_order": size, "a_order": o}
    return None


def check_quasisimple_negative(seed):
    for gid in ("sl2_5", "sl2_9"):
        g = build(gid).group
        if not is_quasisimple(g):
            raise GroupError("%s should be quasisimple" % gid)
        wit = g.cppo_witness()
        yield (
            gid,
            wit is not None and not is_prime_power(wit.order),
            {"witness_order": wit.order if wit else None},
        )


def check_ore_spotcheck(seed):
    for q in (4, 5, 7, 8, 9):
        g = build(("psl2", [q])).group
        comm = g.commutator_set()
        yield (
            "psl2(%d)" % q,
            len(comm) == g.order(),
            {"commutators": len(comm), "order": g.order()},
        )


def check_casolo_quotient(seed):
    for name, g in corpus_groups_upto(500):
        if not is_soluble(g):
            continue
        h = fitting_height(g)
        if h < 2:
            continue
        _, tower = find_max_tower(g)
        stage_elems = [s._raw_elements() for _, s in tower.stages]
        bottom_gens = tower.stages[-1][1]._raw_gens
        ident = identity_raw(g.degree)
        taken = 0
        for n in normal_subgroups(g):
            if taken >= 4:
                break
            nchain = n.chain()
            hypo = True
            for i in range(len(tower.stages) - 1):
                for x in stage_elems[i]:
                    if nchain.contains_raw(x):
                        if any(comm_raw(b, x) != ident for b in bottom_gens):
                            hypo = False
                            break
                if not hypo:
                    break
            if not hypo:
                continue
            taken += 1
            quo = quotient_by_normal(g, n)
            img = quotient_tower(Tower(g, tower.stages[:-1]), quo)
            yield (
                "%s mod normal of order %d" % (name, n.order()),
                validate_tower(img).valid,
                {"image_height": img.height},
            )


def check_p3_noncyclic(seed):
    towers = []
    for name, g in corpus_groups_upto(500):
        if is_soluble(g) and fitting_height(g) >= 3:
            towers.append((name, find_max_tower(g)[1]))
    amb, p1, p2, p3 = _s4_wreath_2()
    towers.append(("s4wr2 abelian tower", Tower(amb, [(2, p1), (3, p2), (2, p3)])))
    for name, tower in towers:
        bad = [
            i + 1
            for i, (_, s) in enumerate(tower.stages)
            if i + 1 >= 3 and s.is_cyclic()
        ]
        yield "%s, height %d" % (name, tower.height), not bad, {"cyclic_stages": bad}


def _records(lemma_id, family):
    """The registry entry for one family: run(seed) drains the family and
    returns its LemmaCheck records as a list, in the order yielded."""

    def run(seed):
        return [
            LemmaCheck(lemma_id, instance, "pass" if passed else "fail", witness)
            for instance, passed, witness in family(seed)
        ]

    return run


REGISTRY = {
    lemma_id: _records(lemma_id, family)
    for lemma_id, family in {
        "cc_i": check_cc_i,
        "cc_ii": check_cc_ii,
        "cc_iii": check_cc_iii,
        "cc_v": check_cc_v,
        "cc_vi": check_cc_vi,
        "kurzweil": check_kurzweil,
        "acnoncop": check_acnoncop,
        "orderofav": check_orderofav,
        "autoofextra": check_autoofextra,
        "autodoquaternion": check_autodoquaternion,
        "aaa_scenario": check_aaa_scenario,
        "opelinha": check_opelinha,
        "directproduct": check_directproduct,
        "solubleperfect": check_solubleperfect,
        "existelemabelqsub": check_existelemabelqsub,
        "quasisimple_negative": check_quasisimple_negative,
        "ore_spotcheck": check_ore_spotcheck,
        "casolo_quotient": check_casolo_quotient,
        "p3_noncyclic": check_p3_noncyclic,
    }.items()
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
