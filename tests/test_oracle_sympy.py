"""Chains, conjugacy classes and series cross-checked against sympy.

sympy is an independent implementation of Schreier-Sims, conjugacy classes
and derived series; it is used here only as a test oracle and the tests are
skipped where it is not installed.
"""

import random

import pytest

from cppo.atlas import build, catalog_names, load_group_spec, parse_atlas_id
from cppo.corpus import default_corpus
from cppo.permutation import identity_raw, mul_raw, raw_from_images
from cppo.structure import derived_series, is_soluble

combinatorics = pytest.importorskip("sympy.combinatorics")

# the catalog entries the corpus does not build, and three more parameter choices
EXTRA_ATLAS_IDS = [
    "alt(6)",
    "psl34_g2",
    "s6_in_pgammal29",
    "extraspecial(5,+)",
    "elem_abelian(5,2)",
]


def _groups():
    groups = [load_group_spec(doc) for doc in default_corpus()]
    return groups + [build(text).group for text in EXTRA_ATLAS_IDS]


def test_every_catalog_entry_is_covered():
    built = {doc.get("atlas") for doc in default_corpus()}
    built.update(parse_atlas_id(text)[0] for text in EXTRA_ATLAS_IDS)
    assert set(catalog_names()) <= built


def test_orders_and_membership_agree_with_sympy():
    rng = random.Random(20)
    for g in _groups():
        chain = g.chain()
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(r)) for r in g._raw_gens]
        )
        assert chain.order() == oracle.order(), g.name
        words = []
        for _ in range(20):
            x = identity_raw(g.degree)
            for _ in range(rng.randint(1, 10)):
                x = mul_raw(x, rng.choice(g._raw_gens))
            words.append(x)
        shuffles = []
        for _ in range(20):
            images = list(range(g.degree))
            rng.shuffle(images)
            shuffles.append(raw_from_images(images))
        for x in words + shuffles:
            expected = oracle.contains(combinatorics.Permutation(list(x)))
            assert chain.contains_raw(x) == expected, (g.name, list(x))
        assert all(chain.contains_raw(x) for x in words), g.name


def _oracle(g):
    gens = g._raw_gens or [identity_raw(g.degree)]
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(r)) for r in gens])


def _corpus_groups(keep):
    return [g for g in (load_group_spec(doc) for doc in default_corpus()) if keep(g)]


def test_conjugacy_classes_agree_with_sympy():
    groups = _corpus_groups(lambda g: g.order() <= 1500)
    assert len(groups) == 40
    for g in groups:
        ours = sorted(sorted(c.members) for c in g._raw_classes())
        theirs = sorted(
            sorted(raw_from_images(p.array_form) for p in cls)
            for cls in _oracle(g).conjugacy_classes()
        )
        assert [len(c) for c in ours] == [len(c) for c in theirs], g.name
        assert ours == theirs, g.name


def test_centralizers_of_class_representatives_agree_with_sympy():
    groups = _corpus_groups(lambda g: g.degree <= 120 and g.order() <= 1500)
    assert len(groups) == 39
    for g in groups:
        oracle = _oracle(g)
        for c in g.conjugacy_classes():
            rep = c.representative
            theirs = oracle.centralizer(combinatorics.Permutation(list(rep.raw))).order()
            assert g.centralizer([rep]).order() == theirs == g.order() // c.size, (g.name, rep)


def test_derived_series_and_centre_agree_with_sympy():
    groups = _corpus_groups(lambda g: g.degree <= 120)
    assert len(groups) == 46
    for g in groups:
        oracle = _oracle(g)
        # equal series give equal derived lengths of the soluble groups;
        # sympy's is_solvable would compute its series a second time
        theirs = [t.order() for t in oracle.derived_series()]
        assert [t.order() for t in derived_series(g).terms] == theirs, g.name
        assert is_soluble(g) == (theirs[-1] == 1), g.name
        assert g.center().order() == oracle.center().order(), g.name
