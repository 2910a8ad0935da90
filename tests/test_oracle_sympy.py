"""Stabilizer chains cross-checked against sympy's, on every corpus and atlas group.

sympy is an independent implementation of Schreier-Sims; it is used here
only as a test oracle and the test is skipped where it is not installed.
"""

import random

import pytest

from cppo.atlas import build, catalog_names, load_group_spec, parse_atlas_id
from cppo.corpus import default_corpus
from cppo.permutation import identity_raw, mul_raw, raw_from_images

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
