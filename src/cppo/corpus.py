"""The default verification corpus.

A curated list of group-spec documents: enough soluble groups of order at
most 200 to make the brute-force commutator cross-checks meaningful, the
seven simple groups whose element orders are all prime powers together with
near misses that fail the property, and the automorphism extensions used in
the negative commutator-order computations.  One document carries explicit
generators rather than an atlas id so that code path stays exercised.
"""

from __future__ import annotations

import json

from .atlas import load_group_spec
from .errors import SchemaError

# Each document with the order of its group, so that a caller wanting only
# the small groups can drop the others before building them.  The builders
# assert the orders.

# Soluble and small.
_SOLUBLE = [
    (12, {"atlas": "cyclic", "params": [12]}),
    (30, {"atlas": "cyclic", "params": [30]}),
    (8, {"atlas": "elem_abelian", "params": [2, 3]}),
    (9, {"atlas": "elem_abelian", "params": [3, 2]}),
    (8, {"atlas": "dihedral", "params": [4]}),
    (10, {"atlas": "dihedral", "params": [5]}),
    (24, {"atlas": "dihedral", "params": [12]}),
    (30, {"atlas": "dihedral", "params": [15]}),
    (6, {"atlas": "sym", "params": [3]}),
    (12, {"atlas": "alt", "params": [4]}),
    (24, {"name": "s4_explicit", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]}),
    (24, {"atlas": "s4"}),
    (8, {"atlas": "q8"}),
    (24, {"atlas": "sl2_3"}),
    (27, {"atlas": "extraspecial", "params": [3, "+"]}),
    (27, {"atlas": "extraspecial", "params": [3, "-"]}),
    (32, {"atlas": "extraspecial", "params": [2, "+"]}),
    (32, {"atlas": "extraspecial", "params": [2, "-"]}),
    (20, {"atlas": "agl1", "params": [5]}),
    (42, {"atlas": "agl1", "params": [7]}),
    (56, {"atlas": "agl1", "params": [8]}),
    (72, {"atlas": "agl1", "params": [9]}),
    (36, {"atlas": "direct_product", "params": ["sym(3)", "sym(3)"]}),
    (64, {"atlas": "direct_product", "params": ["q8", "dihedral(4)"]}),
    (144, {"atlas": "direct_product", "params": ["sym(3)", "s4"]}),  # not CPPO
]

# Insoluble, including every group on the prime-power-element-order list,
# the four standard near misses, and the extensions with order-6 commutators.
_INSOLUBLE = [
    (60, {"atlas": "alt", "params": [5]}),
    (60, {"atlas": "psl2", "params": [4]}),
    (60, {"atlas": "psl2", "params": [5]}),
    (168, {"atlas": "psl2", "params": [7]}),
    (504, {"atlas": "psl2", "params": [8]}),
    (360, {"atlas": "psl2", "params": [9]}),
    (2448, {"atlas": "psl2", "params": [17]}),
    (660, {"atlas": "psl2", "params": [11]}),  # has order-6 elements
    (1092, {"atlas": "psl2", "params": [13]}),  # has order-6 elements
    (2520, {"atlas": "alt", "params": [7]}),
    (20160, {"atlas": "alt", "params": [8]}),
    (20160, {"atlas": "psl3_4"}),
    (29120, {"atlas": "sz8"}),
    (120, {"atlas": "sl2_5"}),  # quasisimple but not simple
    (720, {"atlas": "sl2_9"}),  # quasisimple but not simple
    (960, {"atlas": "asl2_4"}),
    (720, {"atlas": "m10"}),
    (720, {"atlas": "pgl2_9"}),
    (720, {"atlas": "psigmal2_9"}),
    (1440, {"atlas": "pgammal2_9"}),
    (40320, {"atlas": "psl34_phi_ext"}),
    (120960, {"atlas": "psl34_g1"}),  # the order-6 commutator witness
]

SOLUBLE_AND_SMALL = [doc for _, doc in _SOLUBLE]
INSOLUBLE_AND_LARGE = [doc for _, doc in _INSOLUBLE]


def default_corpus() -> list:
    """Fresh copies of the corpus documents, soluble block first."""
    return [dict(doc) for doc in SOLUBLE_AND_SMALL + INSOLUBLE_AND_LARGE]


def corpus_groups(documents=None) -> list:
    """(display name, group) pairs for each document."""
    if documents is None:
        documents = default_corpus()
    out = []
    for doc in documents:
        g = load_group_spec(doc)
        out.append((g.name or "unnamed", g))
    return out


def corpus_groups_upto(bound: int):
    """corpus_groups() of the default corpus for the groups of order at most
    bound, lazily: each group is built when the caller reaches it and none
    is kept here, so a caller that drops each group in turn holds one at a
    time.  The other documents are dropped by their recorded order, unbuilt."""
    for order, doc in _SOLUBLE + _INSOLUBLE:
        if order <= bound:
            yield from corpus_groups([dict(doc)])


def write_corpus_file(path, documents=None) -> None:
    if documents is None:
        documents = default_corpus()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(documents, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_corpus_file(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            documents = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("corpus file is not well-formed: %s" % exc) from exc
    if not isinstance(documents, list):
        raise SchemaError("corpus file must hold a list of group specs")
    return documents
