"""Commutator prime-power order toolkit for finite permutation groups."""

from .atlas import build, catalog_names, load_group_spec
from .corpus import default_corpus, read_corpus_file, write_corpus_file
from .errors import (
    AtlasError,
    ClassCapError,
    CycleParseError,
    DegreeMismatchError,
    EnumerationCapError,
    GroupError,
    InsolubleError,
    NotInGroupError,
    NotNilpotentError,
    NotNormalError,
    NotPGroupError,
    NotSimpleError,
    SchemaError,
    TowerDefectError,
)
from .group import (
    DEFAULT_ENUMERATION_CAP,
    ConjugacyClass,
    CppoWitness,
    EppoWitness,
    FiniteGroup,
    QuotientGroup,
    quotient_by_normal,
)
from .harness import (
    ClassificationReport,
    classify,
    load_results,
    persist_results,
    run_full_suite,
    run_lemma_suite,
    run_theorem_suite,
)
from .lemmas import LemmaCheck
from .permutation import Permutation, parse_permutation
from .structure import p_prime_part_of_nilpotent
from .towers import (
    Tower,
    find_max_tower,
    is_irreducible_tower,
    tower_probe,
    validate_tower,
)

__all__ = [
    "AtlasError",
    "ClassCapError",
    "ClassificationReport",
    "ConjugacyClass",
    "CppoWitness",
    "CycleParseError",
    "DEFAULT_ENUMERATION_CAP",
    "DegreeMismatchError",
    "EnumerationCapError",
    "EppoWitness",
    "FiniteGroup",
    "GroupError",
    "InsolubleError",
    "LemmaCheck",
    "NotInGroupError",
    "NotNilpotentError",
    "NotNormalError",
    "NotPGroupError",
    "NotSimpleError",
    "Permutation",
    "QuotientGroup",
    "SchemaError",
    "Tower",
    "TowerDefectError",
    "build",
    "catalog_names",
    "classify",
    "default_corpus",
    "find_max_tower",
    "is_irreducible_tower",
    "load_group_spec",
    "load_results",
    "p_prime_part_of_nilpotent",
    "parse_permutation",
    "persist_results",
    "quotient_by_normal",
    "read_corpus_file",
    "run_full_suite",
    "run_lemma_suite",
    "run_theorem_suite",
    "tower_probe",
    "validate_tower",
    "write_corpus_file",
]
