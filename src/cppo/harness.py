"""Classification reports and corpus-level verification suites.

classify() distills one group into a flat report: global flags, the derived
and radical structure, and for soluble groups a certified tower.  The two
suite runners then check the package's headline claims about CPPO-groups
over a corpus:

  theorem 1 (soluble shape): a soluble CPPO-group has Fitting height at
  most 3 and at most 3 primes dividing its derived subgroup.

  theorem 2 (insoluble shape): for an insoluble CPPO-group G, the derived
  subgroup is perfect, its radical R(G') equals [G', R(G)] and is a
  2-group, and G'/R(G') is one of the eight simple EPPO-groups.

Groups that are not CPPO are recorded as not applicable together with the
witness commutator.  The fields that need G's elements are filled by one
routine inside the package's only handler of the cap error: past G's cap
it marks skipped the fields of one table, three for a soluble group and
seven for an insoluble one, and no other field depends on the cap.  A
soluble group's R(G) = G and its Fitting height, read off the lower
nilpotent series, need no elements.  Reports serialize to a canonical
structured form, so identical corpus and seed give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .arith import is_prime_power, prime_factors
from .atlas import load_group_spec
from .errors import (
    EnumerationCapError,
    NotSimpleError,
    SchemaError,
    TowerDefectError,
)
from .group import FiniteGroup
from .lemmas import REGISTRY, LemmaCheck
from .structure import (
    fitting_height,
    identify_simple_eppo,
    is_perfect,
    is_soluble,
    soluble_radical,
    upper_fitting_series,
)
from .towers import _commutator_span, find_max_tower, tower_to_data

SCHEMA_VERSION = 1


# the report fields that need G's elements, by solubility: past G's cap each
# is a skip marker, and every other field stays exact
_PAST_CAP_FIELDS = {
    True: ("is_eppo", "is_cppo", "tower_height"),
    False: ("is_eppo", "is_cppo", "radical_order", "derived_radical_order",
            "derived_radical_is_2_group", "derived_radical_closure_order", "simple_quotient"),
}


@dataclass
class ClassificationReport:
    name: str
    order: int
    primes: list
    is_soluble: bool
    is_perfect: bool
    is_eppo: object = None  # bool, or a skip marker string
    is_cppo: object = None
    derived_order: int = 0
    derived_primes: list = field(default_factory=list)
    derived_is_eppo: object = None  # recorded for CPPO groups, data only
    radical_order: int = 0
    fitting_height: object = None  # soluble groups only
    tower_height: object = None
    tower_witness: object = None
    second_derived_equals_derived: object = None  # insoluble block
    derived_radical_order: object = None
    derived_radical_is_2_group: object = None
    derived_radical_closure_order: object = None
    simple_quotient: object = None
    theorem1: str = "not_applicable"
    theorem2: str = "not_applicable"
    witnesses: dict = field(default_factory=dict)


def _cppo_witness_data(w) -> dict:
    return {
        "commutator": str(w.commutator),
        "order": w.order,
        "left": str(w.left),
        "right": str(w.right),
    }


def classify(G: FiniteGroup) -> ClassificationReport:
    """A full structural report on one group.

    The fields that need G's elements are filled by one routine,
    _element_fields; past the group's own enumeration cap each field that
    _PAST_CAP_FIELDS lists for its solubility is a skip marker instead,
    and the theorem fields stay not_applicable.
    """
    order = G.order()
    r = ClassificationReport(
        name=G.name or "unnamed",
        order=order,
        primes=prime_factors(order),
        is_soluble=is_soluble(G),
        is_perfect=is_perfect(G),
    )
    derived = G.derived_subgroup()
    r.derived_order = derived.order()
    r.derived_primes = prime_factors(derived.order())
    if r.is_soluble:
        # R(G) = G, and the lower nilpotent series is chain closures only
        r.radical_order = order
        r.fitting_height = fitting_height(G)
    try:
        _element_fields(G, derived, r)
    except EnumerationCapError as e:
        for fld in _PAST_CAP_FIELDS[r.is_soluble]:
            setattr(r, fld, "skipped: too large (cap=%d)" % e.cap)
    if not r.is_soluble:
        # G'' is one more closure, so this field needs no enumeration
        second = derived.derived_subgroup()
        r.second_derived_equals_derived = second.order() == derived.order()

    if r.is_cppo is True:
        if r.is_soluble:
            ok = r.fitting_height <= 3 and len(r.derived_primes) <= 3
            r.theorem1 = "pass" if ok else "fail"
        else:
            ok = (
                r.second_derived_equals_derived
                and r.derived_radical_is_2_group
                and r.derived_radical_order == r.derived_radical_closure_order
                and r.simple_quotient not in ("NotInList", "NotSimple")
            )
            r.theorem2 = "pass" if ok else "fail"
    return r


def _element_fields(G: FiniteGroup, derived: FiniteGroup, r: ClassificationReport) -> None:
    """Fill the fields of r that need G's elements.

    The EPPO witness comes first: it enumerates G, so past G's cap the cap
    error leaves before any field is set.  Below the cap nothing after it
    can hit that cap, since R(G), G', R(G') and G'/R(G') are no larger
    than G.
    """
    ew = G.eppo_witness()
    r.is_eppo = ew is None
    cw = G.cppo_witness()
    r.is_cppo = cw is None
    if cw is not None:
        r.witnesses["cppo"] = _cppo_witness_data(cw)
    if ew is not None:
        r.witnesses["eppo"] = {"element": str(ew.element), "order": ew.order}
    if r.is_cppo:
        # open data question: is the derived subgroup of a CPPO group EPPO?
        # It is the union of the classes derived_classes names.
        classes = G._raw_classes()
        r.derived_is_eppo = all(is_prime_power(classes[k].order) for k in G.derived_classes())

    if r.is_soluble:
        try:
            r.tower_height, tower = find_max_tower(G)
            r.tower_witness = tower_to_data(tower)
        except TowerDefectError as e:
            r.tower_height = "defect: %s" % e
        return
    radical = soluble_radical(G)
    r.radical_order = radical.order()
    # R(G') = G' n R(G), so G'/R(G') is (G/R(G))', read off the last
    # quotient that G's own series keeps
    top = derived
    if radical.order() > 1:
        series = upper_fitting_series(G)
        top = series.quotients[len(series.terms) - 1].derived_subgroup()
    r.derived_radical_order = derived.order() // top.order()
    r.derived_radical_is_2_group = prime_factors(r.derived_radical_order) in ([], [2])
    r.derived_radical_closure_order = _commutator_span(G, list(derived._raw_gens), radical).order()
    try:
        r.simple_quotient = identify_simple_eppo(top)
    except NotSimpleError:
        r.simple_quotient = "NotSimple"


def skipped_fields(rep: ClassificationReport) -> list:
    """(field, skip marker) for each report field skipped past a cap, in field order."""
    return [
        (fld, v)
        for fld, v in vars(rep).items()
        if fld != "name" and isinstance(v, str) and v.startswith("skipped")
    ]


# ---------------------------------------------------------------------------
# suite runners


@dataclass
class SuiteResult:
    reports: list
    failures: list
    skips: list

    @property
    def ok(self) -> bool:
        return not self.failures


def run_theorem_suite(documents, cap: int | None = None, strict: bool = False) -> SuiteResult:
    """classify() every corpus document and collect theorem violations."""
    reports = []
    failures = []
    skips = []
    for doc in documents:
        # the group carries the suite's cap, so one budget governs all of classify
        rep = classify(load_group_spec(doc).with_cap(cap))
        reports.append(rep)
        for verdict, label in ((rep.theorem1, "theorem1"), (rep.theorem2, "theorem2")):
            if verdict == "fail":
                failures.append("%s: %s violated" % (rep.name, label))
        skips.extend("%s: %s %s" % (rep.name, fld, v) for fld, v in skipped_fields(rep))
    if strict:
        failures = failures + ["strict: " + s for s in skips]
    return SuiteResult(reports, failures, skips)


def run_lemma_suite(ids=None, seed: int = 0) -> list[LemmaCheck]:
    """Run the registered per-result instance checks, in registry order."""
    if ids is None:
        ids = list(REGISTRY)
    checks = []
    for lid in ids:
        if lid not in REGISTRY:
            raise ValueError("unknown lemma id %r" % lid)
        checks.extend(REGISTRY[lid](seed))
    return checks


@dataclass
class FullSuiteResult:
    theorems: SuiteResult
    lemmas: list

    @property
    def ok(self) -> bool:
        return self.theorems.ok and all(c.status == "pass" for c in self.lemmas)


def run_full_suite(documents, ids=None, seed: int = 0) -> FullSuiteResult:
    return FullSuiteResult(
        theorems=run_theorem_suite(documents),
        lemmas=run_lemma_suite(ids, seed=seed),
    )


# ---------------------------------------------------------------------------
# canonical serialization


def _report_from_doc(doc: dict) -> ClassificationReport:
    if not isinstance(doc, dict):
        raise SchemaError("a report must be a mapping, got %r" % (doc,))
    known = {f: doc[f] for f in ClassificationReport.__dataclass_fields__ if f in doc}
    missing = set(doc) - set(known)
    if missing:
        raise SchemaError("unknown report fields: %s" % sorted(missing))
    try:
        return ClassificationReport(**known)
    except TypeError as e:  # a field without a default is absent
        raise SchemaError("report lacks required fields: %s" % e)


def _to_text(**sections) -> str:
    """Canonical structured form: fixed key order, sorted nothing, newline end.
    A record enters it as a shallow copy of its own field dict, in field
    order: serializing only reads the values, so nothing nested is copied."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **sections}, indent=2) + "\n"


def reports_to_text(reports) -> str:
    """The reports alone, as persist_results writes them."""
    return _to_text(reports=[dict(vars(r)) for r in reports])


def persist_results(reports, path) -> None:
    with open(path, "w") as fh:
        fh.write(reports_to_text(reports))


def load_results(path) -> list[ClassificationReport]:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError("results file is not valid structured text: %s" % e)
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise SchemaError("results file lacks a schema version header")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            "results schema version %r is not %d" % (payload["schema_version"], SCHEMA_VERSION)
        )
    if "reports" not in payload:
        raise SchemaError("results file has no reports section")
    reports = payload["reports"]
    if not isinstance(reports, list):
        raise SchemaError("reports must be a list")
    return [_report_from_doc(d) for d in reports]


def lemma_checks_to_doc(checks) -> list:
    return [dict(vars(c)) for c in checks]


def _theorem_sections(suite: SuiteResult) -> dict:
    """A theorem suite's sections, in order: reports as field dicts, failures, skips."""
    reports = [dict(vars(r)) for r in suite.reports]
    return {"reports": reports, "failures": suite.failures, "skips": suite.skips}


def theorem_suite_to_text(suite: SuiteResult) -> str:
    return _to_text(**_theorem_sections(suite))


def lemma_suite_to_text(checks) -> str:
    return _to_text(lemma_checks=lemma_checks_to_doc(checks))


def full_suite_to_text(result: FullSuiteResult) -> str:
    return _to_text(
        **_theorem_sections(result.theorems), lemma_checks=lemma_checks_to_doc(result.lemmas)
    )
