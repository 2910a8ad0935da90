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
witness commutator.  Reports serialize to a canonical structured form, so
identical corpus and seed give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .arith import factorization, prime_factors
from .atlas import load_group_spec
from .errors import (
    EnumerationCapError,
    NotSimpleError,
    SchemaError,
    TowerDefectError,
)
from .group import FiniteGroup, quotient_by_normal
from .lemmas import REGISTRY, LemmaCheck
from .structure import (
    fitting_height,
    identify_simple_eppo,
    is_perfect,
    is_soluble,
    soluble_radical,
)
from .towers import _commutator_span, find_max_tower, tower_to_data

SCHEMA_VERSION = 1


def _skip_marker(cap: int) -> str:
    return "skipped: too large (cap=%d)" % cap


# the insoluble-group block, which needs R(G)
_DERIVED_RADICAL_FIELDS = (
    "second_derived_equals_derived",
    "derived_radical_order",
    "derived_radical_is_2_group",
    "derived_radical_closure_order",
    "simple_quotient",
)


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


def classify(G: FiniteGroup, name: str | None = None, cap: int | None = None) -> ClassificationReport:
    """A full structural report on one group.

    Fields that need element or class enumeration are skipped past the cap
    (the group's own enumeration cap unless one is given), and past the
    group's own cap in any case, instead of failing; skipped verdicts leave
    the theorem fields not_applicable.
    """
    cap = G.cap if cap is None else cap
    order = G.order()
    r = ClassificationReport(
        name=name or G.name or "unnamed",
        order=order,
        primes=prime_factors(order),
        is_soluble=is_soluble(G),
        is_perfect=is_perfect(G),
    )
    derived = G.derived_subgroup()
    r.derived_order = derived.order()
    r.derived_primes = prime_factors(derived.order())
    # R(G) comes from the upper Fitting series, which enumerates G.  Past
    # G's own cap it is skipped together with every field that needs G's
    # elements; below it, nothing else here can hit that cap.
    radical = skipped = None
    try:
        radical = soluble_radical(G)
    except EnumerationCapError as e:
        skipped = _skip_marker(e.cap)
    r.radical_order = skipped or radical.order()

    elements_skipped = _skip_marker(cap) if order > cap else skipped
    if elements_skipped:
        r.is_eppo = r.is_cppo = elements_skipped
    else:
        r.is_eppo = G.is_eppo()
        cw = G.cppo_witness()
        r.is_cppo = cw is None
        if cw is not None:
            r.witnesses["cppo"] = _cppo_witness_data(cw)
        ew = G.eppo_witness()
        if ew is not None:
            r.witnesses["eppo"] = {"element": str(ew.element), "order": ew.order}
        if r.is_cppo:
            # open data question: is the derived subgroup of a CPPO group EPPO?
            if derived.order() > cap:
                r.derived_is_eppo = _skip_marker(cap)
            else:
                r.derived_is_eppo = derived.group.is_eppo()

    if r.is_soluble:
        r.fitting_height = skipped or fitting_height(G)
        if elements_skipped:
            r.tower_height = elements_skipped
        else:
            try:
                h, tower = find_max_tower(G)
                r.tower_height = h
                r.tower_witness = tower_to_data(tower)
            except (TowerDefectError, EnumerationCapError) as e:
                r.tower_height = "defect: %s" % e
    elif skipped:
        for fld in _DERIVED_RADICAL_FIELDS:
            setattr(r, fld, skipped)
    else:
        second = derived.group.derived_subgroup()
        r.second_derived_equals_derived = second.order() == derived.order()
        drad = soluble_radical(derived.group)
        r.derived_radical_order = drad.order()
        r.derived_radical_is_2_group = len(factorization(drad.order())) <= 1 and (
            drad.order() == 1 or factorization(drad.order())[0][0] == 2
        )
        closure = _commutator_span(G, list(derived.group._raw_gens), radical.group)
        r.derived_radical_closure_order = closure.order()
        if derived.order() // drad.order() > cap:
            r.simple_quotient = _skip_marker(cap)
        else:
            try:
                sq = identify_simple_eppo(quotient_by_normal(derived.group, drad))
                r.simple_quotient = sq.tag
            except NotSimpleError:
                r.simple_quotient = "NotSimple"

    if r.is_cppo is True:
        if r.is_soluble:
            ok = r.fitting_height <= 3 and len(r.derived_primes) <= 3
            r.theorem1 = "pass" if ok else "fail"
        elif not (isinstance(r.simple_quotient, str) and r.simple_quotient.startswith("skipped")):
            ok = (
                r.second_derived_equals_derived
                and r.derived_radical_is_2_group
                and r.derived_radical_order == r.derived_radical_closure_order
                and r.simple_quotient not in ("NotInList", "NotSimple")
            )
            r.theorem2 = "pass" if ok else "fail"
    return r


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
        # the group carries the suite's cap, so one budget governs R(G) too
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


def run_full_suite(documents, ids=None, seed: int = 0, cap: int | None = None,
                   strict: bool = False) -> FullSuiteResult:
    return FullSuiteResult(
        theorems=run_theorem_suite(documents, cap=cap, strict=strict),
        lemmas=run_lemma_suite(ids, seed=seed),
    )


# ---------------------------------------------------------------------------
# canonical serialization


def _report_to_doc(rep: ClassificationReport) -> dict:
    return asdict(rep)


def _report_from_doc(doc: dict) -> ClassificationReport:
    known = {f: doc[f] for f in ClassificationReport.__dataclass_fields__ if f in doc}
    missing = set(doc) - set(known)
    if missing:
        raise SchemaError("unknown report fields: %s" % sorted(missing))
    return ClassificationReport(**known)


def _to_text(**sections) -> str:
    """Canonical structured form: fixed key order, sorted nothing, newline end."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **sections}, indent=2) + "\n"


def reports_to_text(reports) -> str:
    """The reports alone, as persist_results writes them."""
    return _to_text(reports=[_report_to_doc(r) for r in reports])


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
    return [_report_from_doc(d) for d in payload.get("reports", [])]


def lemma_checks_to_doc(checks) -> list:
    return [
        {
            "lemma_id": c.lemma_id,
            "instance": c.instance,
            "status": c.status,
            "witness": c.witness,
        }
        for c in checks
    ]


def theorem_suite_to_text(suite: SuiteResult) -> str:
    return _to_text(
        reports=[_report_to_doc(r) for r in suite.reports],
        failures=suite.failures,
        skips=suite.skips,
    )


def lemma_suite_to_text(checks) -> str:
    return _to_text(lemma_checks=lemma_checks_to_doc(checks))


def full_suite_to_text(result: FullSuiteResult) -> str:
    return _to_text(
        reports=[_report_to_doc(r) for r in result.theorems.reports],
        failures=result.theorems.failures,
        skips=result.theorems.skips,
        lemma_checks=lemma_checks_to_doc(result.lemmas),
    )
