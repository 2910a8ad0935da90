"""Command-line front end.

Subcommands classify single groups, run the theorem and per-result
verification suites over a corpus, inspect the atlas, and expose the tower
and commutator machinery directly.  Group arguments are either a path to a
group-spec document or "atlas:<id>".

Exit codes: 0 when everything checked out, 1 when a verified claim failed,
2 for operational problems (unreadable files, unknown ids, malformed
specs).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .atlas import build, catalog_names, load_group_spec
from .corpus import default_corpus, read_corpus_file
from .errors import GroupError, InsolubleError
from .group import FiniteGroup
from .harness import (
    classify,
    lemma_suite_to_text,
    reports_to_text,
    run_lemma_suite,
    run_theorem_suite,
    skipped_fields,
    theorem_suite_to_text,
)
from .towers import find_max_tower, tower_to_data


def _load_group(text: str, cap=None) -> FiniteGroup:
    if text.startswith("atlas:"):
        g = build(text[len("atlas:") :]).group
    else:
        with open(text) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise GroupError("group spec %s is not valid structured text: %s" % (text, e))
        g = load_group_spec(doc)
    return g.with_cap(cap)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_lines(rep) -> str:
    lines = []
    for fname in rep.__dataclass_fields__:
        value = getattr(rep, fname)
        if value is None or (fname == "witnesses" and not value):
            continue
        if fname == "tower_witness":
            lines.append("tower_witness:")
            for p, gens in value:
                lines.append("  p=%d  %s" % (p, " ".join(gens)))
            continue
        if fname == "witnesses":
            for kind, data in value.items():
                lines.append("witness[%s]: %s" % (kind, json.dumps(data)))
            continue
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append("%s: %s" % (fname, value))
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    g = _load_group(args.group, cap=args.cap)
    rep = classify(g)
    if args.format == "structured":
        _emit(reports_to_text([rep]), args.out)
    else:
        _emit(_report_lines(rep), args.out)
    if "fail" in (rep.theorem1, rep.theorem2) or (args.strict and skipped_fields(rep)):
        return 1
    return 0


def _cmd_verify_theorems(args) -> int:
    docs = read_corpus_file(args.corpus) if args.corpus else default_corpus()
    suite = run_theorem_suite(docs, cap=args.cap, strict=args.strict)
    if args.format == "structured":
        _emit(theorem_suite_to_text(suite), args.out)
    else:
        lines = []
        for r in suite.reports:
            lines.append(
                "%-32s order %8d  theorem1=%-14s theorem2=%s"
                % (r.name, r.order, r.theorem1, r.theorem2)
            )
        for s in suite.skips:
            lines.append("skip: %s" % s)
        for f in suite.failures:
            lines.append("FAIL: %s" % f)
        lines.append(
            "%d group(s), %d failure(s), %d skip(s)"
            % (len(suite.reports), len(suite.failures), len(suite.skips))
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if suite.ok else 1


def _cmd_verify_lemmas(args) -> int:
    ids = args.ids.split(",") if args.ids else None
    try:
        checks = run_lemma_suite(ids, seed=args.seed)
    except ValueError as e:
        raise GroupError(str(e))
    if args.format == "structured":
        _emit(lemma_suite_to_text(checks), args.out)
    else:
        lines = [
            "%-20s %-55s %s" % (c.lemma_id, c.instance[:55], c.status) for c in checks
        ]
        failed = sum(1 for c in checks if c.status == "fail")
        lines.append("%d check(s), %d failed" % (len(checks), failed))
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if any(c.status == "fail" for c in checks) else 0


def _cmd_atlas_list(args) -> int:
    _emit("\n".join(catalog_names()) + "\n", args.out)
    return 0


def _cmd_atlas_build(args) -> int:
    built = build(args.id)
    g = built.group
    lines = [
        "id: %s" % args.id,
        "name: %s" % (g.name or "unnamed"),
        "degree: %d" % g.degree,
        "order: %d" % g.order(),
        "expected_order: %d" % built.expected_order,
        "notes: %s" % built.notes,
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tower_find(args) -> int:
    g = _load_group(args.group, cap=args.cap)
    try:
        h, tower = find_max_tower(g)
    except InsolubleError as e:
        raise GroupError(str(e))
    lines = ["group: %s" % (g.name or "unnamed"), "height: %d" % h]
    for p, gens in tower_to_data(tower):
        lines.append("p=%d  %s" % (p, " ".join(gens)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_commutators(args) -> int:
    g = _load_group(args.group, cap=args.cap)
    comm = g.commutator_set()
    if args.orders_only:
        counts = Counter(c.order() for c in comm)
        lines = ["order %d: %d commutator(s)" % (o, counts[o]) for o in sorted(counts)]
    else:
        lines = sorted(str(c) for c in comm)
    lines.append("%d commutator(s) in a group of order %d" % (len(comm), g.order()))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# the commands with a structured output form
_STRUCTURED = (_cmd_classify, _cmd_verify_theorems, _cmd_verify_lemmas)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cppo",
        description="finite-group computations around prime-power-order commutators",
    )
    parser.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    parser.add_argument("--strict", action="store_true", help="treat skips as failures")
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output form"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full report on one group")
    p.add_argument("group", help="spec file path or atlas:<id>")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    vsub = p.add_subparsers(dest="verify_what", required=True)
    vt = vsub.add_parser("theorems", help="theorem suite over a corpus")
    vt.add_argument("--corpus", default=None, help="corpus file (default: built-in)")
    vt.set_defaults(func=_cmd_verify_theorems)
    vl = vsub.add_parser("lemmas", help="per-result instance checks")
    vl.add_argument("--ids", default=None, help="comma-separated lemma ids (default: all)")
    vl.add_argument("--seed", type=int, default=0)
    vl.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("atlas", help="inspect the group catalog")
    asub = p.add_subparsers(dest="atlas_action", required=True)
    asub.add_parser("list", help="catalog ids").set_defaults(func=_cmd_atlas_list)
    ab = asub.add_parser("build", help="build one entry and print its facts")
    ab.add_argument("id")
    ab.set_defaults(func=_cmd_atlas_build)

    p = sub.add_parser("tower", help="tower computations")
    tsub = p.add_subparsers(dest="tower_action", required=True)
    tf = tsub.add_parser("find", help="certify the maximum tower height")
    tf.add_argument("group", help="spec file path or atlas:<id>")
    tf.set_defaults(func=_cmd_tower_find)

    p = sub.add_parser("commutators", help="the set of commutators of a group")
    p.add_argument("group", help="spec file path or atlas:<id>")
    p.add_argument("--orders-only", action="store_true")
    p.set_defaults(func=_cmd_commutators)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cap is not None and args.cap < 1:
        parser.error("--cap must be at least 1, got %d" % args.cap)
    if args.format == "structured" and args.func not in _STRUCTURED:
        parser.error("--format structured applies to classify and verify only")
    try:
        return args.func(args)
    except (GroupError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
