"""
Command-line surface: run a traversal, compare guided vs unguided runs, or
explain why a document was (not) fetched / how a result row is supported.
A run is guided when --structures and --policy are both given, else unguided
under --semantics (default c-match). A flag that the run would ignore is a
usage error: --semantics when guided, and the live flags without --live.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

from .guidance import (
    GuidanceParseError,
    PERMISSIVE_POLICY,
    parse_policy,
    parse_structure_registry,
    relevance_decision,
)
from .query import (
    QueryParseError,
    _cell,
    evaluate,
    parse_query,
    render_table,
    render_tsv,
    rows_to_json,
    triple_patterns,
)
from .rdf import IriError, graph_match, match_triple, strip_fragment
from .traversal import (
    C_ALL,
    C_MATCH,
    C_NONE,
    DEFAULT_MAX_DOCUMENTS,
    CappedTraversalError,
    TraversalConfig,
    traverse_guided,
    traverse_unguided,
)
from .turtle import TurtleParseError
from .webfetch import OK, FixtureError, FixtureSource, LiveHttpSource

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPPED = 2
EXIT_INPUT = 3

UNGUIDED = "unguided"
GUIDED = "guided"


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive(convert):
    """An argparse type: convert's value when it is above zero (so not NaN)."""
    def parse(text):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("must be positive, not %r" % text)
        return value
    parse.__name__ = convert.__name__  # as argparse names it: "invalid float value"
    return parse


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--query", required=True, metavar="FILE")
    p.add_argument("--seed", action="append", default=[], metavar="IRI")
    p.add_argument("--semantics", choices=[C_NONE, C_ALL, C_MATCH])
    p.add_argument("--structures", metavar="FILE")
    p.add_argument("--policy", metavar="FILE")
    p.add_argument("--fixtures", metavar="FILE")
    p.add_argument("--live", action="store_true")
    p.add_argument("--max-docs", type=_positive(int), default=DEFAULT_MAX_DOCUMENTS)
    # Named as LiveHttpSource's parameters, whose defaults apply when absent.
    p.add_argument("--timeout", type=_positive(float))
    p.add_argument("--max-body-bytes", type=_positive(int))
    p.add_argument("--accept")


def _build_parser() -> _Parser:
    parser = _Parser(prog="linkquery", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="traverse and print query solutions")
    _add_common_flags(run)
    run.add_argument("--format", choices=["table", "tsv", "json"], default="table")
    run.add_argument("--timing", action="store_true")
    compare = sub.add_parser("compare", help="side-by-side unguided vs guided report")
    _add_common_flags(compare)
    explain = sub.add_parser("explain", help="explain a document or result row")
    _add_common_flags(explain)
    explain.add_argument("--row", type=int, metavar="N")
    explain.add_argument("--doc", metavar="IRI")
    return parser


def _make_source(args):
    if args.live == bool(args.fixtures):
        raise _UsageError("exactly one of --fixtures and --live is required")
    given = {name: getattr(args, name) for name in ("timeout", "max_body_bytes", "accept")
             if getattr(args, name) is not None}
    if args.live:
        return LiveHttpSource(**given)
    if given:
        raise _UsageError("only --live uses %s"
                          % ", ".join("--" + name.replace("_", "-") for name in given))
    return FixtureSource.from_manifest(args.fixtures)


def _read(path: str) -> str:
    """A UTF-8 input file's text; one that cannot be read or decoded is an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError("cannot read %s: %s" % (path, exc)) from exc


def _load_inputs(args):
    """The query, and the guidance: (registry, policy) when --structures and
    --policy are both given, None when neither is. compare requires it.
    """
    if not args.seed:
        raise _UsageError("at least one --seed is required")
    query = parse_query(_read(args.query))
    if args.structures is None and args.policy is None and args.command != "compare":
        return query, None
    if args.structures is None or args.policy is None:
        raise _UsageError("guided mode requires --structures and --policy")
    if args.semantics is not None and args.command != "compare":
        raise _UsageError("--semantics does not apply to a guided run "
                          "(--structures and --policy given)")
    registry = parse_structure_registry(_read(args.structures))
    policy = parse_policy(_read(args.policy))
    return query, (registry, policy)


def _traverse(args, source, query, guidance, semantics):
    """Traverse from the run's seeds, guided when guidance is given; return (pool, trace)."""
    if guidance is not None:
        return traverse_guided(args.seed, *guidance, query, source, max_documents=args.max_docs)
    config = TraversalConfig(semantics, args.seed, args.max_docs)
    return traverse_unguided(config, source, query)


def _cmd_run(args, out) -> int:
    query, guidance = _load_inputs(args)
    semantics = args.semantics or C_MATCH
    source = _make_source(args)
    started = time.monotonic()
    pool, trace = _traverse(args, source, query, guidance, semantics)
    rows = evaluate(query, pool.graph())
    elapsed = time.monotonic() - started
    fetched = sorted(trace.ledger.ok_documents)
    mode_descriptor = GUIDED if guidance else "%s/%s" % (UNGUIDED, semantics)
    if args.format == "json":
        report = {
            "solutions": rows_to_json(rows, query.projection),
            "documents_fetched": trace.ledger.distinct_ok,
            "documents": fetched,
            "mode": mode_descriptor,
        }
        if args.timing:
            report["elapsed_seconds"] = round(elapsed, 6)
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    if args.format == "tsv":
        out.write(render_tsv(rows, query.projection))
    else:
        out.write(render_table(rows, query.projection))
    out.write("\n")
    out.write("mode: %s\n" % mode_descriptor)
    out.write("documents fetched: %d\n" % trace.ledger.distinct_ok)
    for iri in fetched:
        out.write("  %s\n" % iri)
    if args.timing:
        out.write("elapsed: %.3fs\n" % elapsed)
    return EXIT_OK


def _cmd_compare(args, out) -> int:
    query, guidance = _load_inputs(args)
    semantics = args.semantics or C_MATCH
    # A source that fetches each IRI once and answers repeats from memory, so
    # the four runs make one request per document. Within a run, a wave asks
    # for distinct IRIs not fetched before, so no two fetching threads miss
    # on the same IRI at once.
    source = SimpleNamespace(fetch=functools.cache(_make_source(args).fetch))

    def solve(run_guidance, run_semantics):
        """The run's rows, each a tuple of its terms (Term equality is row
        identity), and its trace."""
        pool, trace = _traverse(args, source, query, run_guidance, run_semantics)
        return {tuple(row.values()) for row in evaluate(query, pool.graph())}, trace

    unguided_rows, unguided_trace = solve(None, semantics)
    guided_rows, guided_trace = solve(guidance, None)
    removed = unguided_rows - guided_rows

    out.write(
        "unguided (%s): %d rows / %d docs; guided: %d rows / %d docs; "
        "rows removed: %d\n"
        % (
            semantics,
            len(unguided_rows),
            unguided_trace.ledger.distinct_ok,
            len(guided_rows),
            guided_trace.ledger.distinct_ok,
            len(removed),
        )
    )
    for label, rows in (("removed", removed), ("added", guided_rows - unguided_rows)):
        for row in sorted(rows, key=lambda r: tuple("" if t is None else t.n3() for t in r)):
            out.write("  %s: %s\n" % (label, "\t".join(_cell(t) for t in row)))
    unguided_fetched = unguided_trace.fetched_per_subtree()
    guided_fetched = guided_trace.fetched_per_subtree()
    for root in sorted(unguided_fetched.keys() | guided_fetched.keys()):
        before, after = unguided_fetched.get(root, 0), guided_fetched.get(root, 0)
        if before or after:
            out.write("fetched under %s: %d -> %d\n" % (root, before, after))

    # Structure pruning is meant to be performance-only; report whether the
    # registry alone (policy fully permissive) changed results versus c-all.
    all_rows, _ = solve(None, C_ALL)
    structure_rows, _ = solve((guidance[0], PERMISSIVE_POLICY), None)
    out.write(
        "structure pruning alone vs c-all: %s\n"
        % ("results changed" if all_rows != structure_rows else "results unchanged")
    )
    return EXIT_OK


def _explain_doc(args, out, guidance, semantics, trace) -> int:
    doc_iri = strip_fragment(args.doc)
    current = trace.admission_of(doc_iri)
    if current is not None:
        outcome = {e.iri: e.outcome for e in trace.ledger.entries}[doc_iri]
        if outcome != OK:
            out.write("not fetched: the request for %s failed (%s)\n" % (doc_iri, outcome))
        while current.reason != "seed":
            out.write(
                "%s: linked from %s via %s (pattern %s)\n"
                % (
                    current.doc_iri,
                    current.from_doc,
                    current.via_triple.n3(),
                    current.via_pattern.n3() if current.via_pattern else "-",
                )
            )
            current = trace.admission_of(current.from_doc)
        out.write("%s: seed\n" % current.doc_iri)
        return EXIT_OK
    # Not admitted: find linking triples in fetched documents and say why
    # each link did not lead to a fetch. Under guidance, the document was
    # unseen whenever a fetched document offered it, so λ pruned each triple
    # that offered it (the trace records which) and the policy denied the rest.
    findings = []
    for from_iri in sorted(trace.documents):
        doc = trace.documents[from_iri]
        linking = [t for t, targets in doc.hyperlinks if doc_iri in targets]
        if not linking:
            continue
        if guidance is None:
            findings.extend(
                "not fetched: linking triple %s from %s did not qualify "
                "under %s semantics" % (t.n3(), from_iri, semantics)
                for t in linking
            )
            continue
        policy = guidance[1]
        for t in linking:
            if (from_iri, t, doc_iri) in trace.pruned_links:
                findings.append("not fetched: link %s from %s not sanctioned by any "
                                "structure rule" % (t.n3(), from_iri))
                continue
            _, rule = relevance_decision(policy, t, doc.doc_iri)
            if rule is None:
                # Denied by default. If some rule's pattern covers the triple
                # but its source constraint rejected this document, cite that
                # rule: its restriction blocked the link.
                rule = next((r for r in policy.ordered_rules()
                             if match_triple(t, r.pattern) is not None), None)
            label = "the policy default" if rule is None else "policy rule #%d" % (rule.entry + 1)
            findings.append("not fetched: linking triple %s from %s denied by %s"
                            % (t.n3(), from_iri, label))
    if not findings:
        sys.stderr.write("unknown document: no fetched document links to %s\n" % doc_iri)
        return EXIT_USAGE
    for line in findings:
        out.write(line + "\n")
    return EXIT_OK


def _explain_row(args, out, query, guidance, rows, pool) -> int:
    if args.row < 1 or args.row > len(rows):
        sys.stderr.write("no such row: %d (have %d rows)\n" % (args.row, len(rows)))
        return EXIT_USAGE
    row = rows[args.row - 1]
    out.write(
        "row %d: %s\n"
        % (
            args.row,
            ", ".join("?%s=%s" % (v, _cell(row[v])) for v in query.projection),
        )
    )
    mapping = {v: t for v, t in row.items() if t is not None}
    graph = pool.graph()
    provenance = pool.provenance()
    for pattern in triple_patterns(query):
        if not mapping.keys() >= set(pattern.variables()):
            continue  # a variable the row leaves unbound: unprojected or NULL
        for triple, bindings in graph_match(graph, pattern):
            if not bindings.items() <= mapping.items():
                continue
            for src in sorted(provenance[triple]):
                label = ""
                if guidance is not None:
                    _, rule = relevance_decision(guidance[1], triple, src)
                    if rule is not None:
                        label = " (policy rule #%d)" % (rule.entry + 1)
                out.write("  %s from %s%s\n" % (triple.n3(), src, label))
    return EXIT_OK


def _cmd_explain(args, out) -> int:
    if (args.row is None) == (args.doc is None):
        raise _UsageError("explain requires exactly one of --row and --doc")
    query, guidance = _load_inputs(args)
    semantics = args.semantics or C_MATCH
    source = _make_source(args)
    pool, trace = _traverse(args, source, query, guidance, semantics)
    if args.doc is not None:
        return _explain_doc(args, out, guidance, semantics, trace)
    rows = evaluate(query, pool.graph())
    return _explain_row(args, out, query, guidance, rows, pool)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required: run, compare or explain")
        if args.command == "run":
            return _cmd_run(args, sys.stdout)
        if args.command == "compare":
            return _cmd_compare(args, sys.stdout)
        return _cmd_explain(args, sys.stdout)
    except _UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        sys.stderr.write("run 'linkquery --help' for usage\n")
        return EXIT_USAGE
    except CappedTraversalError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CAPPED
    except (
        QueryParseError,
        TurtleParseError,
        GuidanceParseError,
        FixtureError,
        IriError,
        _InputError,
    ) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
