"""Shared generators and independent brute-force oracles for the test suite."""
from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from linkquery.query import Query
from linkquery.rdf import Graph, Term, Triple, TriplePattern, match_triple, strip_fragment
from linkquery.turtle import parse_turtle
from linkquery.webfetch import FixtureSource

PREDICATES = [
    "https://vocab.ex/p1",
    "https://vocab.ex/p2",
    "https://vocab.ex/p3",
    "https://vocab.ex/p4",
]
LITERALS = ["alpha", "beta", "gamma"]


def doc_iri(i: int) -> str:
    return "https://w%d.ex/" % i


def entity_iri(i: int) -> str:
    return "https://w%d.ex/#it" % i


def random_web(rng: random.Random, max_docs: int = 20,
               max_triples: int = 10) -> Dict[str, str]:
    """A random fixture web as {doc IRI: Turtle body}."""
    n = rng.randint(1, max_docs)
    bodies = {}
    for i in range(n):
        lines = []
        for _ in range(rng.randint(0, max_triples)):
            s = entity_iri(rng.randrange(n))
            p = rng.choice(PREDICATES)
            if rng.random() < 0.5:
                o = "<%s>" % entity_iri(rng.randrange(n))
            else:
                o = '"%s"' % rng.choice(LITERALS)
            lines.append("<%s> <%s> %s." % (s, p, o))
        bodies[doc_iri(i)] = "\n".join(lines) + "\n"
    return bodies


def web_source(bodies: Dict[str, str]) -> FixtureSource:
    return FixtureSource(bodies)


def parse_web(bodies: Dict[str, str]) -> Dict[str, Graph]:
    return {iri: parse_turtle(body, iri) for iri, body in bodies.items()}


def random_term(rng: random.Random, n_docs: int, variables: Sequence[str]) -> Term:
    roll = rng.random()
    if roll < 0.6:
        return Term.var(rng.choice(list(variables)))
    if roll < 0.85:
        return Term.iri(entity_iri(rng.randrange(max(n_docs, 1))))
    return Term.literal(rng.choice(LITERALS))


def random_bgp_query(rng: random.Random, n_docs: int,
                     max_patterns: int = 3) -> Query:
    variables = ["a", "b", "c"]
    patterns = []
    for _ in range(rng.randint(1, max_patterns)):
        patterns.append(
            TriplePattern(
                random_term(rng, n_docs, variables),
                Term.var(rng.choice(variables)) if rng.random() < 0.3
                else Term.iri(rng.choice(PREDICATES)),
                random_term(rng, n_docs, variables),
            )
        )
    bound = sorted({v for tp in patterns for v in tp.variables()})
    if not bound:
        patterns[0] = TriplePattern(
            Term.var("a"), patterns[0].predicate, patterns[0].object
        )
        bound = sorted({v for tp in patterns for v in tp.variables()})
    projection = bound[: rng.randint(1, len(bound))]
    return Query(projection, patterns)


# ---------------------------------------------------------------------------
# Brute-force oracles. These stay independent of the engine's algorithms.


def closure_c_all(bodies: Dict[str, str], seeds: Sequence[str]) -> Set[str]:
    """Transitive closure of follow-all link traversal over mapped documents."""
    graphs = parse_web(bodies)
    reached = {strip_fragment(s) for s in seeds if strip_fragment(s) in graphs}
    while True:
        frontier = set()
        for iri in reached:
            for t in graphs[iri]:
                for term in (t.subject, t.object):
                    if term.kind == "iri":
                        target = strip_fragment(term.value)
                        if target in graphs and target not in reached:
                            frontier.add(target)
        if not frontier:
            return reached
        reached |= frontier


def closure_c_match(bodies: Dict[str, str], seeds: Sequence[str],
                    query: Query) -> Set[str]:
    """Closure of query-match link traversal over mapped documents.

    Rescans every reached document until nothing changes. A triple's subject
    and object IRIs are followed when the triple matches a query pattern, or
    when its subject occurs in some matching triple of a reached document.
    """
    graphs = parse_web(bodies)
    patterns = query.all_patterns()
    reached = {strip_fragment(s) for s in seeds if strip_fragment(s) in graphs}
    while True:
        triples = [t for iri in reached for t in graphs[iri]]
        matching = {
            t for t in triples
            if any(match_triple(t, tp) is not None for tp in patterns)
        }
        entities = {t.subject.value for t in matching}
        entities |= {t.object.value for t in matching if t.object.kind == "iri"}
        frontier = set()
        for t in triples:
            if t not in matching and t.subject.value not in entities:
                continue
            for term in (t.subject, t.object):
                if term.kind == "iri":
                    target = strip_fragment(term.value)
                    if target in graphs and target not in reached:
                        frontier.add(target)
        if not frontier:
            return reached
        reached |= frontier


def union_graph(bodies: Dict[str, str], docs: Set[str]) -> Graph:
    graphs = parse_web(bodies)
    out = Graph()
    for iri in docs:
        out.update(iter(graphs[iri]))
    return out


def brute_force_bgp(patterns: List[TriplePattern], graph: Graph,
                    base: Optional[Dict[str, Term]] = None) -> List[Dict[str, Term]]:
    """All consistent assignments, by enumerating |graph|^|patterns| tuples."""
    triples = list(graph)
    out = []
    for combo in itertools.product(triples, repeat=len(patterns)):
        mapping = dict(base or {})
        ok = True
        for tp, t in zip(patterns, combo):
            bindings = match_triple(t, tp)
            if bindings is None:
                ok = False
                break
            for var, term in bindings.items():
                if var in mapping and mapping[var] != term:
                    ok = False
                    break
                mapping[var] = term
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def brute_force_evaluate(query: Query, graph: Graph) -> Set[Tuple]:
    """Independent evaluation: enumeration join plus all-or-nothing optionals.

    Returns the set of projected row fingerprints.
    """
    solutions = brute_force_bgp(query.required, graph)
    for group in query.optional_groups:
        extended = []
        for m in solutions:
            exts = brute_force_bgp(group, graph, base=m)
            extended.extend(exts if exts else [m])
        solutions = extended
    rows = set()
    for m in solutions:
        rows.add(
            tuple(
                (t.kind, t.value, t.language) if t is not None else None
                for t in (m.get(v) for v in query.projection)
            )
        )
    return rows


def row_fingerprints(rows, projection) -> Set[Tuple]:
    out = set()
    for row in rows:
        out.add(
            tuple(
                (t.kind, t.value, t.language) if t is not None else None
                for t in (row[v] for v in projection)
            )
        )
    return out
