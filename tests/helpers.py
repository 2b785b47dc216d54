"""Shared generators and independent brute-force oracles for the test suite."""
from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st

from linkquery.guidance import (
    PERMISSIVE,
    RESTRICTIVE,
    SAME_ORIGIN,
    SELF,
    ContentPolicy,
    EffectiveStructure,
    LinkingStructureRegistry,
    get_linking_structure,
    parse_policy,
    parse_structure_registry,
    triple_relevant,
)
from linkquery.query import Query, triple_patterns
from linkquery.rdf import Graph, Term, Triple, TriplePattern, match_triple, strip_fragment
from linkquery.turtle import parse_turtle
from linkquery.webfetch import Document, FixtureSource

PREDICATES = [
    "https://vocab.ex/p1",
    "https://vocab.ex/p2",
    "https://vocab.ex/p3",
    "https://vocab.ex/p4",
]
LITERALS = ["alpha", "beta", "gamma"]

PoolEntry = Tuple[Triple, str]  # a pool triple and the document it came from


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


def link_unrequested(rng: random.Random, bodies: Dict[str, str]) -> Dict[str, str]:
    """The web with up to three more triples per document, each linking a
    document's entity to a mailto: or urn: IRI (as subject or object), which
    no traversal requests."""
    n = len(bodies)
    out = {}
    for iri, body in bodies.items():
        lines = []
        for _ in range(rng.randint(0, 3)):
            other = rng.choice(["mailto:p%d@w.ex", "urn:isbn:%d"]) % rng.randrange(n)
            ends = (entity_iri(rng.randrange(n)), other)
            s, o = ends if rng.random() < 0.7 else ends[::-1]
            lines.append("<%s> <%s> <%s>." % (s, rng.choice(PREDICATES), o))
        out[iri] = body + "".join(line + "\n" for line in lines)
    return out


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


class DrawnRandom:
    """The random.Random calls the generators above make, answered by
    hypothesis draws, so each generator is also a strategy whose failures
    shrink: to fewer documents, triples and patterns, and to the first
    choice of each list.
    """

    def __init__(self, draw):
        self.draw = draw

    def randint(self, a: int, b: int) -> int:
        return self.draw(st.integers(a, b))

    def randrange(self, n: int) -> int:
        return self.draw(st.integers(0, n - 1))

    def choice(self, seq):
        return self.draw(st.sampled_from(seq))

    def random(self) -> float:
        return self.draw(st.integers(0, 999)) / 1000

    def sample(self, seq, k: int) -> list:
        return self.draw(st.permutations(seq))[:k]


@st.composite
def webs(draw, max_docs: int = 20, max_triples: int = 10) -> Dict[str, str]:
    """random_web as a strategy."""
    return random_web(DrawnRandom(draw), max_docs, max_triples)


@st.composite
def bgp_queries(draw, n_docs: int) -> Query:
    """random_bgp_query as a strategy, with up to two of its patterns copied
    to any position, each copy as it is or with a new variable as its
    predicate, so a triple often matches a repeated pattern, or a bound and
    a variable-predicate pattern in either order.
    """
    query = random_bgp_query(DrawnRandom(draw), n_docs)
    patterns = list(query.required)
    for _ in range(draw(st.integers(0, 2))):
        tp = draw(st.sampled_from(patterns))
        if draw(st.booleans()):
            tp = TriplePattern(tp.subject, Term.var("p"), tp.object)  # a superset of tp's matches
        patterns.insert(draw(st.integers(0, len(patterns))), tp)
    return Query(query.projection, patterns)


def _variables(patterns: List[TriplePattern]) -> List[str]:
    return sorted({v for tp in patterns for v in tp.variables()})


@st.composite
def optional_queries(draw, triples: Sequence[Triple]) -> Query:
    """Queries with zero to two OPTIONAL groups that often have solutions
    over a graph of the given (non-empty) triples.

    A required pattern is one of the triples with each position kept or
    made a variable: ?a, ?b or ?c, so variables repeat, predicates are
    variables, and a pattern may be fully bound. Each group links a variable
    bound before it to a new one by a predicate of the graph, either way
    round: ?x p ?d in the first, with ?x a required variable, and ?d p ?e in
    the second; it may add one more pattern made like the required ones. So
    solutions whose first group failed reach the second with a smaller
    domain than those it extended, and the second group's ?d is bound for
    some of them and new for others.
    """
    def like(triple: Triple, variables: List[str]) -> TriplePattern:
        return TriplePattern(*(
            Term.var(draw(st.sampled_from(variables))) if draw(st.booleans()) else term
            for term in (triple.subject, triple.predicate, triple.object)))

    required = [like(draw(st.sampled_from(triples)), ["a", "b", "c"])
                for _ in range(draw(st.integers(1, 3)))]
    if not _variables(required):
        required[0] = TriplePattern(Term.var("a"), required[0].predicate, required[0].object)
    variables = _variables(required)
    links = [(draw(st.sampled_from(variables)), "d"), ("d", "e")]
    groups = []
    for bound, new in links[:draw(st.integers(0, 2))]:
        ends = [Term.var(bound), Term.var(new)]
        if draw(st.booleans()):
            ends.reverse()
        variables = variables + [new]
        group = [TriplePattern(ends[0], draw(st.sampled_from(triples)).predicate, ends[1])]
        if draw(st.booleans()):
            group.append(like(draw(st.sampled_from(triples)), variables))
        groups.append(group)
    projection = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
    return Query(projection, required, groups)


def random_registry_json(rng: random.Random, n_docs: int,
                         default: Optional[str] = None) -> str:
    """A random linking-structure registry over random_web's documents, as JSON.

    Scopes are either the scheme alone, which holds every document, a whole
    origin, written without a path, or one document; rules follow "self" or
    a (possibly empty) predicate list and cover "*" or a predicate list.
    """
    rules = []
    for _ in range(rng.randint(0, 4)):
        rules.append({
            "scope": rng.choice(["https://", "https://",
                                 "https://w%d.ex" % rng.randrange(n_docs),
                                 doc_iri(rng.randrange(n_docs))]),
            "patternPredicates": "*" if rng.random() < 0.3
            else rng.sample(PREDICATES, rng.randint(1, 3)),
            "follow": SELF if rng.random() < 0.2
            else rng.sample(PREDICATES, rng.randint(0, 3)),
        })
    return json.dumps({"default": default or rng.choice([PERMISSIVE, RESTRICTIVE]),
                       "rules": rules})


def random_policy_json(rng: random.Random, n_docs: int,
                       default: Optional[str] = None) -> str:
    """A random content policy over random_web's documents, as JSON.

    Rules allow or deny, match any or one subject and any, one or a list of
    predicates, and constrain the source to anything, the subject's origin or
    one document. About a third are exclusive allow rules on subject and
    predicate, never with the "*" source, under which they would drop nothing.
    """
    rules = []
    for _ in range(rng.randint(0, 5)):
        exclusive = rng.random() < 0.35
        sources = [SAME_ORIGIN, doc_iri(rng.randrange(n_docs))]
        rule = {
            "action": "allow" if exclusive else rng.choice(["allow", "deny"]),
            "pattern": {
                "s": rng.choice(["?", "?", entity_iri(rng.randrange(n_docs))]),
                "p": rng.choice(["?", PREDICATES[:2]] + PREDICATES),
                "o": "?",
            },
            "source": rng.choice(sources if exclusive else sources + ["*"]),
            "priority": rng.randint(0, 3),
        }
        if exclusive:
            rule["exclusive"] = "subject-predicate"
        rules.append(rule)
    return json.dumps({"default": default or rng.choice(["allow", "deny"]),
                       "rules": rules})


@st.composite
def registries(draw, n_docs: int) -> LinkingStructureRegistry:
    """random_registry_json as a strategy, compiled."""
    return parse_structure_registry(random_registry_json(DrawnRandom(draw), n_docs))


@st.composite
def policies(draw, n_docs: int) -> ContentPolicy:
    """random_policy_json as a strategy, compiled."""
    return parse_policy(random_policy_json(DrawnRandom(draw), n_docs))


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
    patterns = triple_patterns(query)
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


def reference_lambda(structure: EffectiveStructure, from_doc: Document,
                     candidate_doc_iri: str, tp: TriplePattern) -> bool:
    """λ by rescanning from_doc's triples and stripping fragments per triple.

    The permissive default admits any document a subject or IRI object of
    from_doc lies in; a rule that covers the pattern admits from_doc itself
    (follow = self) or the document of an IRI object of a followed predicate.
    """
    if structure == RESTRICTIVE:
        return False
    if structure == PERMISSIVE:
        return any(
            strip_fragment(term.value) == candidate_doc_iri
            for t in from_doc.triples for term in (t.subject, t.object)
            if term.kind == "iri"
        )
    for rule in structure:
        if rule.pattern_predicates != "*" and not tp.predicate.is_variable \
                and tp.predicate.value not in rule.pattern_predicates:
            continue
        if rule.follow == SELF:
            if candidate_doc_iri == from_doc.doc_iri:
                return True
            continue
        for t in from_doc.triples:
            if (t.predicate.value in rule.follow and t.object.kind == "iri"
                    and strip_fragment(t.object.value) == candidate_doc_iri):
                return True
    return False


def closure_guided(bodies: Dict[str, str], seeds: Sequence[str],
                   registry: LinkingStructureRegistry, policy: ContentPolicy,
                   query: Query) -> Tuple[Set[str], Set[str], Set[Tuple[Triple, str]]]:
    """Guided reachability by rescanning every reached document until nothing changes.

    A reached document offers the subject and object documents of each triple
    the policy finds relevant there, and the object document of each other
    triple whose predicate a rule of its linking structure follows. An offered
    document is reached when reference_lambda allows it for some query
    pattern. Returns the reached documents that exist, the offered documents
    never reached (each pruned), and the pool: the relevant (triple,
    document) pairs of the reached documents after the policy's exclusive
    rules.
    """
    graphs = parse_web(bodies)
    docs = {iri: Document(iri, graph) for iri, graph in graphs.items()}
    patterns = triple_patterns(query)
    reached = {strip_fragment(s) for s in seeds}
    offered_all = set()
    while True:
        frontier = set()
        for iri in reached & docs.keys():
            structure = get_linking_structure(registry, iri)
            followed = set()
            if isinstance(structure, list):
                for rule in structure:
                    if rule.follow != SELF:
                        followed |= rule.follow
            for t in graphs[iri]:
                if triple_relevant(policy, t, iri):
                    offered = [t.subject, t.object]
                elif t.predicate.value in followed:
                    offered = [t.object]
                else:
                    continue
                for term in offered:
                    if term.kind != "iri":
                        continue
                    target = strip_fragment(term.value)
                    offered_all.add(target)
                    if target not in reached and any(
                        reference_lambda(structure, docs[iri], target, tp) for tp in patterns
                    ):
                        frontier.add(target)
        if not frontier:
            break
        reached |= frontier
    found = reached & docs.keys()
    relevant = {(t, iri) for iri in found for t in graphs[iri] if triple_relevant(policy, t, iri)}
    return found, offered_all - reached, reference_overrides(relevant, policy)


def reference_overrides(pool: Set[PoolEntry], policy: ContentPolicy) -> Set[PoolEntry]:
    """The pool after the policy's exclusive rules, as apply_overrides's
    docstring states them, with the rules ranked here: by descending
    priority, then by place in policy.rules.

    Each exclusive rule, in rank order, takes the (subject, predicate) keys
    of the surviving entries it matches, then drops each surviving entry
    with one of those keys whose document its source constraint rejects and
    whose deciding rule (the first in rank that matches the entry, or the
    default after all rules) ranks below it.
    """
    ranked = [rule for _, rule in sorted(enumerate(policy.rules),
                                         key=lambda pair: (-pair[1].priority, pair[0]))]

    def decided_at(entry: PoolEntry) -> int:
        return next((rank for rank, rule in enumerate(ranked) if rule.matches(*entry)),
                    len(ranked))

    surviving = set(pool)
    for rank, rule in enumerate(ranked):
        if rule.exclusive_key is None:
            continue
        keys = {(t.subject, t.predicate) for t, src in surviving if rule.matches(t, src)}
        surviving -= {
            (t, src) for t, src in surviving
            if (t.subject, t.predicate) in keys and not rule.source_matches(t, src)
            and decided_at((t, src)) > rank
        }
    return surviving


def union_graph(bodies: Dict[str, str], docs: Set[str]) -> Graph:
    graphs = parse_web(bodies)
    return Graph.union(graphs[iri] for iri in docs)


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
