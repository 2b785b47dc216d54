"""
Reachability fixed points over a web of documents.

One semi-naive fixed point serves all four modes. Each wave hands the newly
fetched documents to a link strategy: c-none follows no links, c-all every
subject/object IRI, c-match the IRIs of query-matching triples and of triples
about their entities, and guided the links that the linking structure allows
for the query's patterns. Every strategy, and λ, reads a document's links
from its hyperlink table (`Document.hyperlinks`, `Document.link_predicates`),
computed once per document; c-none never computes it. c-match compiles the
query's patterns once per query, into lists by predicate that carry each
pattern's constant and repeated-variable checks, and builds no bindings. The
content policy judges each fetched triple once, reading it from the document's
sorted triples (`Document.sorted_triples`), the list the hyperlink table is
built from; the pool keeps the relevant ones, and a trace records why every
document was admitted or pruned.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .guidance import (
    PERMISSIVE_POLICY,
    ContentPolicy,
    LinkingStructureRegistry,
    PoolEntry,
    apply_overrides,
    considered_links,
    get_linking_structure,
    lambda_allows,
    triple_relevant,
)
from .query import Query, triple_patterns
from .rdf import (
    IRI,
    Graph,
    Term,
    Triple,
    TriplePattern,
    match_triple,  # not called here; a wrap point of perfbench/tracing.py
    strip_fragment,
)
from .webfetch import Dereferencer, Document, FetchLedger

C_NONE = "c-none"
C_ALL = "c-all"
C_MATCH = "c-match"

DEFAULT_MAX_DOCUMENTS = 64


@dataclass
class TraversalConfig:
    semantics: str = C_MATCH
    seeds: Sequence[str] = ()
    max_documents: int = DEFAULT_MAX_DOCUMENTS


@dataclass(frozen=True)
class Admission:
    doc_iri: str
    reason: str  # seed | link | pruned
    from_doc: Optional[str] = None
    via_triple: Optional[Triple] = None
    via_pattern: Optional[TriplePattern] = None
    cause: Optional[str] = None

    def to_json_dict(self) -> Dict:
        out: Dict = {"doc": self.doc_iri, "reason": self.reason}
        if self.from_doc is not None:
            out["from"] = self.from_doc
        if self.via_triple is not None:
            out["viaTriple"] = self.via_triple.n3()
        if self.via_pattern is not None:
            out["viaPattern"] = self.via_pattern.n3()
        if self.cause is not None:
            out["cause"] = self.cause
        return out


class TriplePool:
    """Triples with per-source provenance, plus a plain union-graph view."""

    def __init__(self, entries=()):
        self.entries: Set[Tuple[Triple, str]] = set(entries)

    def graph(self) -> Graph:
        return Graph(t for t, _ in self.entries)

    def provenance(self) -> Dict[Triple, Set[str]]:
        out: Dict[Triple, Set[str]] = {}
        for t, src in self.entries:
            out.setdefault(t, set()).add(src)
        return out


@dataclass
class TraversalTrace:
    admissions: List[Admission] = field(default_factory=list, init=False)
    pool: Optional[TriplePool] = None
    ledger: Optional[FetchLedger] = None
    documents: Dict[str, Document] = field(default_factory=dict)
    # Each admitted document's first non-pruned admission, in admission order.
    _admitted: Dict[str, Admission] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)

    def record(self, admission: Admission) -> None:
        """Append an admission; a document's first one not pruned says why it was fetched."""
        self.admissions.append(admission)
        if admission.reason != "pruned":
            self._admitted.setdefault(admission.doc_iri, admission)

    def admitted_documents(self) -> List[str]:
        return list(self._admitted)

    def admission_of(self, doc_iri: str) -> Optional[Admission]:
        return self._admitted.get(doc_iri)

    def fetched_per_subtree(self) -> Dict[str, int]:
        """Documents fetched ok in each root's subtree of the admission forest.

        A root is a document admitted by a link from a seed; its subtree is
        every document whose admission chain passes through it, the root
        included. Seeds belong to no subtree.
        """
        ok = self.ledger.ok_documents if self.ledger is not None else set()
        roots: Dict[str, Optional[str]] = {}  # each admitted document's root; None for seeds
        counts: Dict[str, int] = {}
        # A document is admitted after the document that links to it, so one
        # step up the admission chain reaches a root already found.
        for iri, admission in self._admitted.items():
            if admission.reason == "seed":
                roots[iri] = None
                continue
            root = roots[iri] = roots[admission.from_doc] or iri
            counts[root] = counts.get(root, 0) + (iri in ok)
        return counts

    def to_json_dict(self) -> Dict:
        pool_json: Dict[str, List[str]] = {}
        if self.pool is not None:
            for triple, sources in self.pool.provenance().items():
                pool_json[triple.n3()] = sorted(sources)
        return {
            "admissions": [a.to_json_dict() for a in self.admissions],
            "pool": dict(sorted(pool_json.items())),
            "ledger": self.ledger.to_json_list() if self.ledger else [],
        }


class CappedTraversalError(Exception):
    """Raised when a traversal would exceed its document cap."""

    def __init__(self, max_documents: int, trace: TraversalTrace):
        super().__init__(
            "traversal exceeded the cap of %d documents" % max_documents
        )
        self.max_documents = max_documents
        self.trace = trace


# What a triple must hold, beyond the predicate its pattern was looked up by,
# to match the pattern: each (i, term) says position i (0 subject, 1
# predicate, 2 object) holds that term, each (i, j) that positions i and j
# hold the same term, as a repeated variable binds them. None when the
# lookup by predicate already decides: no constant but the predicate and no
# repeated variable.
PatternCheck = Optional[Tuple[Tuple[Tuple[int, Term], ...], Tuple[Tuple[int, int], ...]]]
CompiledPatterns = List[Tuple[TriplePattern, PatternCheck]]


def _pattern_check(tp: TriplePattern) -> PatternCheck:
    terms = (tp.subject, tp.predicate, tp.object)
    constants = tuple((i, terms[i]) for i in (0, 2) if not terms[i].is_variable)
    first: Dict[str, int] = {}
    repeats = []
    for j, term in enumerate(terms):
        if term.is_variable:
            i = first.setdefault(term.value, j)
            if i != j:
                repeats.append((i, j))
    return (constants, tuple(repeats)) if constants or repeats else None


def _compile_patterns(patterns: Sequence[TriplePattern]
                      ) -> Tuple[Dict[str, CompiledPatterns], CompiledPatterns]:
    """Each pattern with its check, in query order, filed by the predicate IRI
    a triple could match it with: each predicate a pattern names gets its own
    patterns and the variable-predicate ones, which are also the list of any
    other predicate (the second value). A pattern whose predicate is a literal
    matches no triple and is in no list.
    """
    by_predicate: Dict[str, CompiledPatterns] = {}
    unbound: CompiledPatterns = []
    for tp in patterns:
        compiled = (tp, _pattern_check(tp))
        if tp.predicate.is_variable:
            unbound.append(compiled)
            for filed in by_predicate.values():
                filed.append(compiled)
        elif tp.predicate.kind == IRI:
            by_predicate.setdefault(tp.predicate.value, list(unbound)).append(compiled)
    return by_predicate, unbound


def _matching_pattern(triple: Triple, candidates: CompiledPatterns) -> Optional[TriplePattern]:
    """The first of the compiled patterns the triple's predicate was looked up
    by that the triple matches, as match_triple would find, or None."""
    for tp, check in candidates:
        if check is None:
            return tp
        terms = (triple.subject, triple.predicate, triple.object)
        constants, repeats = check
        # Plain loops: all() over generators takes twice as long per check.
        for i, term in constants:
            if terms[i] != term:
                break
        else:
            for i, j in repeats:
                if terms[i] != terms[j]:
                    break
            else:
                return tp
    return None


def _order(candidates: Set[str], rng: Optional[random.Random]) -> List[str]:
    ordered = sorted(candidates)
    if rng is not None:
        rng.shuffle(ordered)
    return ordered


def _seed_iris(seeds: Sequence[str]) -> List[str]:
    if not seeds:
        raise ValueError("at least one seed IRI is required")
    return sorted({strip_fragment(s) for s in seeds})


# A link strategy gets each fetched document once, in admission order, with a
# test for IRIs not yet fetched or admitted and the (triple, document) pairs
# the content policy finds relevant, and yields link or "pruned" admissions
# for the links it reads from `Document.hyperlinks`. A link not followed from
# a document is never followed from it later, so no strategy needs to see a
# document twice.
LinkStrategy = Callable[[List[Document], Callable[[str], bool], Set[PoolEntry]],
                        Iterable[Admission]]


def _no_links(docs, unseen, relevant):
    return ()


def _all_links(docs, unseen, relevant):
    for doc in docs:
        for t, targets in doc.hyperlinks:
            for iri in targets:
                if unseen(iri):
                    yield Admission(iri, "link", doc.doc_iri, t)


def _match_links(patterns: Sequence[TriplePattern]) -> LinkStrategy:
    """c-match: links of pattern-matching triples and of triples about their entities.

    A non-matching triple whose subject is not yet such an entity waits,
    keyed by that subject, until a matching triple names the subject. The
    patterns are compiled once per query: a triple is tried only against the
    patterns its predicate could match, in query order, each by its own
    constant and repeated-variable checks, or by none when the predicate
    decides, and the first one that matches is the admission's pattern.
    """
    by_predicate, unbound = _compile_patterns(patterns)
    entities: Set[str] = set()
    waiting: Dict[str, list] = {}
    ranks = itertools.count()

    def follow(docs, unseen, relevant):
        qualifying = []
        for doc in docs:
            rank = next(ranks)
            for i, (t, targets) in enumerate(doc.hyperlinks):
                tp = _matching_pattern(t, by_predicate.get(t.predicate.value, unbound))
                entry = (rank, i, doc, t, targets, tp)
                if tp is None and t.subject.value not in entities:
                    waiting.setdefault(t.subject.value, []).append(entry)
                    continue
                qualifying.append(entry)
                if tp is None:
                    continue
                for term in (t.subject, t.object):
                    if term.kind == "iri" and term.value not in entities:
                        entities.add(term.value)
                        qualifying.extend(waiting.pop(term.value, ()))
        # Admission order, then triple order: the witnesses a rescan of every
        # fetched document would pick. No two entries share (rank, i), so
        # the tuples compare by those two alone.
        qualifying.sort()
        for _, _, doc, t, targets, tp in qualifying:
            for iri in targets:
                if unseen(iri):
                    yield Admission(iri, "link", doc.doc_iri, t, tp)

    return follow


def _guided_links(registry: LinkingStructureRegistry, patterns: Sequence[TriplePattern],
                  docs, unseen, relevant):
    """Guided: candidates the referring document's linking structure allows (λ)."""
    for doc in docs:
        structure = get_linking_structure(registry, doc.doc_iri)
        candidates: Dict[str, Triple] = {}
        for t, iris in considered_links(doc, structure,
                                        lambda t: (t, doc.doc_iri) in relevant):
            for iri in iris:
                candidates.setdefault(iri, t)
        for candidate, witness in candidates.items():
            if not unseen(candidate):
                continue
            admitting_tp = next(
                (tp for tp in patterns if lambda_allows(structure, doc, candidate, tp)),
                None,
            )
            if admitting_tp is not None:
                yield Admission(candidate, "link", doc.doc_iri, witness, admitting_tp)
            else:
                yield Admission(candidate, "pruned", doc.doc_iri, witness,
                                cause="no structure rule permits following this link")


def _fixed_point(seeds: Sequence[str], source, follow: LinkStrategy,
                 policy: ContentPolicy, max_documents: int,
                 rng: Optional[random.Random]) -> Tuple[TriplePool, TraversalTrace]:
    """Semi-naive reachability: each wave hands only the new documents to follow.

    The policy judges each fetched triple once, when its document arrives,
    taking the triples from `Document.sorted_triples`, which the hyperlink
    table also reads, so each document is sorted once. The pool is every
    relevant triple, after the policy's exclusive rules are enforced. The
    Dereferencer's fetch pool and IRI term table serve every wave, and the
    pool is shut down when the traversal ends, also when it raises.
    """
    deref = Dereferencer(source)
    trace = TraversalTrace(ledger=deref.ledger)
    docs: Dict[str, Document] = {}
    relevant: Set[PoolEntry] = set()
    pruned: Set[str] = set()
    order = _seed_iris(seeds)
    reasons = {s: Admission(s, "seed") for s in order}

    def unseen(iri: str) -> bool:
        return iri not in docs and iri not in reasons

    try:
        while reasons:
            if len(docs) + len(order) > max_documents:
                raise CappedTraversalError(max_documents, trace)
            wave = deref.fetch_wave(order)
            docs.update(wave)
            relevant.update((t, doc.doc_iri) for doc in wave.values() for t in doc.sorted_triples
                            if triple_relevant(policy, t, doc.doc_iri))
            for iri in wave:
                trace.record(reasons[iri])
            reasons = {}
            for admission in follow(list(wave.values()), unseen, relevant):
                if admission.reason != "pruned":
                    reasons[admission.doc_iri] = admission
                elif admission.doc_iri not in pruned:
                    pruned.add(admission.doc_iri)
                    trace.record(admission)
            order = _order(set(reasons), rng)
    finally:
        deref.close()

    trace.pool = TriplePool(apply_overrides(relevant, policy))
    trace.documents = docs
    return trace.pool, trace


def traverse_unguided(config: TraversalConfig, source, query: Query, *,
                      rng: Optional[random.Random] = None) -> Tuple[TriplePool, TraversalTrace]:
    """Breadth-first reachability fixed point under classical semantics.

    c-none never follows links; c-all follows every subject/object IRI of
    every parsed triple; c-match follows IRIs from triples that match a query
    pattern, plus links asserted about entities already known to occur in
    such matching triples. Predicate-position IRIs are never followed.
    """
    strategies = {C_NONE: _no_links, C_ALL: _all_links,
                  C_MATCH: _match_links(triple_patterns(query))}
    if config.semantics not in strategies:
        raise ValueError("unknown semantics %r" % config.semantics)
    return _fixed_point(config.seeds, source, strategies[config.semantics],
                        PERMISSIVE_POLICY, config.max_documents, rng)


def traverse_guided(seeds: Sequence[str], registry: LinkingStructureRegistry,
                    policy: ContentPolicy, query: Query, source, *,
                    max_documents: int = DEFAULT_MAX_DOCUMENTS,
                    rng: Optional[random.Random] = None) -> Tuple[TriplePool, TraversalTrace]:
    """Guided reachability fixed point.

    Each admitted document's triples are filtered by the content policy; only
    relevant triples enter the pool. A hyperlinked candidate document is
    admitted when the linking structure of the referring document allows it
    for some query pattern. After the fixed point, exclusive policy rules are
    enforced over the whole pool.
    """
    follow = functools.partial(_guided_links, registry, triple_patterns(query))
    return _fixed_point(seeds, source, follow, policy, max_documents, rng)
