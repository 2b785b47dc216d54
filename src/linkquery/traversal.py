"""
Reachability fixed points over a web of documents.

One semi-naive fixed point serves all four modes. Each wave hands the newly
fetched documents that have triples (a failed fetch has none, and links
nowhere) to a link strategy: c-none follows no links, c-all every
subject/object IRI, c-match the IRIs of query-matching triples and of triples
about their entities, and guided the links that the linking structure allows
for the query's patterns. Every strategy, and λ, reads a document's links
from its hyperlink table (`Document.hyperlinks`, `Document.link_predicates`),
computed once per document, in no order; c-none never computes it. c-all
and guided sort each document's table once, as the first triple to offer a
link is its witness. c-match sorts no table: it ranks the entries that can
still admit a document by (admission rank, triple), the order a sorted
table gave. It compiles the query's patterns once per query, as the join's
first steps, into lists by predicate, and checks a triple as `graph_match`
reads an index bucket, with no bindings built. The content policy decides
each fetched document's relevant triples once: a policy without rules, such
as the permissive one of every unguided run, by its default, all or none,
judging no triple; one with rules by judging each triple once, in no order,
as its verdicts make a set. The pool keeps each source document's relevant triples as one Graph,
and the guided strategy asks that graph whether a triple is relevant. A
trace records why every document was admitted or pruned, and every link λ
pruned, which `explain --doc` reads rather than deciding again. A referring
document is named by the IRI it was admitted under, not its final IRI after
a redirect.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .guidance import (
    ALLOW,
    PERMISSIVE_POLICY,
    ContentPolicy,
    LinkingStructureRegistry,
    apply_overrides,
    considered_links,
    get_linking_structure,
    lambda_allows,
    triple_relevant,
)
from .query import Query, _compile, triple_patterns
from .rdf import (
    IRI,
    Graph,
    Triple,
    TriplePattern,
    match_triple,  # not called here; a wrap point of perfbench/tracing.py
    shape_key,
    strip_fragment,
)
from .webfetch import Dereferencer, Document, FetchLedger

C_NONE = "c-none"
C_ALL = "c-all"
C_MATCH = "c-match"

DEFAULT_MAX_DOCUMENTS = 64


@dataclass
class TraversalConfig:  # perfbench's call sites; deleted by item 1A2
    semantics: str = C_MATCH
    seeds: Sequence[str] = ()
    max_documents: int = DEFAULT_MAX_DOCUMENTS


class Admission(NamedTuple):
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
    """Each source document's relevant triples, one Graph per document: the
    document's own graph when the policy keeps all of it.

    The union graph is merged from the documents' sets with the hashes they
    store, so building it hashes no triple. The (triple, source) entries and
    the provenance are read from the same sets, in no order, with no sort.
    """

    def __init__(self, sources: Dict[str, Graph]):
        self.sources = sources

    @property
    def entries(self) -> Set[Tuple[Triple, str]]:
        return {(t, src) for src, g in self.sources.items() for t in g.unordered()}

    def graph(self) -> Graph:
        return Graph.union(self.sources.values())

    def provenance(self) -> Dict[Triple, Set[str]]:
        out: Dict[Triple, Set[str]] = {}
        for src, g in self.sources.items():
            for t in g.unordered():
                out.setdefault(t, set()).add(src)
        return out


@dataclass
class TraversalTrace:
    ledger: FetchLedger
    admissions: List[Admission] = field(default_factory=list, init=False)
    pool: Optional[TriplePool] = None
    documents: Dict[str, Document] = field(default_factory=dict)
    # Every link λ pruned, as (referring document, triple, target); admissions
    # keep only the first pruned admission of each target.
    pruned_links: Set[Tuple[str, Triple, str]] = field(default_factory=set, init=False)
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
        ok = self.ledger.ok_documents
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
            "ledger": self.ledger.to_json_list(),
        }


class CappedTraversalError(Exception):
    """Raised when a traversal would exceed its document cap."""

    def __init__(self, max_documents: int, trace: TraversalTrace):
        super().__init__(
            "traversal exceeded the cap of %d documents" % max_documents
        )
        self.max_documents = max_documents
        self.trace = trace


# Each pattern with its check: (a triple's key in its step's index shape,
# the step's key, the step's residual check), or None.
CompiledPatterns = List[Tuple[TriplePattern, Optional[tuple]]]


def _compile_patterns(patterns: Sequence[TriplePattern]
                      ) -> Tuple[Dict[str, CompiledPatterns], CompiledPatterns]:
    """Each pattern with its check, in query order, filed by the predicate IRI
    a triple could match it with: each predicate a pattern names gets its own
    patterns and the variable-predicate ones, which are also the list of any
    other predicate (the second value). A pattern whose predicate is a literal
    matches no triple and is in no list. The check is the pattern's step
    with no variable bound, as `graph_match` compiles it; None when the step
    keys the predicate alone, or nothing, and has no residual check, as the
    lookup by predicate has then decided.
    """
    by_predicate: Dict[str, CompiledPatterns] = {}
    unbound: CompiledPatterns = []
    for tp in patterns:
        step = _compile(tp, ())
        check = None
        if step.accept is not None or step.shape not in ((1,), ()):
            check = (shape_key(step.shape), step.key(()), step.accept)
        compiled = (tp, check)
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
        keyed, key, accept = check
        if keyed(triple) == key and (accept is None or accept(triple, ())):
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


# A link strategy gets each fetched document that has triples once, in
# admission order, paired with the IRI it was admitted under, with a test for
# IRIs not yet fetched or admitted and the triples the content policy finds
# relevant, one Graph per document IRI, and yields link or "pruned"
# admissions for the links it reads from `Document.hyperlinks`. A link not
# followed from a document is never followed from it later, so no strategy
# needs to see a document twice.
LinkStrategy = Callable[[List[Tuple[str, Document]], Callable[[str], bool], Dict[str, Graph]],
                        Iterable[Admission]]


def _no_links(docs, unseen, relevant):
    return ()


def _all_links(docs, unseen, relevant):
    for referrer, doc in docs:
        for t, targets in sorted(doc.hyperlinks):
            for iri in targets:
                if unseen(iri):
                    yield Admission(iri, "link", referrer, t)


def _match_links(patterns: Sequence[TriplePattern]) -> LinkStrategy:
    """c-match: links of pattern-matching triples and of triples about their entities.

    A non-matching triple whose subject is not yet such an entity waits,
    keyed by that subject, until a matching triple names the subject. The
    patterns are compiled once per query: a triple is tried only against the
    patterns its predicate could match, in query order, each by the index
    key and residual check of its step in the join, or by none when the
    predicate decides, and the first one that matches is the admission's
    pattern.
    """
    by_predicate, unbound = _compile_patterns(patterns)
    entities: Set[str] = set()
    waiting: Dict[str, list] = {}
    ranks = itertools.count()

    def follow(docs, unseen, relevant):
        qualifying = []
        for referrer, doc in docs:
            rank = next(ranks)
            for t, targets in doc.hyperlinks:
                tp = _matching_pattern(t, by_predicate.get(t.predicate.value, unbound))
                entry = (rank, t, referrer, targets, tp)
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
        # fetched document would pick. No two entries share (rank, triple),
        # so the tuples compare by those two alone. An entry whose targets
        # are all seen admits nothing, now or later, so it is not sorted.
        qualifying = [entry for entry in qualifying if any(map(unseen, entry[3]))]
        qualifying.sort()
        for _, t, referrer, targets, tp in qualifying:
            for iri in targets:
                if unseen(iri):
                    yield Admission(iri, "link", referrer, t, tp)

    return follow


def _guided_links(registry: LinkingStructureRegistry, patterns: Sequence[TriplePattern],
                  docs, unseen, relevant):
    """Guided: candidates the referring document's linking structure allows (λ),
    each through the first triple that offers it; a pruned one yields a pruned
    admission for every such triple."""
    for referrer, doc in docs:
        structure = get_linking_structure(registry, doc.doc_iri)
        candidates: Dict[str, List[Triple]] = {}
        for t, iris in considered_links(doc, structure, relevant[doc.doc_iri].__contains__):
            for iri in iris:
                candidates.setdefault(iri, []).append(t)
        for candidate, offered_by in candidates.items():
            if not unseen(candidate):
                continue
            admitting_tp = next(
                (tp for tp in patterns if lambda_allows(structure, doc, candidate, tp)),
                None,
            )
            if admitting_tp is not None:
                yield Admission(candidate, "link", referrer, offered_by[0], admitting_tp)
                continue
            for t in offered_by:
                yield Admission(candidate, "pruned", referrer, t,
                                cause="no structure rule permits following this link")


def _relevant_triples(policy: ContentPolicy, doc: Document) -> Graph:
    """The document's triples the policy finds relevant. A policy without
    rules decides the whole document by its default and judges no triple:
    the document's own graph, not a copy, or an empty one. A policy with
    rules judges each triple once, unsorted, since its verdicts make a set.
    """
    if policy.rules:
        return Graph(t for t in doc.triples.unordered()
                     if triple_relevant(policy, t, doc.doc_iri))
    return doc.triples if policy.default_action == ALLOW else Graph()


def _fixed_point(seeds: Sequence[str], source, follow: LinkStrategy,
                 policy: ContentPolicy, max_documents: int,
                 rng: Optional[random.Random]) -> Tuple[TriplePool, TraversalTrace]:
    """Semi-naive reachability: each wave hands only the new documents to follow.

    The policy decides each fetched document's relevant triples once, when
    it arrives, and the pool keeps them as one Graph per source document:
    the final IRI, so documents admitted under two IRIs that redirect to one
    share it. Each wave's documents go into the trace as they arrive, so the
    trace of a capped traversal holds every document its ledger lists.
    Exclusive rules are then enforced over the per-document pool, which
    comes back as it was when no rule is exclusive. The Dereferencer's fetch
    pool and IRI term table serve every wave, and the fetch pool is shut
    down when the traversal ends, also when it raises.
    """
    deref = Dereferencer(source)
    trace = TraversalTrace(deref.ledger)
    relevant: Dict[str, Graph] = {}
    pruned: Set[str] = set()
    order = _seed_iris(seeds)
    reasons = {s: Admission(s, "seed") for s in order}

    def unseen(iri: str) -> bool:
        return iri not in trace.documents and iri not in reasons

    try:
        while reasons:
            if len(trace.documents) + len(order) > max_documents:
                raise CappedTraversalError(max_documents, trace)
            wave = deref.fetch_wave(order)
            trace.documents.update(wave)
            # A document without triples, such as a failed fetch, adds none to
            # the pool and links nowhere: neither the policy nor follow sees it.
            linking = [(iri, doc) for iri, doc in wave.items() if doc.triples]
            for _, doc in linking:
                kept = _relevant_triples(policy, doc)
                if doc.doc_iri in relevant:  # another admitted IRI redirected here
                    kept = Graph.union((relevant[doc.doc_iri], kept))
                relevant[doc.doc_iri] = kept
            for iri in wave:
                trace.record(reasons[iri])
            reasons = {}
            for admission in follow(linking, unseen, relevant):
                if admission.reason != "pruned":
                    reasons[admission.doc_iri] = admission
                    continue
                trace.pruned_links.add(
                    (admission.from_doc, admission.via_triple, admission.doc_iri))
                if admission.doc_iri not in pruned:
                    pruned.add(admission.doc_iri)
                    trace.record(admission)
            order = _order(set(reasons), rng)
    finally:
        deref.close()

    trace.pool = TriplePool(apply_overrides(relevant, policy))
    return trace.pool, trace


def traverse(seeds: Sequence[str], source, query: Query, *, semantics: Optional[str] = None,
             guidance: Optional[Tuple[LinkingStructureRegistry, ContentPolicy]] = None,
             max_documents: int = DEFAULT_MAX_DOCUMENTS,
             rng: Optional[random.Random] = None) -> Tuple[TriplePool, TraversalTrace]:
    """The fixed point from the seeds, as (pool, trace): unguided, with every
    triple relevant, under `semantics` (c-match when None); or guided by a
    (registry, policy) pair, and then given no semantics. Predicate-position
    IRIs are never followed.
    """
    if guidance is None:
        strategies = {C_NONE: _no_links, C_ALL: _all_links,
                      C_MATCH: _match_links(triple_patterns(query))}
        semantics = C_MATCH if semantics is None else semantics
        if semantics not in strategies:
            raise ValueError("unknown semantics %r" % semantics)
        follow, policy = strategies[semantics], PERMISSIVE_POLICY
    elif semantics is not None:
        raise ValueError("a guided traversal takes no semantics, not %r" % semantics)
    else:
        registry, policy = guidance
        follow = functools.partial(_guided_links, registry, triple_patterns(query))
    return _fixed_point(seeds, source, follow, policy, max_documents, rng)


# perfbench's call sites; deleted by item 1A2.
def traverse_unguided(config: TraversalConfig, source, query: Query, *, rng=None):
    return traverse(config.seeds, source, query, semantics=config.semantics,
                    max_documents=config.max_documents, rng=rng)


# perfbench's call sites; deleted by item 1A2.
def traverse_guided(seeds, registry, policy, query, source, *,
                    max_documents=DEFAULT_MAX_DOCUMENTS, rng=None):
    return traverse(seeds, source, query, guidance=(registry, policy),
                    max_documents=max_documents, rng=rng)
