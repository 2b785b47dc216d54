"""
Core RDF data model: terms, triples, triple patterns and an in-memory graph
with pattern matching, plus IRI reference resolution and fragment stripping.

Only the machinery needed for small webs of hyperlinked documents: IRIs,
plain literals with optional language tags, and variables inside patterns.
No blank nodes, no datatypes.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple
from urllib.parse import urljoin, urlsplit

IRI = "iri"
LITERAL = "literal"
VARIABLE = "variable"


class IriError(ValueError):
    """Raised when an IRI that must be absolute has no scheme, or is malformed."""


# Printable ASCII but space, '[' and ']': urlsplit can neither reject such a
# string nor strip or drop any of its characters.
_PLAIN = re.compile(r"[!-Z\\^-~]*")
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")  # RFC 3986 section 3.1


def is_absolute_iri(text: str) -> bool:
    """Whether text starts with an RFC 3986 scheme and a colon.

    Text that is not plain printable ASCII is first checked by urlsplit, so a
    malformed bracketed authority, such as "http://[x", raises IriError.
    """
    if not _PLAIN.fullmatch(text):
        try:
            urlsplit(text)
        except ValueError as exc:
            raise IriError("malformed IRI %r: %s" % (text, exc)) from exc
    return _SCHEME.match(text) is not None


def resolve_iri(base: str, reference: str) -> str:
    """Resolve an IRI reference against an absolute base.

    Absolute references are returned unchanged; relative ones are resolved
    with the standard reference-resolution algorithm (merge paths, remove
    dot segments).
    """
    if not reference:
        raise IriError("empty IRI reference")
    if is_absolute_iri(reference):
        return reference
    if not is_absolute_iri(base):
        raise IriError("base IRI %r has no scheme" % (base,))
    if reference.startswith("#"):  # the base document, as written (RFC 3986 section 5.2.2)
        return base.partition("#")[0] + reference
    resolved = urljoin(base, reference)
    if reference.endswith("#") and not resolved.endswith("#"):
        resolved += "#"  # urljoin drops an empty fragment
    return resolved


def strip_fragment(iri: str) -> str:
    """Cut an absolute IRI at its first '#'; the rest is kept as written."""
    if not is_absolute_iri(iri):
        raise IriError("IRI %r is not absolute" % (iri,))
    return iri.partition("#")[0]


@dataclass(frozen=True)
class Term:
    """An RDF term: an IRI, a plain literal, or (in patterns) a variable.

    A term caches its hash, its sort key and its `document` when it is
    built. An IRI's document is its value cut at the first '#', the document
    a link to it requests; a literal's or a variable's is None. Every public
    constructor checks its fields; only the Turtle parser builds literals
    through the unchecked `_trusted_literal`, from text its grammar checked.
    """

    kind: str
    value: str
    language: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (IRI, LITERAL, VARIABLE):
            raise ValueError("unknown term kind %r" % (self.kind,))
        if self.language is not None and self.kind != LITERAL:
            raise ValueError("language tag on non-literal term")
        if self.kind == IRI and not is_absolute_iri(self.value):
            raise IriError("IRI term %r is not absolute" % (self.value,))
        fields = self.__dict__  # frozen: the cached values bypass __setattr__
        fields["_hash"] = hash((self.kind, self.value, self.language))
        fields["_sort_key"] = (self.value, self.language or "", self.kind)
        fields["document"] = self.value.partition("#")[0] if self.kind == IRI else None

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def iri(value: str) -> "Term":
        return Term(IRI, value)

    @staticmethod
    def literal(value: str, language: Optional[str] = None) -> "Term":
        return Term(LITERAL, value, language)

    @staticmethod
    def var(name: str) -> "Term":
        return Term(VARIABLE, name.lstrip("?"))

    @property
    def is_variable(self) -> bool:
        return self.kind == VARIABLE

    def sort_key(self) -> Tuple[str, str, str]:
        return self._sort_key

    def n3(self) -> str:
        if self.kind == IRI:
            return "<%s>" % self.value
        if self.kind == VARIABLE:
            return "?%s" % self.value
        body = _escape_literal(self.value)
        if self.language:
            return '"%s"@%s' % (body, self.language)
        return '"%s"' % body


def _trusted_literal(value: str, language: Optional[str]) -> Term:
    """A literal Term built without `__post_init__`: the Turtle parser's, whose
    grammar admits only a string value and a well-formed language tag."""
    term = object.__new__(Term)
    fields = term.__dict__
    fields["kind"] = LITERAL
    fields["value"] = value
    fields["language"] = language
    fields["_hash"] = hash((LITERAL, value, language))
    fields["_sort_key"] = (value, language or "", LITERAL)
    fields["document"] = None
    return term


def _escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


@dataclass(frozen=True)
class Triple:
    """A ground RDF triple; no component may be a variable.

    A triple caches its hash, made from its terms' cached hashes; its sort
    key is built from their cached sort keys. `Triple(...)` checks its
    terms; only the Turtle parser builds triples through the unchecked
    `_trusted_triple`, from an IRI subject and predicate it checked.
    """

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if self.subject.kind != IRI:
            raise ValueError("triple subject must be an IRI")
        if self.predicate.kind != IRI:
            raise ValueError("triple predicate must be an IRI")
        if self.object.kind == VARIABLE:
            raise ValueError("triple object may not be a variable")
        object.__setattr__(self, "_hash",
                           hash((self.subject._hash, self.predicate._hash, self.object._hash)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return (self.subject._sort_key, self.predicate._sort_key, self.object._sort_key)

    def n3(self) -> str:
        return "%s %s %s." % (self.subject.n3(), self.predicate.n3(), self.object.n3())


def _trusted_triple(subject: Term, predicate: Term, obj: Term) -> Triple:
    """A Triple built without `__post_init__`: the Turtle parser's, which has
    checked that subject and predicate are IRIs and never builds a variable."""
    triple = object.__new__(Triple)
    fields = triple.__dict__
    fields["subject"] = subject
    fields["predicate"] = predicate
    fields["object"] = obj
    fields["_hash"] = hash((subject._hash, predicate._hash, obj._hash))
    return triple


@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern; any position may be a variable."""

    subject: Term
    predicate: Term
    object: Term

    def variables(self) -> List[str]:
        return [t.value for t in (self.subject, self.predicate, self.object) if t.is_variable]

    def n3(self) -> str:
        return "%s %s %s." % (self.subject.n3(), self.predicate.n3(), self.object.n3())


SolutionMapping = Dict[str, Term]


def match_triple(triple: Triple, pattern: TriplePattern) -> Optional[SolutionMapping]:
    """Bind the pattern's variables against a ground triple.

    Returns the variable bindings when every concrete pattern position equals
    the triple's term and repeated variables bind consistently; None otherwise.
    """
    bindings: SolutionMapping = {}
    pairs = (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    )
    for pat, term in pairs:
        if pat.is_variable:
            bound = bindings.get(pat.value)
            if bound is None:
                bindings[pat.value] = term
            elif bound != term:
                return None
        elif pat != term:
            return None
    return bindings


POSITIONS = ("subject", "predicate", "object")


class Graph:
    """A deduplicated set of triples with deterministic iteration order.

    Patterns are looked up in hash indexes built on demand, one per shape,
    and dropped by `add`/`update`. A shape is up to two positions a pattern
    binds, such as (subject, predicate); its index maps the terms in those
    positions to the triples that have them.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples = set(triples)
        self._indexes: Dict[Tuple[str, ...], Dict[object, List[Triple]]] = {}

    def add(self, triple: Triple) -> None:
        self._triples.add(triple)
        self._indexes = {}

    def update(self, triples: Iterable[Triple]) -> None:
        self._triples.update(triples)
        self._indexes = {}

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=Triple.sort_key))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __repr__(self) -> str:
        return "Graph(%d triples)" % len(self)

    def index(self, shape: Tuple[str, ...]) -> Dict[object, List[Triple]]:
        """The index of a shape, built on first use; read it with `get`.

        Its keys are the terms in the shape's positions: the term itself for
        one position, a tuple for two, and () for the empty shape, whose one
        bucket holds every triple. Buckets are unordered.
        """
        index = self._indexes.get(shape)
        if index is None:
            if shape:
                key = attrgetter(*shape)
                index = defaultdict(list)
                for triple in self._triples:
                    index[key(triple)].append(triple)
            else:
                index = {(): list(self._triples)}
            self._indexes[shape] = index
        return index


def graph_match(graph: Graph, pattern: TriplePattern) -> List[Tuple[Triple, SolutionMapping]]:
    """All triples in the graph matching the pattern, with their bindings.

    Matches come back sorted by (subject, predicate, object) term order so
    downstream results never depend on insertion order. Only the bucket of
    the pattern's first two concrete positions is checked and sorted, not
    the whole graph. `explain --row` calls it, as do the tests; `evaluate`
    reads `Graph.index` through its compiled steps instead.
    """
    shape = tuple(name for name in POSITIONS if not getattr(pattern, name).is_variable)[:2]
    key = attrgetter(*shape)(pattern) if shape else ()
    out = []
    for triple in graph.index(shape).get(key, ()):
        bindings = match_triple(triple, pattern)
        if bindings is not None:
            out.append((triple, bindings))
    out.sort(key=lambda match: match[0].sort_key())
    return out


def to_ntriples(graph: Graph) -> str:
    """Canonical serialization: one sorted `<s> <p> o.` line per triple."""
    return "".join(t.n3() + "\n" for t in graph)
