"""
Core RDF data model: terms, triple patterns (a triple is a ground one) and
an in-memory graph with the indexes pattern lookups read, plus IRI reference
resolution and fragment stripping.

Only the machinery needed for small webs of hyperlinked documents: IRIs,
plain literals with optional language tags, and variables inside patterns.
No blank nodes, no datatypes.
"""
from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple
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


# namedtuple's field accessors read a tuple position in C, about 20 ns a read
# faster than property(itemgetter(i)) (Python 3.11); Term and TriplePattern
# take them as their fields and nothing else from namedtuple.
_TermFields = namedtuple("_TermFields", "value language_or_empty kind document")
_TripleFields = namedtuple("_TripleFields", "subject predicate object")


class Term(tuple):
    """An RDF term: an IRI, a plain literal, or (in patterns) a variable.

    A term is the tuple (value, language or "", kind, document), so it
    hashes, compares and sorts as that tuple does, in C: by value, then
    language tag, then kind. The document follows from the value and the
    kind, so it never decides between two terms. Building a term checks its
    fields. An IRI's document is its value cut at the first '#', the document
    a link to it requests; a literal's or a variable's is None.
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: str, language: Optional[str] = None) -> "Term":
        if kind not in (IRI, LITERAL, VARIABLE):
            raise ValueError("unknown term kind %r" % (kind,))
        if language is not None:
            if kind != LITERAL:
                raise ValueError("language tag on non-literal term")
            if not language:  # "" would name the untagged literal a second way
                raise ValueError("empty language tag")
        if kind == IRI and not is_absolute_iri(value):
            raise IriError("IRI term %r is not absolute" % (value,))
        document = value.partition("#")[0] if kind == IRI else None
        return tuple.__new__(cls, (value, language or "", kind, document))

    value, kind, document = _TermFields.value, _TermFields.kind, _TermFields.document

    @property
    def language(self) -> Optional[str]:
        return self[1] or None

    def __reduce__(self):
        # copy, deepcopy and pickle, under every protocol, build through __new__.
        return Term, (self.kind, self.value, self.language)

    def __repr__(self) -> str:
        return "Term(kind=%r, value=%r, language=%r)" % (self.kind, self.value, self.language)

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

    def n3(self) -> str:
        if self.kind == IRI:
            return "<%s>" % self.value
        if self.kind == VARIABLE:
            return "?%s" % self.value
        body = _escape_literal(self.value)
        if self.language:
            return '"%s"@%s' % (body, self.language)
        return '"%s"' % body


def _escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


class TriplePattern(tuple):
    """A triple pattern: the tuple (subject, predicate, object), any position
    of which may be a variable. Positions are read as indexes 0-2 or by name.
    Building a pattern checks nothing.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> "TriplePattern":
        return tuple.__new__(cls, (subject, predicate, object))

    subject, predicate, object = (
        _TripleFields.subject, _TripleFields.predicate, _TripleFields.object)

    def variables(self) -> List[str]:
        return [t.value for t in self if t.is_variable]

    def __reduce__(self):
        # copy, deepcopy and pickle, under every protocol, build through __new__.
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return "%s(subject=%r, predicate=%r, object=%r)" % ((type(self).__name__,) + self)

    def n3(self) -> str:
        return "%s %s %s." % (self.subject.n3(), self.predicate.n3(), self.object.n3())


class Triple(TriplePattern):
    """A ground RDF triple: a pattern with an IRI subject and predicate, and
    an object that is not a variable. As a tuple it hashes, compares and
    sorts as its terms do, in that order, in C. Building a triple checks its
    terms.
    """

    __slots__ = ()

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> "Triple":
        if subject.kind != IRI:
            raise ValueError("triple subject must be an IRI")
        if predicate.kind != IRI:
            raise ValueError("triple predicate must be an IRI")
        if object.kind == VARIABLE:
            raise ValueError("triple object may not be a variable")
        return tuple.__new__(cls, (subject, predicate, object))


SolutionMapping = Dict[str, Term]


def match_triple(triple: Triple, pattern: TriplePattern) -> Optional[SolutionMapping]:
    """Bind the pattern's variables against a ground triple.

    Returns the variable bindings when every concrete pattern position equals
    the triple's term and repeated variables bind consistently; None otherwise.
    """
    bindings: SolutionMapping = {}
    for pat, term in zip(pattern, triple):
        if pat.is_variable:
            bound = bindings.get(pat.value)
            if bound is None:
                bindings[pat.value] = term
            elif bound != term:
                return None
        elif pat != term:
            return None
    return bindings


def shape_key(shape: Tuple[int, ...]) -> Callable[[Triple], object]:
    """A triple's key in `Graph.index(shape)`: its term in the shape's one
    position, the tuple of its terms in two, () for the empty shape."""
    return itemgetter(*shape) if shape else lambda triple: ()


class Graph:
    """An immutable, deduplicated set of triples with deterministic iteration
    order: iterating sorts the triples as tuples, in term order. Nothing
    changes a graph once built, so a graph is shared rather than copied.

    Patterns are looked up in hash indexes built on demand, one per shape,
    and kept for the graph's life. A shape is up to two positions a pattern
    binds, such as (0, 1) for subject and predicate; its index maps the
    terms in those positions to the triples that have them.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples = frozenset(triples)
        self._indexes: Dict[Tuple[int, ...], Dict[object, List[Triple]]] = {}

    @classmethod
    def union(cls, graphs: Iterable["Graph"]) -> "Graph":
        """A graph of every triple in the given graphs. Their sets are merged
        with the hashes they store, so no triple is hashed again.
        """
        return cls(frozenset().union(*(graph._triples for graph in graphs)))

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples))

    def unordered(self) -> Iterator[Triple]:
        """The triples in no particular order, without the sort `__iter__` makes."""
        return iter(self._triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._triples == other._triples

    def __repr__(self) -> str:
        return "Graph(%d triples)" % len(self)

    def index(self, shape: Tuple[int, ...]) -> Dict[object, List[Triple]]:
        """The index of a shape, built on first use; read it with `get`.

        A shape is a tuple of at most two triple positions, 0 subject, 1
        predicate, 2 object. A triple is filed under its `shape_key(shape)`,
        so the empty shape's one bucket, (), holds every triple. Buckets are
        unordered.
        """
        index = self._indexes.get(shape)
        if index is None:
            key = shape_key(shape)
            index = defaultdict(list)
            for triple in self._triples:
                index[key(triple)].append(triple)
            self._indexes[shape] = index
        return index


def to_ntriples(graph: Graph) -> str:
    """Canonical serialization: one sorted `<s> <p> o.` line per triple."""
    return "".join(t.n3() + "\n" for t in graph)
