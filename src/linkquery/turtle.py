"""
Parser for the Turtle subset used by small RDF document webs.

Supported: IRI references in angle brackets (absolute or relative), prefixed
names, plain literals with an optional @lang tag, predicate-object lists with
`;`, object lists with `,`, `.`-terminated statements, `@prefix` declarations,
`a` as rdf:type, and `#` comments outside tokens. Relative IRIs are resolved
against the caller-supplied base.

Text is scanned in one `finditer` pass over one compiled alternation per
grammar: TURTLE_GRAMMAR, and QUERY_GRAMMAR, which adds `?variables` and
braces for the query parser. The last token alternative of each catches any
character no token starts with, which is reported at its offset.
TURTLE_GRAMMAR joins the whitespace and comments before a token onto it, so
each token costs one match, and the first match with no token is the end of
the text; QUERY_GRAMMAR matches them on their own. The Turtle parser builds
no token objects: it reads statements and `@prefix` declarations straight
from the scanner's matches, in one loop driven by what it expects next, and
places an error at the token's own start, after the whitespace joined onto
it. `Token` and `tokenize` serve the query parser only. A scan error
anywhere in the text is reported before any other error, as if the
whole text had been scanned first. A literal's escapes are undone in one
`unicode_escape` codec call. Line and column are worked out only when an
error is raised.

A parser resolves each distinct `<…>` reference, and each prefixed name
between `@prefix` declarations, once per document. It takes its IRI terms,
`a` included, from a table keyed by resolved IRI that the caller may share
between parses. A Dereferencer keeps one per traversal, so an IRI is built
and checked by `Term.iri` once per traversal, not once per document, and
every document that names it holds the same term. A value whose term could
not be built is never stored. The common relative references,
fragment-only (`#x`) and one path segment with an optional fragment
(`p1#me`), resolve by appending to a prefix, found once per document:
sliced from a plain http(s) base, otherwise cut from two `resolve_iri`
probes. Any other reference (`..`, `/`, `?`, `;`, `:`, spaces,
control or non-ASCII characters) goes through `resolve_iri`.

Not supported (by design): blank nodes, collections, datatyped literals,
@base, named graphs.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .rdf import IRI, LITERAL, Graph, Term, Triple, resolve_iri, strip_fragment

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# Prefixes the document webs in this package rely on without declaring.
DEFAULT_PREFIXES: Dict[str, str] = {
    "foaf": "http://xmlns.com/foaf/0.1/",
    "dbr": "http://dbpedia.org/resource/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
}


class TurtleParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


@dataclass(slots=True)
class Token:
    type: str  # iriref | pname | literal | dot | semi | comma | prefix_kw | word | var | brace
    value: str
    language: Optional[str]


_LITERAL_CHARS = r'[^"\\\n]*(?:\\[\\"ntr][^"\\\n]*)*'
_SPACE = r"[ \t\r\n]+ | \#[^\n]*"  # whitespace or a comment
_TOKEN = r"""
    <(?P<iriref>[^>\n]*)>
  | "(?P<literal>%s)"(?:@(?P<language>[A-Za-z]+(?:-[A-Za-z0-9]+)*)(?![A-Za-z0-9\-])|(?!@))
  | (?P<prefix_kw>@prefix)(?![A-Za-z0-9_\-])
  | (?P<pname>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:[A-Za-z0-9_\-]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<dot>\.) | (?P<semi>;) | (?P<comma>,)
  | (?P<bad>[\s\S])
""" % _LITERAL_CHARS
_TURTLE_TOKENS = _SPACE + " | " + _TOKEN

# One alternation per token language; `bad` is any character no token starts
# with, and a literal directly followed by '@' must carry a well-formed
# language tag. In QUERY_GRAMMAR, whitespace and comments match no group. In
# TURTLE_GRAMMAR, each match is one token with the whitespace and comments
# before it; after the last token, the matches hold no token: the whitespace
# and comments that end the text, then an empty match at its end when those
# were not empty.
TURTLE_GRAMMAR = re.compile(r"(?:%s)* (?:%s | \Z)" % (_SPACE, _TOKEN), re.VERBOSE)
QUERY_GRAMMAR = re.compile(
    r"\?(?P<var>[A-Za-z_][A-Za-z0-9_]*) | (?P<brace>[{}]) |" + _TURTLE_TOKENS, re.VERBOSE
)
_LEADING_SPACE = re.compile("(?:%s)*" % _SPACE, re.VERBOSE)

# A base that urljoin only cuts before a local reference: lowercase http(s), a
# non-empty authority, and a path without empty inner, '.' or '..' segments,
# all printable ASCII other than '?', ';', '[' and ']'; any fragment. Slicing
# such a base, not probing it, takes crawl's query_p50_s (132 documents a
# query) from 0.0132 to 0.0118 s (.benchmarks/BENCH_8.json, sliced_base_ab).
_SLICED_BASE = re.compile(
    r"(?P<authority>https?://[^\x00-\x20\x7f-\U0010ffff#/;?\[\]]+)"
    r"(?P<path>(?:/(?!\.\.?(?:[#/]|\Z))[^\x00-\x20\x7f-\U0010ffff#/;?\[\]]+)*/?)"
    r"(?:\#[!-~]*)?"
)

# A relative reference that resolves to a per-base prefix plus itself: an
# optional path segment other than '.' and '..', then an optional fragment,
# in printable ASCII that urljoin passes through unchanged.
_LOCAL_REFERENCE = re.compile(
    r"(?!\.\.?(?:\#|\Z))(?P<segment>[^\x00-\x20\x7f-\U0010ffff#/:;?]*)(?:\#[!-~]*)?"
)

_OPEN_LITERAL_RE = re.compile('"' + _LITERAL_CHARS)


def _error_at(text: str, pos: int, message: str) -> TurtleParseError:
    """A TurtleParseError positioned at an offset into text."""
    line = text.count("\n", 0, pos) + 1
    return TurtleParseError(message, line, pos - text.rfind("\n", 0, pos))


def _token_start(text: str, m: re.Match) -> int:
    """Where the token of a TURTLE_GRAMMAR match starts, past the whitespace
    and comments before it (the end of the text for the last match)."""
    return _LEADING_SPACE.match(text, m.start()).end()


def _scan_error(text: str, pos: int, grammar: re.Pattern) -> TurtleParseError:
    ch = text[pos]
    if ch == "<":
        return _error_at(text, pos, "unterminated IRI reference")
    if ch == '"':
        stop = _OPEN_LITERAL_RE.match(text, pos).end()
        if text.startswith("\\", stop):
            return _error_at(text, stop + 1, "unknown escape in literal")
        if text.startswith('"', stop):  # closed, but a bad tag follows its '@'
            return _error_at(text, stop + 2, "malformed language tag")
        return _error_at(text, pos, "unterminated literal")
    if ch == "@":
        return _error_at(text, pos, "unexpected '@'")
    if ch == "?" and grammar is QUERY_GRAMMAR:
        return _error_at(text, pos, "malformed variable")
    return _error_at(text, pos, "unexpected character %r" % ch)


def _unescape(value: str) -> str:
    """Undo a scanned literal's escapes in one codec call. The grammar admits
    only `\\\\`, `\\"`, `\\n`, `\\t` and `\\r`, which `unicode_escape` decodes
    as Turtle does; Latin-1 characters pass through it as bytes, and any other
    character goes in and comes back as a `\\u` or `\\U` escape."""
    return value.encode("latin-1", "backslashreplace").decode("unicode_escape")


def _literal_value(m: re.Match) -> str:
    """The value of a scanned literal, its escapes undone."""
    value = m["literal"]
    return _unescape(value) if "\\" in value else value


def tokenize(text: str, grammar: re.Pattern) -> List[Token]:
    """Split text into tokens of a grammar; the query parser reads QUERY_GRAMMAR's."""
    out: List[Token] = []
    append = out.append
    for m in grammar.finditer(text):
        kind = m.lastgroup  # a tagged literal's last group is its language
        if kind is None:
            continue
        if kind == "literal" or kind == "language":
            append(Token("literal", _literal_value(m), m["language"]))
        elif kind == "bad":
            raise _scan_error(text, m.start(), grammar)
        else:
            append(Token(kind, m[kind], None))
    return out


class _Parser:
    def __init__(self, text: str, base: str, prefixes: Dict[str, str],
                 terms: Optional[Dict[str, Term]] = None):
        self.text = text
        self.base = base
        self.prefixes = dict(prefixes)
        self.terms = {} if terms is None else terms  # IRI terms by value, may be shared
        self._iris: Dict[str, Term] = {}  # by reference, as written
        self._pnames: Dict[str, Term] = {}  # by prefixed name, until @prefix

    def _error(self, message: str, m: re.Match) -> TurtleParseError:
        """A TurtleParseError at the token of a TURTLE_GRAMMAR match."""
        return _error_at(self.text, _token_start(self.text, m), message)

    @functools.cached_property
    def _base_prefixes(self) -> Tuple[str, str]:
        """What resolution puts before a fragment-only and before a one-segment reference."""
        sliced = _SLICED_BASE.fullmatch(self.base)
        if sliced is None:
            return tuple(resolve_iri(self.base, probe)[:-len(probe)] for probe in ("#x", "x"))
        path = sliced["path"]
        return (sliced["authority"] + path,
                sliced["authority"] + (path[:path.rfind("/") + 1] or "/"))

    def _resolve(self, reference: str) -> str:
        if not reference:  # `<>` is the document itself (RFC 3986 section 5.2.2)
            return strip_fragment(self.base)
        local = _LOCAL_REFERENCE.fullmatch(reference)
        if local is None:
            return resolve_iri(self.base, reference)
        fragment_prefix, segment_prefix = self._base_prefixes
        return (segment_prefix if local.group("segment") else fragment_prefix) + reference

    def _iri(self, value: str) -> Term:
        term = self.terms.get(value)
        if term is None:
            term = self.terms[value] = Term.iri(value)  # stored only once it is built
        return term

    def _term(self, m: re.Match, kind: str) -> Term:
        """The term a token, `m` of group `kind`, stands for in a statement."""
        if kind == "iriref":
            reference = m["iriref"]
            term = self._iris.get(reference)
            if term is None:
                term = self._iris[reference] = self._iri(self._resolve(reference))
            return term
        if kind == "pname":
            name = m["pname"]
            term = self._pnames.get(name)
            if term is None:
                prefix, local = name.split(":", 1)
                if prefix not in self.prefixes:
                    raise self._error("unknown prefix %r" % prefix, m)
                term = self._pnames[name] = self._iri(self.prefixes[prefix] + local)
            return term
        if kind == "language" or kind == "literal":
            return Term(LITERAL, _literal_value(m), m["language"])
        if kind == "word" and m["word"] == "a":
            return self._iri(RDF_TYPE)
        raise self._error("unexpected token %r" % m[kind], m)

    def parse(self) -> Graph:
        """Read the scanner's matches in one pass; `expect` names what the next token must be.

        A scan error (a `bad` match) anywhere in the text is reported before
        any other error, as if the whole text had been scanned first: when
        reading a token raises, the rest of the text is scanned for one.
        """
        text = self.text
        matches = TURTLE_GRAMMAR.finditer(text)
        triples: List[Triple] = []
        append = triples.append
        term = self._term
        expect = "subject"
        try:
            for m in matches:
                kind = m.lastgroup  # a tagged literal's last group is its language
                if kind is None:  # the end of the text
                    break
                if expect == "object":
                    append(Triple(subject, predicate, term(m, kind)))
                    expect = "separator"
                elif expect == "separator":
                    if kind == "comma":
                        expect = "object"
                    elif kind == "semi":
                        expect = "predicate or dot"
                    elif kind == "dot":
                        expect = "subject"
                    else:
                        raise self._error("expected ',', ';' or '.'", m)
                elif expect == "predicate" or (expect == "predicate or dot" and kind != "dot"):
                    predicate = term(m, kind)
                    if predicate.kind != IRI:
                        raise self._error("predicate must be an IRI", m)
                    expect = "object"
                elif expect == "predicate or dot":  # a trailing ';' before the terminator
                    expect = "subject"
                elif expect == "subject":
                    if kind == "prefix_kw":
                        expect = "prefix name"
                    else:
                        subject = term(m, kind)
                        if subject.kind != IRI:
                            raise self._error("subject must be an IRI", m)
                        expect = "predicate"
                elif expect == "prefix name":
                    if kind != "pname" or not m["pname"].endswith(":"):
                        raise self._error("expected prefix name", m)
                    name = m["pname"][:-1]
                    expect = "namespace"
                elif expect == "namespace":
                    if kind != "iriref":
                        raise self._error("expected namespace IRI", m)
                    namespace = m["iriref"]
                    expect = "prefix dot"
                else:  # the '.' that ends a prefix declaration
                    if kind != "dot":
                        raise self._error("expected '.' after @prefix", m)
                    self.prefixes[name] = self._resolve(namespace)
                    self._pnames.clear()
                    expect = "subject"
        except (TurtleParseError, ValueError):  # ValueError: IriError, from resolving or Term.iri
            # No state accepts a `bad` match, so none came before `m`, the one being read.
            for later in itertools.chain((m,), matches):
                if later.lastgroup == "bad":
                    raise _scan_error(text, later.start("bad"), TURTLE_GRAMMAR) from None
            raise
        if expect != "subject":
            last = [m for m in TURTLE_GRAMMAR.finditer(text) if m.lastgroup][-1]
            raise self._error("unterminated statement", last)
        return Graph(triples)


def parse_turtle(text: str, base: str, terms: Optional[Dict[str, Term]] = None) -> Graph:
    """Parse Turtle-subset text into a Graph, resolving IRIs against base.

    terms maps IRI values to their terms; the parse reuses the terms it holds
    and adds the ones it builds, so parses that share it share their terms.
    """
    return _Parser(text, base, DEFAULT_PREFIXES, terms).parse()
