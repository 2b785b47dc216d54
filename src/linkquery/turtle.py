"""
Parser for the Turtle subset used by small RDF document webs.

Supported: IRI references in angle brackets (absolute or relative), prefixed
names, plain literals with an optional @lang tag, predicate-object lists with
`;`, object lists with `,`, `.`-terminated statements, `@prefix` declarations,
`a` as rdf:type, and `#` comments outside tokens. Relative IRIs are resolved
against the caller-supplied base.

A parser makes one term per distinct `<…>` reference, and per prefixed name
between `@prefix` declarations, in a document. The common relative
references, fragment-only (`#x`) and one path segment with an optional
fragment (`p1#me`), resolve by appending to a prefix: two `resolve_iri`
probes split the base once per document. Any other reference (`..`, `/`,
`?`, `;`, `:`, spaces, control or non-ASCII characters) goes through
`resolve_iri`.

`tokenize` scans with one compiled alternation per grammar: TURTLE_GRAMMAR, and
QUERY_GRAMMAR, which adds `?variables` and braces for the query parser. Tokens
carry offsets; line and column are worked out only when an error is raised.

Not supported (by design): blank nodes, collections, datatyped literals,
@base, named graphs.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .rdf import Graph, Term, Triple, resolve_iri, strip_fragment

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
    pos: int  # offset into the scanned text


_LITERAL_CHARS = r'(?:[^"\\\n]|\\[\\"ntr])*'
_TURTLE_TOKENS = r"""
    [ \t\r\n]+ | \#[^\n]*
  | <(?P<iriref>[^>\n]*)>
  | "(?P<literal>%s)"(?:@(?P<language>[A-Za-z][A-Za-z0-9\-]*)|(?!@))
  | (?P<prefix_kw>@prefix)(?![A-Za-z0-9_\-])
  | (?P<pname>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:[A-Za-z0-9_\-]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<dot>\.) | (?P<semi>;) | (?P<comma>,)
""" % _LITERAL_CHARS

# One alternation per token language; whitespace and comments match no group.
# A literal directly followed by '@' must carry a well-formed language tag.
TURTLE_GRAMMAR = re.compile(_TURTLE_TOKENS, re.VERBOSE)
QUERY_GRAMMAR = re.compile(
    r"\?(?P<var>[A-Za-z_][A-Za-z0-9_]*) | (?P<brace>[{}]) |" + _TURTLE_TOKENS, re.VERBOSE
)

# A relative reference that resolves to a per-base prefix plus itself: an
# optional path segment other than '.' and '..', then an optional fragment,
# in printable ASCII that urljoin passes through unchanged.
_LOCAL_REFERENCE = re.compile(
    r"(?!\.\.?(?:\#|\Z))(?P<segment>[^\x00-\x20\x7f-\U0010ffff#/:;?]*)(?:\#[!-~]*)?"
)

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)")
_OPEN_LITERAL_RE = re.compile('"' + _LITERAL_CHARS)


def _error_at(text: str, pos: int, message: str) -> TurtleParseError:
    """A TurtleParseError positioned at an offset into text."""
    line = text.count("\n", 0, pos) + 1
    return TurtleParseError(message, line, pos - text.rfind("\n", 0, pos))


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


def tokenize(text: str, grammar: re.Pattern) -> List[Token]:
    """Split text into tokens of TURTLE_GRAMMAR or QUERY_GRAMMAR."""
    out: List[Token] = []
    match = grammar.match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise _scan_error(text, pos, grammar)
        kind = m.lastgroup  # a tagged literal's last group is its language
        if kind == "literal" or kind == "language":
            value = m.group("literal")
            if "\\" in value:
                value = _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], value)
            out.append(Token("literal", value, m.group("language"), pos))
        elif kind is not None:
            out.append(Token(kind, m.group(kind), None, pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text: str, base: str, prefixes: Dict[str, str]):
        self.text = text
        self.tokens = tokenize(text, TURTLE_GRAMMAR)
        self.pos = 0
        self.base = base
        self.prefixes = dict(prefixes)
        self._iris: Dict[str, Term] = {}  # by reference, as written
        self._pnames: Dict[str, Term] = {}  # by prefixed name, until @prefix

    def _peek(self) -> Optional[Token]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _take(self) -> Token:
        tok = self._peek()
        if tok is None:
            # only reached after a token was peeked, so there is a last one
            raise self._error("unterminated statement", self.tokens[-1])
        self.pos += 1
        return tok

    def _error(self, message: str, tok: Token) -> TurtleParseError:
        return _error_at(self.text, tok.pos, message)

    @functools.cached_property
    def _base_prefixes(self) -> Tuple[str, str]:
        """What resolution puts before a fragment-only and before a one-segment reference."""
        return tuple(resolve_iri(self.base, probe)[:-len(probe)] for probe in ("#x", "x"))

    def _resolve(self, reference: str) -> str:
        if not reference:  # `<>` is the document itself (RFC 3986 section 5.2.2)
            return strip_fragment(self.base)
        local = _LOCAL_REFERENCE.fullmatch(reference)
        if local is None:
            return resolve_iri(self.base, reference)
        fragment_prefix, segment_prefix = self._base_prefixes
        return (segment_prefix if local.group("segment") else fragment_prefix) + reference

    def _expand(self, tok: Token) -> Term:
        if tok.type == "iriref":
            term = self._iris.get(tok.value)
            if term is None:
                term = self._iris[tok.value] = Term.iri(self._resolve(tok.value))
            return term
        if tok.type == "pname":
            term = self._pnames.get(tok.value)
            if term is None:
                prefix, local = tok.value.split(":", 1)
                if prefix not in self.prefixes:
                    raise self._error("unknown prefix %r" % prefix, tok)
                term = self._pnames[tok.value] = Term.iri(self.prefixes[prefix] + local)
            return term
        if tok.type == "literal":
            return Term.literal(tok.value, tok.language)
        if tok.type == "word" and tok.value == "a":
            return Term.iri(RDF_TYPE)
        raise self._error("unexpected token %r" % tok.value, tok)

    def parse(self) -> Graph:
        graph = Graph()
        while self._peek() is not None:
            tok = self._peek()
            if tok.type == "prefix_kw":
                self._parse_prefix()
            else:
                self._parse_statement(graph)
        return graph

    def _parse_prefix(self) -> None:
        self._take()  # @prefix
        name = self._take()
        if name.type != "pname" or not name.value.endswith(":"):
            raise self._error("expected prefix name", name)
        iri = self._take()
        if iri.type != "iriref":
            raise self._error("expected namespace IRI", iri)
        dot = self._take()
        if dot.type != "dot":
            raise self._error("expected '.' after @prefix", dot)
        self.prefixes[name.value[:-1]] = self._resolve(iri.value)
        self._pnames.clear()

    def _parse_statement(self, graph: Graph) -> None:
        subject_tok = self._take()
        subject = self._expand(subject_tok)
        if subject.kind != "iri":
            raise self._error("subject must be an IRI", subject_tok)
        first = True
        while True:
            tok = self._peek()
            if tok is not None and tok.type == "dot" and not first:
                # permit a trailing ';' before the terminator
                self._take()
                return
            first = False
            pred_tok = self._take()
            predicate = self._expand(pred_tok)
            if predicate.kind != "iri":
                raise self._error("predicate must be an IRI", pred_tok)
            while True:
                obj = self._expand(self._take())
                graph.add(Triple(subject, predicate, obj))
                sep = self._take()
                if sep.type == "comma":
                    continue
                if sep.type == "semi":
                    break
                if sep.type == "dot":
                    return
                raise self._error("expected ',', ';' or '.'", sep)


def parse_turtle(text: str, base: str, prefixes: Optional[Dict[str, str]] = None) -> Graph:
    """Parse Turtle-subset text into a Graph, resolving IRIs against base."""
    merged = dict(DEFAULT_PREFIXES)
    if prefixes:
        merged.update(prefixes)
    return _Parser(text, base, merged).parse()
