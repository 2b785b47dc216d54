"""
Parser for the Turtle subset used by small RDF document webs.

Supported: IRI references in angle brackets (absolute or relative), prefixed
names, plain literals with an optional @lang tag, predicate-object lists with
`;`, object lists with `,`, `.`-terminated statements, `@prefix` declarations,
`a` as rdf:type, and `#` comments outside tokens. Relative IRIs are resolved
against the caller-supplied base.

Query text is scanned in one `finditer` pass over QUERY_GRAMMAR, one
compiled alternation of tokens that also has `?variables` and braces.
Turtle text is read in one pass, one statement after another: each common
shape is read by one match of a compiled regex chosen by what the parser
expects next, so a triple costs one match. At the start of a statement it
reads `subject predicate object` and a separator, or a `@prefix`
declaration, or the end of the text; after `;` a `predicate object` and a
separator; after `,` an `object` and a separator. Where none matches, or a
term in one does not resolve, the parser reads one TURTLE_GRAMMAR match
from the same place, a token with the whitespace and comments before it, in
a loop driven by what it expects next: the only reader of rare shapes (`a`
as subject or object, `; .`) and the only source of errors, placed at the
token's own start. Each token in the shapes matches what TURTLE_GRAMMAR
scans there. The last token alternative of each grammar catches any
character no token starts with, which is reported at its offset. The Turtle
parser builds no token objects; `Token` and `tokenize` serve the query
parser only. A scan error anywhere in the text is reported before any other
error, as if the whole text had been scanned first. A literal's escapes are
undone in one `unicode_escape` codec call. Line and column are worked out
only when an error is raised.

A parser resolves each distinct `<…>` reference, and each prefixed name,
once per document between `@prefix` declarations, through one function for
both the shapes and the token loop. It takes its IRI terms,
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
_LITERAL = (r'"(?P<literal>%s)"' % _LITERAL_CHARS
            + r"(?:@(?P<language>[A-Za-z]+(?:-[A-Za-z0-9]+)*)(?![A-Za-z0-9\-])|(?!@))")
_PNAME = r"(?:[A-Za-z_][A-Za-z0-9_\-]*)?:[A-Za-z0-9_\-]*"
_SPACE = r"[ \t\r\n]+ | \#[^\n]*"  # whitespace or a comment
_TOKEN = r"""
    <(?P<iriref>[^>\n]*)>
  | %s
  | (?P<prefix_kw>@prefix)(?![A-Za-z0-9_\-])
  | (?P<pname>%s)
  | (?P<word>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<dot>\.) | (?P<semi>;) | (?P<comma>,)
  | (?P<bad>[\s\S])
""" % (_LITERAL, _PNAME)
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

# The common shapes of a statement, each read by one match: from the start
# of a statement, a ';' or a ',' through the next separator (`_SHAPES`, by
# what the parser expects there), a whole `@prefix` declaration, and the end
# of the text. Each token in them must be the one TURTLE_GRAMMAR scans there,
# so no failure may backtrack into a shorter one: in `_GAP`, TURTLE_GRAMMAR's
# whitespace and comments, a comment runs to the end of its line, and a
# prefixed name, `a` and `@prefix` are followed by no character that makes
# a longer token. References and prefixed names are captured as written,
# `<…>` with its brackets, as `_Parser._named` reads them.
_GAP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_NAMED = r"<[^>\n]*> | %s(?![A-Za-z0-9_\-])" % _PNAME
_PREDICATE_OBJECT = r"(?P<predicate>%s | a(?![A-Za-z0-9_\-:])) %s" % (_NAMED, _GAP)
_OBJECT = r"(?:(?P<object>%s) | %s) %s (?P<sep>[.;,])" % (_NAMED, _LITERAL, _GAP)
_SHAPES = {
    "subject": re.compile(r"%s (?P<subject>%s) %s %s %s"
                          % (_GAP, _NAMED, _GAP, _PREDICATE_OBJECT, _OBJECT), re.VERBOSE).match,
    "predicate or dot": re.compile(_GAP + _PREDICATE_OBJECT + _OBJECT, re.VERBOSE).match,
    "object": re.compile(_GAP + _OBJECT, re.VERBOSE).match,
}
_AFTER = {".": "subject", ";": "predicate or dot", ",": "object"}
_PREFIX = re.compile(r"%s @prefix(?![A-Za-z0-9_\-]) %s (?P<name>(?:[A-Za-z_][A-Za-z0-9_\-]*)?):"
                     r" %s <(?P<namespace>[^>\n]*)> %s \."
                     % (_GAP, _GAP, _GAP, _GAP), re.VERBOSE)
_END = re.compile(_GAP + r"\Z")
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
        self._written: Dict[str, Term] = {}  # by reference or name as written, until @prefix

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

    def _named(self, written: str) -> Term:
        """The IRI term of a `<…>` reference, a prefixed name or `a`, as
        written. Raises KeyError for a prefix not declared, and IriError for
        an IRI that does not resolve or is not absolute."""
        term = self._written.get(written)
        if term is None:
            if written[0] == "<":
                value = self._resolve(written[1:-1])
            elif written == "a":
                value = RDF_TYPE
            else:
                prefix, local = written.split(":", 1)
                value = self.prefixes[prefix] + local
            term = self._written[written] = self._iri(value)
        return term

    def _term(self, m: re.Match, kind: str) -> Term:
        """The term a token, `m` of group `kind`, stands for in a statement."""
        if kind == "language" or kind == "literal":
            return Term(LITERAL, _literal_value(m), m["language"])
        if kind == "iriref" or kind == "pname" or (kind == "word" and m["word"] == "a"):
            try:
                return self._named("<%s>" % m["iriref"] if kind == "iriref" else m[kind])
            except KeyError as unknown:
                raise self._error("unknown prefix %r" % unknown.args[0], m) from None
        raise self._error("unexpected token %r" % m[kind], m)

    def parse(self) -> Graph:
        """Read the text in one pass; `expect` names what the next token must be.

        Where `expect` has a shape in `_SHAPES`, one match reads the rest of
        a triple and its separator, and at the start of a statement another
        reads a `@prefix` declaration and another the end of the text. When
        none matches, or a term it read does not resolve, the token loop
        reads the next TURTLE_GRAMMAR match from the same place, so it alone
        reads the rare shapes and raises every error.

        A scan error (a `bad` match) anywhere in the text is reported before
        any other error, as if the whole text had been scanned first: when
        reading a token raises, the rest of the text is scanned for one.
        """
        text = self.text
        named = self._named
        triples: List[Triple] = []
        append = triples.append
        term = self._term
        pos = 0
        expect = "subject"
        try:
            while True:
                shape = _SHAPES.get(expect)
                found = shape and shape(text, pos)
                if found:
                    try:  # in token order, so terms are added as the token loop adds them
                        if expect == "subject":
                            subject = named(found["subject"])
                        if expect != "object":
                            predicate = named(found["predicate"])
                        written = found["object"]
                        obj = (named(written) if written is not None
                               else Term(LITERAL, _literal_value(found), found["language"]))
                    except (KeyError, ValueError):
                        pass  # the token loop reads it again and raises
                    else:
                        append(Triple(subject, predicate, obj))
                        expect = _AFTER[found["sep"]]
                        pos = found.end()
                        continue
                if expect == "subject":
                    found = _PREFIX.match(text, pos)
                    if found:
                        try:
                            namespace = self._resolve(found["namespace"])
                        except ValueError:
                            pass  # the token loop reads it again and raises
                        else:
                            self.prefixes[found["name"]] = namespace
                            self._written.clear()
                            pos = found.end()
                            continue
                    if _END.match(text, pos):
                        break
                m = TURTLE_GRAMMAR.match(text, pos)
                pos = m.end()
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
                    self._written.clear()
                    expect = "subject"
        except (TurtleParseError, ValueError):  # ValueError: IriError, from resolving or Term.iri
            # No state accepts a `bad` match, so none came before `m`, the one being read.
            for later in TURTLE_GRAMMAR.finditer(text, m.start()):
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
