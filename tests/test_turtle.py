import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkquery.fixtures import fixture_path
from linkquery.rdf import LITERAL, Graph, IriError, Term, Triple, _escape_literal, to_ntriples
from linkquery.turtle import (_TURTLE_TOKENS, TURTLE_GRAMMAR, TurtleParseError, _token_start,
                              parse_turtle)
from test_parser_golden import turtle_cases

FOAF = "http://xmlns.com/foaf/0.1/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def body(name):
    return fixture_path("web/" + name).read_text(encoding="utf-8")


class TestDemoWebBodies:
    @pytest.mark.parametrize(
        "name,base,count",
        [
            ("uma.ttl", "https://uma.ex/", 3),
            ("ann.ttl", "https://ann.ex/", 3),
            ("bob.ttl", "https://bob.ex/", 6),
            ("ann-about.ttl", "https://ann.ex/about/", 3),
        ],
    )
    def test_triple_counts(self, name, base, count):
        assert len(parse_turtle(body(name), base)) == count

    def test_uma_relative_img_resolved(self):
        g = parse_turtle(body("uma.ttl"), "https://uma.ex/")
        assert (
            Triple(
                Term.iri("https://bob.ex/#me"),
                Term.iri(FOAF + "img"),
                Term.iri("https://uma.ex/bob.jpg"),
            )
            in g
        )

    def test_ann_details_shared_subject(self):
        g = parse_turtle(body("ann-about.ttl"), "https://ann.ex/about/")
        assert {t.subject.value for t in g} == {"https://ann.ex/#me"}
        assert (
            Triple(
                Term.iri("https://ann.ex/#me"),
                Term.iri(FOAF + "img"),
                Term.iri("https://ann.ex/about/ann.jpg"),
            )
            in g
        )

    def test_language_tagged_name(self):
        g = parse_turtle(body("mickey.ttl"), "http://dbpedia.org/resource/Mickey_Mouse")
        [triple] = list(g)
        assert triple.object == Term.literal("Mickey Mouse", "en")

    def test_round_trip_all_bodies(self):
        cases = [
            ("uma.ttl", "https://uma.ex/"),
            ("ann.ttl", "https://ann.ex/"),
            ("bob.ttl", "https://bob.ex/"),
            ("ann-about.ttl", "https://ann.ex/about/"),
            ("ann-blog.ttl", "https://ann.ex/blog/"),
            ("photos-ann.ttl", "https://photos.ex/ann/"),
            ("mickey.ttl", "http://dbpedia.org/resource/Mickey_Mouse"),
        ]
        for name, base in cases:
            g = parse_turtle(body(name), base)
            assert parse_turtle(to_ntriples(g), base) == g


class TestParser:
    def test_empty_text(self):
        assert len(parse_turtle("", "https://x.ex/")) == 0

    def test_comment_only(self):
        assert len(parse_turtle("# nothing here\n", "https://x.ex/")) == 0

    def test_object_list(self):
        g = parse_turtle(
            "<https://x.ex/#a> foaf:knows <https://x.ex/#b>, <https://x.ex/#c>.",
            "https://x.ex/",
        )
        assert len(g) == 2

    def test_predicate_object_list(self):
        g = parse_turtle(
            '<https://x.ex/#a> foaf:name "A"; foaf:mbox <mailto:a@x.ex>.',
            "https://x.ex/",
        )
        assert len(g) == 2

    def test_explicit_prefix_declaration(self):
        g = parse_turtle(
            '@prefix ex: <https://vocab.ex/> .\n<https://x.ex/> ex:p "v".',
            "https://x.ex/",
        )
        [triple] = list(g)
        assert triple.predicate.value == "https://vocab.ex/p"

    def test_redeclared_prefix_applies_from_there_on(self):
        g = parse_turtle(
            '@prefix ex: <https://a.ex/#> .\n<https://s.ex/> ex:p "1".\n'
            '@prefix ex: <https://b.ex/#> .\n<https://s.ex/> ex:p "2".',
            "https://x.ex/",
        )
        assert sorted((tr.predicate.value, tr.object.value) for tr in g) == [
            ("https://a.ex/#p", "1"), ("https://b.ex/#p", "2"),
        ]

    def test_prefix_with_empty_fragment_keeps_hash(self):
        g = parse_turtle(
            "@prefix p: <people#> .\np:x p:knows <#y>.", "https://a.ex/dir/doc"
        )
        [triple] = list(g)
        assert triple.subject.value == "https://a.ex/dir/people#x"
        assert triple.predicate.value == "https://a.ex/dir/people#knows"
        assert triple.object.value == "https://a.ex/dir/doc#y"

    def test_empty_reference_is_the_document(self):
        g = parse_turtle(
            "@prefix d: <> .\n<> d:part d:x.", "https://x.ex/dir/#top"
        )
        [triple] = list(g)
        assert triple.subject.value == "https://x.ex/dir/"
        assert triple.predicate.value == "https://x.ex/dir/part"
        assert triple.object.value == "https://x.ex/dir/x"

    def test_a_keyword_expands_to_rdf_type(self):
        g = parse_turtle("<https://x.ex/> a <https://vocab.ex/Thing>.", "https://x.ex/")
        [triple] = list(g)
        assert triple.predicate.value.endswith("#type")

    def test_parses_sharing_a_term_table_share_terms(self):
        # References, prefixed names and `a` take their terms from the table;
        # a value whose term cannot be built is not stored.
        terms = {}
        a = parse_turtle("<#me> a foaf:Person; foaf:knows <https://b.ex/#me>.",
                         "https://a.ex/", terms)
        b = parse_turtle("<#me> a <%sPerson>; <%sknows> <https://a.ex/#me>." % (FOAF, FOAF),
                         "https://b.ex/", terms)
        by_value = {term.value: term for t in a for term in (t.subject, t.predicate, t.object)}
        for t in b:
            for term in (t.subject, t.predicate, t.object):
                assert term is by_value[term.value] is terms[term.value]
        with pytest.raises(IriError):
            parse_turtle('<p1> <%sname> "P".' % FOAF, "urn:isbn:1", terms)
        assert "p1" not in terms
        assert len(terms) == 5

    def test_trailing_semicolon_before_dot_allowed(self):
        g = parse_turtle('<https://x.ex/> foaf:name "A"; .', "https://x.ex/")
        assert len(g) == 1

    def test_unknown_prefix_reports_position(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle('\n<https://x.ex/> wat:name "A".', "https://x.ex/")
        assert exc.value.line == 2
        assert exc.value.column > 1

    def test_unterminated_statement(self):
        with pytest.raises(TurtleParseError, match="unterminated statement"):
            parse_turtle('<https://x.ex/> foaf:name "A";', "https://x.ex/")

    def test_unbalanced_angle_bracket(self):
        with pytest.raises(TurtleParseError, match="unterminated IRI"):
            parse_turtle("<https://x.ex/ foaf:name", "https://x.ex/")

    def test_unterminated_literal(self):
        with pytest.raises(TurtleParseError, match="unterminated literal"):
            parse_turtle('<https://x.ex/> foaf:name "A', "https://x.ex/")

    def test_literal_subject_rejected(self):
        with pytest.raises(TurtleParseError):
            parse_turtle('"A" foaf:name "B".', "https://x.ex/")

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("\n  <https://x.ex/ foaf:name", "unterminated IRI reference", 2, 3),
            ("<s> <p> <o\n>.", "unterminated IRI reference", 1, 9),
            ('<s> <p>\n "abc', "unterminated literal", 2, 2),
            ('<s> <p> "ab\ncd".', "unterminated literal", 1, 9),
            ('<s> <p> "a\\qb".', "unknown escape in literal", 1, 12),
            ('<s> <p> "a\\', "unknown escape in literal", 1, 12),
            ('<s> <p> "a\\\n".', "unknown escape in literal", 1, 12),
            ('<s> <p>\n\t"a"@1.', "malformed language tag", 2, 6),
            ('<s> <p> "a"@.', "malformed language tag", 1, 13),
            # Turtle's LANGTAG: [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
            ('<s> <p> "x"@en-.', "malformed language tag", 1, 13),
            ('<s> <p> "x"@e--n.', "malformed language tag", 1, 13),
            ('<s> <p> "x"@e1.', "malformed language tag", 1, 13),
            ("<s> <p> @base.", "unexpected '@'", 1, 9),
            ("@prefixes x: <y>.", "unexpected '@'", 1, 1),
            ("<s> <p> ?o.", "unexpected character '?'", 1, 9),
            ("<s> <p> <o>.\n# c\n{", "unexpected character '{'", 3, 1),
            ("<s> <p> \u00e9.", "unexpected character '\u00e9'", 1, 9),
            ('\n<https://x.ex/> wat:name "A".', "unknown prefix 'wat'", 2, 17),
            ('<https://x.ex/> foaf:name "A";', "unterminated statement", 1, 30),
            ("<s> <p>\n# no object\n", "unterminated statement", 1, 5),
            ("@prefix", "unterminated statement", 1, 1),
            # A comment after an object hides the separators it holds.
            ("<a> <b> <c> #x, y\n<d> <e> <f>.", "expected ',', ';' or '.'", 2, 1),
            ("<a> <b> <c> #x; y\n<d> <e> <f>.", "expected ',', ';' or '.'", 2, 1),
            ("<a> <b> <c> #x. y\n<d> <e> <f>.", "expected ',', ';' or '.'", 2, 1),
            ("<a> <b> <c>, <d> #x, y\n<d> <e> <f>.", "expected ',', ';' or '.'", 2, 1),
            # `a:` and `afoaf:x` are prefixed names, not `a` and another name.
            ("<s> <p> <o> ; a: <x> .", "unknown prefix 'a'", 1, 15),
            ("@prefix : <https://e.ex/> .\n<s> <p> <o> ; a:b .", "unknown prefix 'a'", 2, 15),
            ("<s> afoaf:x .", "unknown prefix 'afoaf'", 1, 5),
            # A prefixed name is read whole, so it is not a shorter one and `a`.
            ("foaf:knowsa <o> .", "unexpected token '.'", 1, 17),
            # `@prefix` too: `@prefixex:` is no declaration.
            ("@prefixex: <https://e.ex/#> .\nex:s ex:p ex:o .", "unexpected '@'", 1, 1),
            # Only one ';' may come before the '.'.
            ("<s> <p> <o> ; ; .", "unexpected token ';'", 1, 15),
        ],
    )
    def test_error_positions(self, text, message, line, column):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle(text, "https://x.ex/")
        assert str(exc.value) == "%s (line %d, column %d)" % (message, line, column)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("text,ntriples", [
        ("<s> <p> foaf:x.\n<s> <p> <o>, foaf:y.",
         "<https://x.ex/s> <https://x.ex/p> <%sx>.\n<https://x.ex/s> <https://x.ex/p> <%sy>.\n"
         "<https://x.ex/s> <https://x.ex/p> <https://x.ex/o>.\n" % (FOAF, FOAF)),
        ("a <p> a .", "<%s> <https://x.ex/p> <%s>.\n" % (RDF_TYPE, RDF_TYPE)),
        ("<s> a a, a .", "<https://x.ex/s> <%s> <%s>.\n" % (RDF_TYPE, RDF_TYPE)),
        ("@prefix ex: <https://a.ex/#> .\nex:s ex:p ex:o .\n"
         "@prefix ex: <https://b.ex/#> .\nex:s ex:p ex:o .",
         "<https://a.ex/#s> <https://a.ex/#p> <https://a.ex/#o>.\n"
         "<https://b.ex/#s> <https://b.ex/#p> <https://b.ex/#o>.\n"),
        ("<s> <p> <o> ; .", "<https://x.ex/s> <https://x.ex/p> <https://x.ex/o>.\n"),
    ])
    def test_statement_shapes(self, text, ntriples):
        # A prefixed name right before '.', `a` as subject and object, a
        # prefix declared again between statements, and a trailing ';'.
        assert to_ntriples(parse_turtle(text, "https://x.ex/")) == ntriples

    @pytest.mark.parametrize("tag", ["en-GB-oed", "x-1", "EN"])
    def test_language_tags_as_turtle_defines_them(self, tag):
        [triple] = parse_turtle('<s> <p> "x"@%s.' % tag, "https://x.ex/")
        assert triple.object == Term.literal("x", tag)

    @pytest.mark.parametrize(
        "text,column,without",
        [
            ("<a> <b> . <c> <d> <e> ^", 23, "unexpected token '.' (line 1, column 9)"),
            ("<a> <b> <http://[x> . ^", 23, "malformed IRI 'http://[x': Invalid IPv6 URL"),
            ("x:y <b> <c> . ^", 15, "unknown prefix 'x' (line 1, column 1)"),
        ],
    )
    def test_scan_error_wins_over_an_earlier_error(self, text, column, without):
        # Each text without its last character fails at an earlier token.
        with pytest.raises((TurtleParseError, IriError)) as exc:
            parse_turtle(text[:-1], "https://x.ex/")
        assert str(exc.value) == without
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle(text, "https://x.ex/")
        assert str(exc.value) == "unexpected character '^' (line 1, column %d)" % column

    def test_unterminated_literal_wins_over_an_earlier_error(self):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle('<a> <b> <c> ; . <d> "unterminated', "https://x.ex/")
        assert str(exc.value) == "unterminated literal (line 1, column 21)"


class TestScannerEdges:
    # The whitespace and comments before a token are scanned with it, and
    # those at the end of the text by a last match of their own; the
    # messages, lines and columns are the ones of one match per token.
    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("# note\n^", "unexpected character '^'", 2, 1),
            ("<s> <p> <o>.\n# c\n  ^ <x>", "unexpected character '^'", 3, 3),
            ("<s> <p> <o> # c\n\u00e9", "unexpected character '\u00e9'", 2, 1),
            ("<s> <p>\n# no object", "unterminated statement", 1, 5),
            ("<s> <p> <o> ;\n  # more to come", "unterminated statement", 1, 13),
            ("<s> <p> <o> # c\n  # d", "unterminated statement", 1, 9),
            ("@prefix ex: <http://e/> # c", "unterminated statement", 1, 13),
            ("<s> <p> <o>", "unterminated statement", 1, 9),
            ("<s> <p> <o>  \n ", "unterminated statement", 1, 9),
        ],
    )
    def test_error_positions(self, text, message, line, column):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle(text, "https://x.ex/")
        assert str(exc.value) == "%s (line %d, column %d)" % (message, line, column)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("text,count", [
        ("<s> <p> <o>. \n\t", 1), ("<s> <p> <o>.# end", 1), ("<s> <p> <o>.\n# end\n", 1),
        ("", 0), ("# only a comment", 0), ("# one\n\n  # two\n", 0), ("   \n\t ", 0), ("#", 0),
    ])
    def test_texts_ending_in_whitespace_or_comments(self, text, count):
        assert len(parse_turtle(text, "https://x.ex/")) == count


# Turtle's tokens with whitespace and comments matched on their own, as
# QUERY_GRAMMAR scans them: the oracle for TURTLE_GRAMMAR, which joins them
# onto the next token.
SEPARATE_TOKENS = re.compile(_TURTLE_TOKENS, re.VERBOSE)


def scanned_tokens(grammar, text):
    """(kind, value, token offset) of each token a grammar scans in text."""
    out = []
    for m in grammar.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value = (m["literal"], m["language"]) if kind in ("literal", "language") else m[kind]
        start = _token_start(text, m) if grammar is TURTLE_GRAMMAR else m.start()
        out.append((kind, value, start))
    return out


def test_scanner_yields_the_separate_tokens():
    # On every golden Turtle text, TURTLE_GRAMMAR sees the tokens of the
    # separate scan at their offsets, and its matches cover the text: one
    # per token, then one or two with no token (what ends the text, and an
    # empty match at its end).
    for text, _ in turtle_cases():
        tokens = scanned_tokens(TURTLE_GRAMMAR, text)
        assert tokens == scanned_tokens(SEPARATE_TOKENS, text)
        matches = list(TURTLE_GRAMMAR.finditer(text))
        assert [m.start() for m in matches] == [0] + [m.end() for m in matches[:-1]]
        assert [bool(m.lastgroup) for m in matches[:len(tokens)]] == [True] * len(tokens)
        assert 1 <= len(matches) - len(tokens) <= 2 and matches[-1].end() == len(text)
        assert not any(m.lastgroup for m in matches[len(tokens):])


def test_parsed_triples_equal_publicly_built_ones():
    # The parser builds literals and triples with `Term(LITERAL, ...)` and
    # `Triple(...)`; what it builds must equal what the public spellings build.
    parsed = 0
    for text, base in turtle_cases():
        try:
            graph = parse_turtle(text, base)
        except (TurtleParseError, IriError):
            continue
        for triple in graph:
            terms = [Term.literal(term.value, term.language) if term.kind == LITERAL
                     else Term.iri(term.value)
                     for term in (triple.subject, triple.predicate, triple.object)]
            rebuilt = Triple(*terms)
            assert triple == rebuilt and hash(triple) == hash(rebuilt)
            for term, public in zip((triple.subject, triple.predicate, triple.object), terms):
                assert ((term.kind, term.value, term.language, term.document, hash(term))
                        == (public.kind, public.value, public.language, public.document,
                            hash(public)))
            parsed += 1
    assert parsed >= 1_000


@pytest.mark.parametrize(
    "written,value",
    [
        (r"\\n", "\\n"),  # an escaped backslash, then a plain 'n'
        (r"\\\n", "\\\n"),  # an escaped backslash, then a newline escape
        (r"\\\\", "\\\\"),
        (r"\\\"", '\\"'),
        (r"\"\\", '"\\'),
        (r"a\\", "a\\"),  # an escaped backslash right before the closing quote
        (r"\t\r\n\"\\", '\t\r\n"\\'),  # only escapes
        ("no escapes at all", "no escapes at all"),
    ],
)
def test_escapes_unescape_left_to_right(written, value):
    [triple] = parse_turtle('<s> <p> "%s"@en.' % written, "https://x.ex/")
    assert triple.object == Term.literal(value, "en")


_LITERAL_CHARS = 'ab Z09"\\\n\t\r#<>@.;,?{}:\u00e9\u00fc\u65e5\U0001f600'
_LANGUAGES = [None, None, "en", "en-GB", "de", "x-1"]


def _random_graph(rng):
    triples = []
    for _ in range(rng.randint(1, 3)):
        subject = Term.iri("https://h%d.ex/p%d#s" % (rng.randrange(4), rng.randrange(4)))
        predicate = Term.iri("https://vocab.ex/p%d" % rng.randrange(3))
        if rng.random() < 0.2:
            obj = Term.iri("https://o.ex/%d" % rng.randrange(5))
        else:
            value = "".join(rng.choice(_LITERAL_CHARS) for _ in range(rng.randint(0, 8)))
            obj = Term.literal(value, rng.choice(_LANGUAGES))
        triples.append(Triple(subject, predicate, obj))
    return Graph(triples)


def test_ntriples_round_trip_property():
    rng = random.Random(505)
    for _ in range(20_000):
        graph = _random_graph(rng)
        assert parse_turtle(to_ntriples(graph), "https://base.ex/doc") == graph


# Any string: escapes and quotes, raw tab and CR, Latin-1 characters (which the
# unescape codec passes through as bytes), astral characters and lone surrogates.
_ANY_CHARACTER = st.one_of(
    st.characters(),
    st.characters(max_codepoint=0xFF),
    st.characters(min_codepoint=0x10000),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.sampled_from('\\"\n\t\r'),
)


@settings(max_examples=1_000, deadline=None)
@given(st.text(_ANY_CHARACTER))
def test_escaped_literal_parses_back_property(value):
    [triple] = parse_turtle('<a> <b> "%s" .' % _escape_literal(value), "https://x.ex/")
    assert triple.object.value == value
