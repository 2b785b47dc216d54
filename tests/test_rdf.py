import dataclasses
import random

import pytest

from linkquery.rdf import (
    Graph,
    IriError,
    Term,
    Triple,
    TriplePattern,
    graph_match,
    is_absolute_iri,
    match_triple,
    resolve_iri,
    strip_fragment,
    to_ntriples,
)
from linkquery.turtle import parse_turtle
from test_parser_golden import BASES

KNOWS = "http://xmlns.com/foaf/0.1/knows"
NAME = "http://xmlns.com/foaf/0.1/name"
MBOX = "http://xmlns.com/foaf/0.1/mbox"


def t(s, p, o):
    obj = o if isinstance(o, Term) else Term.iri(o)
    return Triple(Term.iri(s), Term.iri(p), obj)


class TestResolveIri:
    def test_relative_file(self):
        assert resolve_iri("https://uma.ex/", "bob.jpg") == "https://uma.ex/bob.jpg"

    def test_relative_under_directory(self):
        assert (
            resolve_iri("https://ann.ex/about/", "ann.jpg")
            == "https://ann.ex/about/ann.jpg"
        )

    def test_absolute_reference_unchanged(self):
        assert (
            resolve_iri("https://bob.ex/", "https://ann.ex/#me")
            == "https://ann.ex/#me"
        )

    @pytest.mark.parametrize(
        "ref,expected",
        [
            ("g", "http://a/b/c/g"),
            ("../g", "http://a/b/g"),
            ("#s", "http://a/b/c/d;p?q#s"),
            ("./g", "http://a/b/c/g"),
            ("g/", "http://a/b/c/g/"),
            ("../../g", "http://a/g"),
        ],
    )
    def test_standard_reference_resolution_vectors(self, ref, expected):
        assert resolve_iri("http://a/b/c/d;p?q", ref) == expected

    @pytest.mark.parametrize(
        "base,expected",
        [
            ("urn:isbn:1", "urn:isbn:1#me"),
            ("urn:isbn:1#old", "urn:isbn:1#me"),
            ("HTTP://A.ex/x", "HTTP://A.ex/x#me"),
        ],
    )
    def test_fragment_reference_keeps_the_base_as_written(self, base, expected):
        assert resolve_iri(base, "#me") == expected

    @pytest.mark.parametrize("base", [b for b in BASES if is_absolute_iri(b)])
    def test_empty_and_fragment_references_name_one_document(self, base):
        [triple] = parse_turtle("<> <https://p.ex/p> <#x>.", base)
        assert strip_fragment(triple.subject.value) == strip_fragment(triple.object.value)

    def test_malformed_base(self):
        with pytest.raises(IriError):
            resolve_iri("no-scheme-here/x", "g")

    def test_empty_reference(self):
        with pytest.raises(IriError):
            resolve_iri("https://a.ex/", "")


class TestStripFragment:
    def test_entity_iri(self):
        assert strip_fragment("https://uma.ex/#me") == "https://uma.ex/"

    def test_no_fragment(self):
        assert strip_fragment("https://ann.ex/about/") == "https://ann.ex/about/"

    def test_bob(self):
        assert strip_fragment("https://bob.ex/#me") == "https://bob.ex/"

    def test_idempotent(self):
        once = strip_fragment("https://x.ex/a#frag")
        assert strip_fragment(once) == once

    @pytest.mark.parametrize(
        "iri,expected",
        [
            ("http://x.ex/a?#me", "http://x.ex/a?"),
            ("http://x.ex/a;#me", "http://x.ex/a;"),
            ("HTTP://X.ex/doc#me", "HTTP://X.ex/doc"),
            ("HTTP://X.ex/doc", "HTTP://X.ex/doc"),
            ("https://x.ex/a?q=1#f#g", "https://x.ex/a?q=1"),
            ("https://x.ex/#", "https://x.ex/"),
        ],
    )
    def test_cuts_at_first_hash_and_keeps_the_rest(self, iri, expected):
        assert strip_fragment(iri) == expected

    def test_relative_iri_rejected(self):
        with pytest.raises(IriError):
            strip_fragment("doc#me")


class TestMalformedIri:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: is_absolute_iri("http://[x"),
            lambda: strip_fragment("http://[x#me"),
            lambda: resolve_iri("https://a.ex/", "http://[x"),
            lambda: resolve_iri("https://a.ex/", "//[x/y"),
            lambda: Term.iri("http://[x"),
        ],
        ids=["is_absolute_iri", "strip_fragment", "resolve_absolute", "resolve_network_path",
             "Term.iri"],
    )
    def test_malformed_ipv6_host_is_an_iri_error(self, call):
        with pytest.raises(IriError, match="malformed IRI"):
            call()


class TestTerms:
    def test_iri_must_be_absolute(self):
        with pytest.raises(IriError):
            Term.iri("relative/path")

    def test_language_only_on_literals(self):
        with pytest.raises(ValueError):
            Term("iri", "https://a.ex/", language="en")

    def test_triple_rejects_variables(self):
        with pytest.raises(ValueError):
            Triple(Term.var("s"), Term.iri(KNOWS), Term.literal("x"))

    def test_literal_equality_includes_language(self):
        assert Term.literal("Mickey Mouse", "en") != Term.literal("Mickey Mouse")

    def test_equal_terms_and_triples_hash_equal(self):
        # Each pair is built from distinct string objects; replace() makes a
        # new term, so it must not carry the old term's hash.
        pairs = [
            (Term.iri(KNOWS), Term.iri("".join(KNOWS))),
            (Term.literal("Mickey"), Term.literal("".join("Mickey"))),
            (Term.literal("Mickey", "en"), Term("literal", "".join("Mickey"), "".join("en"))),
            (Term.var("x"), Term.var("?x")),
            (dataclasses.replace(Term.literal("Mickey", "fr"), language="en"),
             Term.literal("Mickey", "en")),
        ]
        pairs.append((Triple(Term.iri(NAME), Term.iri(NAME), pairs[2][0]),
                      Triple(Term.iri("".join(NAME)), Term.iri(NAME), pairs[2][1])))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert {a: "found"}[b] == "found"


    @pytest.mark.parametrize("iri", [
        "https://uma.ex/#me", "https://ann.ex/about/", "http://x.ex/a?#me",
        "https://x.ex/a?q=1#f#g", "https://x.ex/#", "HTTP://X.ex/doc#me", "mailto:a@x.ex",
        "urn:isbn:1",
    ])
    def test_iri_term_caches_its_document(self, iri):
        assert Term.iri(iri).document == strip_fragment(iri)
        assert dataclasses.replace(Term.iri("https://o.ex/#x"), value=iri).document \
            == strip_fragment(iri)

    def test_only_iri_terms_have_a_document(self):
        assert Term.literal("https://x.ex/#me").document is None
        assert Term.var("x").document is None
        [triple] = parse_turtle('<#a> <#b> "c#d".', "https://x.ex/")
        assert triple.object.document is None


class TestMatchTriple:
    def test_positional_binding(self):
        triple = t("https://uma.ex/#me", KNOWS, "https://ann.ex/#me")
        pattern = TriplePattern(Term.var("s"), Term.iri(KNOWS), Term.var("o"))
        assert match_triple(triple, pattern) == {
            "s": Term.iri("https://uma.ex/#me"),
            "o": Term.iri("https://ann.ex/#me"),
        }

    def test_predicate_mismatch(self):
        triple = t("https://ann.ex/#me", NAME, Term.literal("Ann"))
        pattern = TriplePattern(Term.var("x"), Term.iri(MBOX), Term.var("e"))
        assert match_triple(triple, pattern) is None

    def test_repeated_variable_consistency(self):
        p = TriplePattern(Term.var("v"), Term.iri(KNOWS), Term.var("v"))
        same = t("https://x.ex/", KNOWS, "https://x.ex/")
        diff = t("https://x.ex/", KNOWS, "https://y.ex/")
        assert match_triple(same, p) == {"v": Term.iri("https://x.ex/")}
        assert match_triple(diff, p) is None


class TestGraph:
    def test_insertion_idempotent(self):
        g = Graph()
        triple = t("https://a.ex/", KNOWS, "https://b.ex/")
        g.add(triple)
        g.add(triple)
        assert len(g) == 1

    def test_insertion_order_irrelevant(self):
        rng = random.Random(7)
        triples = [
            t("https://a%d.ex/" % i, KNOWS, "https://b%d.ex/" % (i % 3))
            for i in range(12)
        ]
        for _ in range(5):
            shuffled = list(triples)
            rng.shuffle(shuffled)
            assert Graph(shuffled) == Graph(triples)

    def test_graph_match_equals_filtered_membership(self):
        g = Graph(
            [
                t("https://a.ex/", KNOWS, "https://b.ex/"),
                t("https://b.ex/", KNOWS, "https://c.ex/"),
                t("https://a.ex/", NAME, Term.literal("A")),
            ]
        )
        pattern = TriplePattern(Term.var("s"), Term.iri(KNOWS), Term.var("o"))
        matched = {triple for triple, _ in graph_match(g, pattern)}
        assert matched == {x for x in g if match_triple(x, pattern) is not None}

    def test_graph_match_sorted(self):
        g = Graph(
            [
                t("https://b.ex/", KNOWS, "https://c.ex/"),
                t("https://a.ex/", KNOWS, "https://b.ex/"),
            ]
        )
        pattern = TriplePattern(Term.var("s"), Term.var("p"), Term.var("o"))
        subjects = [triple.subject.value for triple, _ in graph_match(g, pattern)]
        assert subjects == sorted(subjects)

    def test_concrete_pattern_is_membership_test(self):
        triple = t("https://a.ex/", KNOWS, "https://b.ex/")
        g = Graph([triple])
        pattern = TriplePattern(triple.subject, triple.predicate, triple.object)
        assert [x for x, _ in graph_match(g, pattern)] == [triple]
        other = TriplePattern(triple.subject, triple.predicate, Term.iri("https://z.ex/"))
        assert graph_match(g, other) == []

    def test_empty_graph_matches_nothing(self):
        pattern = TriplePattern(Term.var("s"), Term.var("p"), Term.var("o"))
        assert graph_match(Graph(), pattern) == []

    def test_graph_match_equals_filtered_scan_property(self):
        # Every bound/unbound shape, repeated variables, concrete terms that
        # occur nowhere or in the wrong position, and growth after a match.
        rng = random.Random(4)
        iris = [Term.iri("https://n%d.ex/" % i) for i in range(5)]
        literals = [Term.literal("v"), Term.literal("v", "en")]
        variables = [Term.var("x"), Term.var("y"), Term.var("z")]

        def random_triple():
            return Triple(rng.choice(iris), rng.choice(iris[:3]), rng.choice(iris + literals))

        def random_pattern():
            return TriplePattern(*(
                rng.choice(variables) if rng.random() < 0.5 else rng.choice(iris + literals)
                for _ in range(3)
            ))

        def expected(graph, pattern):
            return [(tr, b) for tr in graph if (b := match_triple(tr, pattern)) is not None]

        shapes = set()
        for _ in range(300):
            g = Graph(random_triple() for _ in range(rng.randrange(0, 25)))
            for step in range(3):
                for _ in range(8):
                    pattern = random_pattern()
                    shapes.add(tuple(term.is_variable for term in
                                     (pattern.subject, pattern.predicate, pattern.object)))
                    assert graph_match(g, pattern) == expected(g, pattern)
                if step == 0:
                    g.add(random_triple())
                else:
                    g.update(random_triple() for _ in range(rng.randrange(1, 4)))
        assert len(shapes) == 8


class TestSerialization:
    def test_round_trip(self):
        g = Graph(
            [
                t("https://a.ex/", NAME, Term.literal('quo"te\\and\nnewline')),
                t("https://a.ex/", NAME, Term.literal("Mickey Mouse", "en")),
                t("https://a.ex/", KNOWS, "https://b.ex/#me"),
            ]
        )
        text = to_ntriples(g)
        assert parse_turtle(text, "https://a.ex/") == g

    def test_carriage_return_escaped(self):
        g = Graph([t("https://a.ex/", NAME, Term.literal("a\rb"))])
        text = to_ntriples(g)
        assert "\r" not in text and "\\r" in text
        assert parse_turtle(text, "https://a.ex/") == g

    def test_lines_sorted_and_lf_terminated(self):
        g = Graph(
            [
                t("https://b.ex/", KNOWS, "https://a.ex/"),
                t("https://a.ex/", KNOWS, "https://b.ex/"),
            ]
        )
        text = to_ntriples(g)
        lines = text.splitlines()
        assert text.endswith("\n") and "\r" not in text
        assert lines == sorted(lines)
