import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkquery.rdf import (
    Graph,
    IriError,
    Term,
    Triple,
    TriplePattern,
    is_absolute_iri,
    match_triple,
    resolve_iri,
    shape_key,
    strip_fragment,
    to_ntriples,
)
from linkquery.query import graph_match
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
        with pytest.raises(ValueError, match="triple object may not be a variable"):
            Triple(Term.iri("https://a.ex/#s"), Term.iri(KNOWS), Term.var("o"))

    def test_literal_equality_includes_language(self):
        assert Term.literal("Mickey Mouse", "en") != Term.literal("Mickey Mouse")

    def test_equal_terms_and_triples_hash_equal(self):
        # Each pair is built from distinct string objects; a term rebuilt
        # from another's fields with a new tag must not carry the old hash.
        french = Term.literal("Mickey", "fr")
        pairs = [
            (Term.iri(KNOWS), Term.iri("".join(KNOWS))),
            (Term.literal("Mickey"), Term.literal("".join("Mickey"))),
            (Term.literal("Mickey", "en"), Term("literal", "".join("Mickey"), "".join("en"))),
            (Term.var("x"), Term.var("?x")),
            (Term(kind=french.kind, value=french.value, language="en"),
             Term.literal("Mickey", "en")),
        ]
        pairs.append((Triple(Term.iri(NAME), Term.iri(NAME), pairs[2][0]),
                      Triple(Term.iri("".join(NAME)), Term.iri(NAME), pairs[2][1])))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert {a: "found"}[b] == "found"

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown term kind"):
            Term("blank", "b0")

    @pytest.mark.parametrize("position", ["subject", "predicate"])
    def test_triple_rejects_a_literal_subject_or_predicate(self, position):
        terms = {"subject": Term.iri("https://a.ex/#s"), "predicate": Term.iri(KNOWS),
                 "object": Term.literal("o")}
        terms[position] = Term.literal("x")
        with pytest.raises(ValueError, match="triple %s must be an IRI" % position):
            Triple(**terms)

    def test_keyword_construction(self):
        term = Term(kind="literal", value="Mickey", language="en")
        public = Term.literal("Mickey", "en")
        assert term == public and hash(term) == hash(public)
        assert tuple(term) == tuple(public) and term.document is None
        assert (term.value, term.language, term.kind) == ("Mickey", "en", "literal")
        triple = Triple(subject=Term.iri(NAME), predicate=Term.iri(NAME), object=term)
        assert triple == Triple(Term.iri(NAME), Term.iri(NAME), term)

    @pytest.mark.parametrize("value,field", [
        (Term.literal("x", "en"), "kind"), (Term.literal("x", "en"), "value"),
        (Term.literal("x", "en"), "language"), (Term.iri(KNOWS), "document"),
        (t("https://a.ex/#s", KNOWS, "https://b.ex/#o"), "subject"),
        (t("https://a.ex/#s", KNOWS, "https://b.ex/#o"), "predicate"),
        (t("https://a.ex/#s", KNOWS, "https://b.ex/#o"), "object"),
    ])
    def test_fields_are_frozen(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, Term.iri(NAME))

    @pytest.mark.parametrize("obj", [
        Term.iri("https://b.ex/#o"), Term.literal("x"), Term.literal("x", "en")])
    def test_triple_sort_key_is_its_terms_sort_keys(self, obj):
        # A triple sorts as the tuple of its terms.
        triple = t("https://a.ex/#s", KNOWS, obj)
        moved = Triple(subject=Term.iri(NAME), predicate=triple.predicate, object=triple.object)
        assert tuple(triple) == (triple.subject, triple.predicate, obj)
        assert tuple(moved) == (Term.iri(NAME), triple.predicate, obj)
        assert sorted([triple, moved]) == sorted(
            [triple, moved], key=lambda x: (x.subject, x.predicate, x.object))

    @pytest.mark.parametrize("iri", [
        "https://uma.ex/#me", "https://ann.ex/about/", "http://x.ex/a?#me",
        "https://x.ex/a?q=1#f#g", "https://x.ex/#", "HTTP://X.ex/doc#me", "mailto:a@x.ex",
        "urn:isbn:1",
    ])
    def test_iri_term_caches_its_document(self, iri):
        assert Term.iri(iri).document == strip_fragment(iri)
        other = Term.iri("https://o.ex/#x")
        assert Term(kind=other.kind, value=iri, language=other.language).document \
            == strip_fragment(iri)

    def test_only_iri_terms_have_a_document(self):
        assert Term.literal("https://x.ex/#me").document is None
        assert Term.var("x").document is None
        [triple] = parse_turtle('<#a> <#b> "c#d".', "https://x.ex/")
        assert triple.object.document is None

    def test_empty_language_tag_is_rejected(self):
        # "x" and "x"@"" would print alike in N-Triples but differ as terms.
        with pytest.raises(ValueError, match="empty language tag"):
            Term.literal("x", "")
        with pytest.raises(ValueError, match="empty language tag"):
            Term(kind="literal", value="x", language="")
        assert Term.literal("x").language is None and Term.literal("x").n3() == '"x"'


TRIPLE = t("https://a.ex/#s", KNOWS, Term.literal("x", "en"))
PATTERN = TriplePattern(Term.var("s"), Term.iri(KNOWS), Term.literal("x", "en"))
# Every public way to make a term, triple or pattern, each from an existing one.
REMAKES = {
    "positional": lambda x: type(x)(*_fields(x)),
    "keyword": lambda x: type(x)(**dict(zip(_names(x), _fields(x)))),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{"pickle%d" % protocol: (lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol)))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


def _names(x):
    return ("kind", "value", "language") if isinstance(x, Term) else ("subject", "predicate", "object")


def _fields(x):
    return tuple(getattr(x, name) for name in _names(x))


class TestRemaking:
    @pytest.mark.parametrize("how", sorted(REMAKES))
    @pytest.mark.parametrize("original", [
        Term.iri("HTTP://A.ex/doc#me"), Term.literal("x#y"), Term.literal("x", "en"),
        Term.var("v"), TRIPLE, PATTERN])
    def test_remade_objects_equal_their_original(self, how, original):
        remade = REMAKES[how](original)
        assert type(remade) is type(original)
        assert remade == original and hash(remade) == hash(original)
        assert _fields(remade) == _fields(original) and repr(remade) == repr(original)
        if isinstance(original, Term):
            assert remade.document == original.document

    @pytest.mark.parametrize("original", [Term.iri("https://a.ex/"), TRIPLE])
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_runs_the_checks(self, protocol, original):
        # A swap of equal length keeps a binary pickle well formed.
        data = pickle.dumps(original, protocol).replace(b"https://a.ex/", b"not/absolute/")
        with pytest.raises(IriError, match="not/absolute/"):
            pickle.loads(data)

    def test_no_unchecked_constructor(self):
        for cls in (Term, Triple, TriplePattern):
            assert not any(hasattr(cls, name) for name in ("_make", "_replace", "__replace__"))

    def test_a_triple_is_its_ground_pattern(self):
        pattern = TriplePattern(*TRIPLE)
        assert isinstance(TRIPLE, TriplePattern) and type(pattern) is TriplePattern
        assert TRIPLE == pattern and hash(TRIPLE) == hash(pattern)
        assert pattern.variables() == [] and pattern.n3() == TRIPLE.n3()
        other = t("https://b.ex/#s", KNOWS, "https://a.ex/#o")
        assert graph_match(Graph([TRIPLE, other]), pattern) == [(TRIPLE, {})]


_TEXT = st.text(alphabet="ab#:", max_size=3)
IRIS = st.builds(lambda scheme, rest, fragment: scheme + ":" + rest + fragment,
                 st.sampled_from(["http", "HTTP", "https", "urn"]), _TEXT,
                 st.sampled_from(["", "#", "#a", "#A"])).map(Term.iri)
LITERALS = st.builds(Term.literal, st.one_of(_TEXT, st.just("http:a")),
                     st.sampled_from([None, "en", "fr", "en-GB"]))
TERMS = st.one_of(IRIS, LITERALS, st.builds(Term.var, st.sampled_from(["a", "b", "?a"])))
TRIPLES = st.builds(Triple, IRIS, IRIS, st.one_of(IRIS, LITERALS))


# A few terms, so that random triples share them and patterns match some.
_FEW_IRIS = [Term.iri("https://a.ex/"), Term.iri("https://a.ex/#b"), Term.iri(KNOWS)]
_FEW_TERMS = _FEW_IRIS + [Term.literal("A"), Term.literal("A", "en")]
SMALL_TRIPLES = st.builds(Triple, st.sampled_from(_FEW_IRIS), st.sampled_from(_FEW_IRIS),
                          st.sampled_from(_FEW_TERMS))
_CONSTANT = st.sampled_from(_FEW_TERMS)
_POSITION = st.one_of(_CONSTANT, st.sampled_from(["x", "y", "p"]).map(Term.var))
X, P = Term.var("x"), Term.var("p")
# Each kind of pattern, drawn for a given graph.
MATCH_PATTERNS = {
    "any": lambda g: st.builds(TriplePattern, _POSITION, _POSITION, _POSITION),
    "repeated variable": lambda g: st.sampled_from([
        TriplePattern(X, P, X), TriplePattern(X, X, Term.var("o")),
        TriplePattern(Term.var("s"), X, X), TriplePattern(X, X, X),
        TriplePattern(X, Term.iri(KNOWS), X)]),
    "variable predicate": lambda g: st.builds(TriplePattern, _POSITION, st.just(P), _POSITION),
    "fully bound": lambda g: st.sampled_from(sorted(g)).map(lambda x: TriplePattern(*x)),
    "no variable": lambda g: st.builds(TriplePattern, _CONSTANT, _CONSTANT, _CONSTANT),
}


def _old_key(term):
    return (term.value, term.language or "", term.kind)


def _old_triple_key(triple):
    return tuple(map(_old_key, (triple.subject, triple.predicate, triple.object)))


class TestTermOrder:
    # Terms and triples keep the order, equality and hashing they had when
    # each carried a (value, language or "", kind) sort key.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TERMS, max_size=12), st.lists(TRIPLES, max_size=12))
    def test_sorted_is_the_old_sort_key_order(self, terms, triples):
        for items, old_key in ((terms, _old_key), (triples, _old_triple_key)):
            expected = sorted(items, key=old_key)
            assert sorted(items) == expected
        assert list(Graph(triples)) == sorted(set(triples), key=_old_triple_key)

    @settings(max_examples=300, deadline=None)
    @given(TERMS, TERMS)
    def test_equal_exactly_when_fields_are_equal_and_then_hash_equal(self, a, b):
        assert (a == b) == ((a.kind, a.value, a.language) == (b.kind, b.value, b.language))
        assert (a != b) == (not a == b)
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=300, deadline=None)
    @given(IRIS, TRIPLES, st.sampled_from([None, "en"]))
    def test_kinds_and_types_never_equal(self, iri, triple, language):
        literal = Term.literal(iri.value, language)
        assert iri != literal and literal != iri
        for term in (iri, literal, triple.subject, triple.object):
            assert term != triple and triple != term


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
        triple = t("https://a.ex/", KNOWS, "https://b.ex/")
        g = Graph.union([Graph([triple, triple]), Graph([triple])])
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

    def test_a_graph_equals_no_other_type(self):
        triple = t("https://a.ex/", KNOWS, "https://b.ex/")
        assert Graph([triple]).__eq__(frozenset([triple])) is NotImplemented
        assert Graph() != 5 and Graph([triple]) != frozenset([triple])

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

    @pytest.mark.parametrize("kind", sorted(MATCH_PATTERNS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_graph_match_equals_match_triple_with_bindings(self, kind, data):
        g = Graph(data.draw(st.lists(SMALL_TRIPLES, min_size=1, max_size=12)))
        pattern = data.draw(MATCH_PATTERNS[kind](g))
        expected = sorted((x, match_triple(x, pattern)) for x in g
                          if match_triple(x, pattern) is not None)
        assert graph_match(g, pattern) == expected
        if kind == "fully bound":
            assert expected == [(pattern, {})]

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

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_index_files_each_triple_under_its_shape_key(self, shape):
        triples = [
            t("https://a.ex/", KNOWS, "https://b.ex/"),
            t("https://a.ex/", KNOWS, "https://c.ex/"),
            t("https://a.ex/", NAME, Term.literal("A")),
            t("https://b.ex/", KNOWS, "https://a.ex/"),
            t("https://b.ex/", NAME, Term.literal("A", "en")),
        ]
        index = Graph(triples).index(shape)
        key = shape_key(shape)
        for triple in triples:
            assert [k for k, bucket in index.items() if triple in bucket] == [key(triple)]
        assert sum(map(len, index.values())) == len(triples)
        if not shape:
            assert list(index) == [()] and set(index[()]) == set(triples)
        else:
            assert len(index) == len({key(triple) for triple in triples}) > 1

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
                    g = Graph.union([g, Graph([random_triple()])])
                else:
                    g = Graph.union(
                        [g, Graph(random_triple() for _ in range(rng.randrange(1, 4)))])
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
