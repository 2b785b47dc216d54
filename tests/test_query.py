import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_evaluate,
    optional_queries,
    parse_web,
    random_bgp_query,
    random_web,
    row_fingerprints,
    webs,
)
from linkquery.query import (
    Query,
    QueryParseError,
    UnsupportedFeatureError,
    evaluate,
    parse_query,
    render_table,
    render_tsv,
    rows_to_json,
    triple_patterns,
)
from linkquery.rdf import Graph, Term, Triple, TriplePattern

FOAF = "http://xmlns.com/foaf/0.1/"

FRIENDS_QUERY = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?friend ?name ?email ?picture WHERE {
  <https://uma.ex/#me> foaf:knows ?friend.
  ?friend foaf:name ?name.
  OPTIONAL { ?friend foaf:mbox ?email.
             ?friend foaf:img  ?picture. }
}
"""


def t(s, p, o):
    obj = o if isinstance(o, Term) else Term.iri(o)
    return Triple(Term.iri(s), Term.iri(p), obj)


class TestParseQuery:
    def test_friends_query_shape(self):
        q = parse_query(FRIENDS_QUERY)
        assert q.projection == ["friend", "name", "email", "picture"]
        assert len(q.required) == 2
        assert [len(g) for g in q.optional_groups] == [2]
        assert q.required[0] == TriplePattern(
            Term.iri("https://uma.ex/#me"),
            Term.iri(FOAF + "knows"),
            Term.var("friend"),
        )

    def test_minimal_query(self):
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert q.projection == ["s"]
        assert len(q.required) == 1
        assert q.optional_groups == []

    def test_unbound_projection_rejected(self):
        with pytest.raises(QueryParseError, match="\\?x"):
            parse_query("SELECT ?x WHERE { ?a ?b ?c }")

    def test_duplicate_projection_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT ?a ?a WHERE { ?a ?b ?c }")

    @pytest.mark.parametrize("construct", ["FILTER", "UNION", "BIND", "LIMIT"])
    def test_unsupported_constructs_named(self, construct):
        text = "SELECT ?s WHERE { ?s ?p ?o. %s }" % construct
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_query(text)
        assert construct in str(exc.value)

    def test_nested_optional_rejected(self):
        text = (
            "SELECT ?s WHERE { ?s ?p ?o. "
            "OPTIONAL { ?s ?p ?x. OPTIONAL { ?x ?p ?y } } }"
        )
        with pytest.raises(UnsupportedFeatureError, match="OPTIONAL"):
            parse_query(text)

    def test_unknown_prefix(self):
        with pytest.raises(QueryParseError, match="wat"):
            parse_query("SELECT ?s WHERE { ?s wat:p ?o }")

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?s WHERE { ?s ?p <rel> }",
            "SELECT ?s WHERE { ?s ?p <1:x> }",
            "PREFIX r: <rel/> SELECT ?s WHERE { ?s r:p ?o }",
        ],
    )
    def test_relative_iri_rejected(self, text):
        with pytest.raises(QueryParseError, match="relative IRI"):
            parse_query(text)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?s WHERE { ?s ?p <http://[x> }",
            "PREFIX v: <http://[x/> SELECT ?s WHERE { ?s v:p ?o }",
        ],
    )
    def test_malformed_ipv6_host_rejected(self, text):
        with pytest.raises(QueryParseError, match="malformed IRI"):
            parse_query(text)

    def test_predicate_object_list(self):
        q = parse_query("SELECT ?n ?m WHERE { ?x foaf:name ?n; foaf:mbox ?m }")
        assert len(q.required) == 2
        assert q.required[0].subject == q.required[1].subject

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT # projection\n ?s WHERE { ?s ?p ?o }",
            "SELECT ?s WHERE { # pattern\n ?s ?p ?o }",
            "SELECT ?s WHERE # group\n { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s ?p ?o # end\n }",
            "SELECT ?s WHERE { ?s ?p ?o # one\n# two\n\t}",
        ],
    )
    def test_comment_before_variable_or_brace(self, text):
        assert parse_query(text) == parse_query("SELECT ?s WHERE { ?s ?p ?o }")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("SELECT ? s WHERE { ?s ?p ?o }", "malformed variable (line 1, column 8)"),
            ("SELECT ?s WHERE {\n ?s ?p ?1 }", "malformed variable (line 2, column 8)"),
            ("SELECT ?s WHERE { ?s ?p ?o } $", "unexpected character '$' (line 1, column 30)"),
            ('SELECT ?s WHERE { ?s ?p "\\x" }', "unknown escape in literal (line 1, column 27)"),
            ('SELECT ?s WHERE { ?s ?p "x"@en- }', "malformed language tag (line 1, column 29)"),
        ],
    )
    def test_scanner_errors_report_position(self, text, message):
        with pytest.raises(QueryParseError) as exc:
            parse_query(text)
        assert str(exc.value) == message


    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty query"),
            ("# nothing but a comment\n", "empty query"),
            ("SELECT ?s WHERE { ?s ?p ?o } }", "unexpected trailing token '}'"),
            ("SELECT ?s WHERE { ?s ?p ?o } ?o", "unexpected trailing token 'o'"),
            ("SELECT WHERE { ?s ?p ?o }", "projection must be non-empty"),
        ],
    )
    def test_empty_or_trailing_text_rejected(self, text, message):
        with pytest.raises(QueryParseError) as exc:
            parse_query(text)
        assert str(exc.value) == message


class TestTriplePatterns:
    def test_friends_query_has_four(self):
        assert len(triple_patterns(parse_query(FRIENDS_QUERY))) == 4

    def test_required_only(self):
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        assert triple_patterns(q) == q.required

    def test_deduplicated(self):
        q = parse_query("SELECT ?s WHERE { ?s foaf:name ?n. OPTIONAL { ?s foaf:name ?n } }")
        assert len(triple_patterns(q)) == 1


class TestEvaluate:
    def test_empty_graph(self):
        q = parse_query(FRIENDS_QUERY)
        assert evaluate(q, Graph()) == []

    def test_left_join_hand_enumerated(self):
        # over {(a,p,b),(b,p,c)}: required (?s,p,?o), optional (?o,p,?x)
        p = "https://vocab.ex/p"
        g = Graph([t("https://a.ex/", p, "https://b.ex/"), t("https://b.ex/", p, "https://c.ex/")])
        q = Query(
            ["s", "o", "x"],
            [TriplePattern(Term.var("s"), Term.iri(p), Term.var("o"))],
            [[TriplePattern(Term.var("o"), Term.iri(p), Term.var("x"))]],
        )
        rows = evaluate(q, g)
        assert row_fingerprints(rows, q.projection) == {
            (
                ("iri", "https://a.ex/", None),
                ("iri", "https://b.ex/", None),
                ("iri", "https://c.ex/", None),
            ),
            (
                ("iri", "https://b.ex/", None),
                ("iri", "https://c.ex/", None),
                None,
            ),
        }

    def test_rows_sorted_by_term_with_null_last(self):
        # Projection (?x, ?s): ?x compares by value, then language tag, then
        # kind, and an unbound ?x sorts after every term, even "".
        p, q_ = "https://vocab.ex/p", "https://vocab.ex/q"
        g = Graph([
            t("https://g.ex/", p, "https://h.ex/"),
            t("https://e.ex/", p, "https://f.ex/"),
            t("https://c.ex/", p, "https://d.ex/"),
            t("https://a.ex/", p, "https://b.ex/"),
            t("https://i.ex/", p, "https://j.ex/"),
            t("https://d.ex/", q_, Term.literal("z", "en")),
            t("https://b.ex/", q_, Term.literal("z")),
            t("https://j.ex/", q_, Term.literal("")),
        ])
        q = Query(
            ["x", "s"],
            [TriplePattern(Term.var("s"), Term.iri(p), Term.var("o"))],
            [[TriplePattern(Term.var("o"), Term.iri(q_), Term.var("x"))]],
        )
        assert [(row["x"] and row["x"].n3(), row["s"].value) for row in evaluate(q, g)] == [
            ('""', "https://i.ex/"),
            ('"z"', "https://a.ex/"),
            ('"z"@en', "https://c.ex/"),
            (None, "https://e.ex/"),
            (None, "https://g.ex/"),
        ]

    def test_second_group_sees_both_domains(self):
        # The first group binds ?d for a.ex only. So the second group, on
        # ?d, runs with ?d bound for a.ex, where it finds d.ex's triple, and
        # with ?d new for b.ex, where any r-triple extends the solution.
        p, q_, r = "https://vocab.ex/p", "https://vocab.ex/q", "https://vocab.ex/r"
        g = Graph([
            t("https://a.ex/", p, "https://x.ex/"),
            t("https://b.ex/", p, "https://y.ex/"),
            t("https://x.ex/", q_, "https://d.ex/"),
            t("https://d.ex/", r, "https://e.ex/"),
            t("https://f.ex/", r, "https://g.ex/"),
        ])
        query = parse_query(
            "SELECT ?a ?d ?e WHERE { ?a <%s> ?b OPTIONAL { ?b <%s> ?d } OPTIONAL { ?d <%s> ?e } }"
            % (p, q_, r)
        )
        rows = [tuple(row[v].value for v in query.projection) for row in evaluate(query, g)]
        assert rows == [
            ("https://a.ex/", "https://d.ex/", "https://e.ex/"),
            ("https://b.ex/", "https://d.ex/", "https://e.ex/"),
            ("https://b.ex/", "https://f.ex/", "https://g.ex/"),
        ]
        assert set(rows) == {tuple(cell[1] for cell in row)
                             for row in brute_force_evaluate(query, g)}

    def test_layouts_binding_the_same_variables_in_two_orders(self):
        # The first group binds ?d then ?e for a1.ex. The second group runs on
        # a2.ex and a4.ex, which the first failed, and binds ?e (from ?e t ?b)
        # before ?d, so their solutions hold the same variables as a1.ex's in
        # the other order. a3.ex fails both groups. a1.ex and a4.ex reach the
        # same ?d and ?e, one per order.
        v = "https://vocab.ex/"
        a1, a2, a3, a4 = ("https://a%d.ex/" % i for i in (1, 2, 3, 4))
        b1, b2, b3, b4 = ("https://b%d.ex/" % i for i in (1, 2, 3, 4))
        d1, d2, e1, e2 = "https://d1.ex/", "https://d2.ex/", "https://e1.ex/", "https://e2.ex/"
        g = Graph([
            t(a1, v + "p", b1), t(a2, v + "p", b2), t(a3, v + "p", b3), t(a4, v + "p", b4),
            t(b1, v + "q", d1), t(d1, v + "r", e1), t(b2, v + "q", d2),
            t(e2, v + "t", b2), t(e2, v + "s", d2), t(e1, v + "t", b4), t(e1, v + "s", d1),
        ])
        where = ("WHERE { ?a <{v}p> ?b OPTIONAL { ?b <{v}q> ?d . ?d <{v}r> ?e }"
                 " OPTIONAL { ?e <{v}s> ?d . ?e <{v}t> ?b } }").replace("{v}", v)

        def cells(select):
            query = parse_query(select + " " + where)
            return [tuple(row[x] and row[x].value for x in query.projection)
                    for row in evaluate(query, g)]

        assert cells("SELECT ?a ?b ?d ?e") == [
            (a1, b1, d1, e1), (a2, b2, d2, e2), (a3, b3, None, None), (a4, b4, d1, e1),
        ]
        assert cells("SELECT ?e ?d") == [(e1, d1), (e2, d2), (None, None)]

    def test_optional_group_all_or_nothing(self):
        name, mbox, img = FOAF + "name", FOAF + "mbox", FOAF + "img"
        g = Graph(
            [
                t("https://a.ex/#me", name, Term.literal("A")),
                t("https://a.ex/#me", mbox, "mailto:a@a.ex"),
                # no img triple: the whole optional group must stay unbound
            ]
        )
        q = Query(
            ["n", "e", "i"],
            [TriplePattern(Term.var("x"), Term.iri(name), Term.var("n"))],
            [[
                TriplePattern(Term.var("x"), Term.iri(mbox), Term.var("e")),
                TriplePattern(Term.var("x"), Term.iri(img), Term.var("i")),
            ]],
        )
        [row] = evaluate(q, g)
        assert row["n"] == Term.literal("A")
        assert row["e"] is None and row["i"] is None

    def test_soundness_of_required_patterns(self):
        rng = random.Random(11)
        for _ in range(25):
            bodies = random_web(rng, max_docs=4, max_triples=8)
            graph = Graph.union(parse_web(bodies).values())
            q = random_bgp_query(rng, 4)
            for row in evaluate(q, graph):
                full = brute_force_evaluate(q, graph)
                fp = tuple(
                    (x.kind, x.value, x.language) if x is not None else None
                    for x in (row[v] for v in q.projection)
                )
                assert fp in full

    def test_completeness_against_enumeration_oracle(self):
        rng = random.Random(23)
        for _ in range(30):
            bodies = random_web(rng, max_docs=4, max_triples=7)
            graph = Graph.union(parse_web(bodies).values())
            if len(graph) > 30:
                continue
            q = random_bgp_query(rng, 4)
            assert row_fingerprints(evaluate(q, graph), q.projection) == \
                brute_force_evaluate(q, graph)

    def test_bgp_monotone_under_graph_growth(self):
        rng = random.Random(31)
        for _ in range(20):
            bodies = random_web(rng, max_docs=4, max_triples=6)
            graphs = list(parse_web(bodies).values())
            small = Graph.union(graphs[: max(1, len(graphs) // 2)])
            big = Graph.union([small] + graphs)
            q = random_bgp_query(rng, 4)
            assert row_fingerprints(evaluate(q, small), q.projection) <= \
                row_fingerprints(evaluate(q, big), q.projection)

    def test_unbound_optional_only_when_no_extension_exists(self):
        rng = random.Random(41)
        p = "https://vocab.ex/p"
        for _ in range(20):
            bodies = random_web(rng, max_docs=3, max_triples=6)
            graph = Graph.union(parse_web(bodies).values())
            q = Query(
                ["a", "b"],
                [TriplePattern(Term.var("a"), Term.iri(p), Term.var("x"))],
                [[TriplePattern(Term.var("x"), Term.iri(p), Term.var("b"))]],
            )
            for row in evaluate(q, graph):
                if row["b"] is None:
                    # no compatible full extension may exist
                    for m in brute_force_evaluate(
                        Query(["a", "b"], q.required + q.optional_groups[0]), graph
                    ):
                        assert m[0] != ("iri", row["a"].value, None)

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_evaluate_equals_brute_force_with_optionals(self, data):
        # Webs of at most 3 x 6 triples keep the oracle's |graph|^|patterns|
        # enumeration small.
        bodies = data.draw(webs(max_docs=3, max_triples=6))
        graph = Graph.union(parse_web(bodies).values())
        assume(len(graph))
        query = data.draw(optional_queries(list(graph)))
        rows = evaluate(query, graph)
        expected = brute_force_evaluate(query, graph)
        assert row_fingerprints(rows, query.projection) == expected
        assert len(rows) == len(expected)
        # Each cell in term order, an unbound one after every term.
        keys = [tuple((True, ()) if row[v] is None else (False, row[v]) for v in query.projection)
                for row in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_results_deduplicated_and_sorted(self):
        p = "https://vocab.ex/p"
        g = Graph(
            [
                t("https://b.ex/", p, "https://x.ex/"),
                t("https://a.ex/", p, "https://x.ex/"),
            ]
        )
        q = Query(["s"], [TriplePattern(Term.var("s"), Term.iri(p), Term.var("o"))])
        rows = evaluate(q, g)
        values = [r["s"].value for r in rows]
        assert values == sorted(values)
        # projecting away ?o collapses duplicates
        assert len(rows) == 2


def count_candidates(monkeypatch, bound):
    """Make evaluate's index lookups count the candidate triples it takes
    from their buckets, failing as soon as it takes more than bound.
    Returns a function that reads the count."""
    taken = 0

    class Bucket(list):
        def __iter__(self):
            nonlocal taken
            for triple in list.__iter__(self):
                taken += 1
                assert taken <= bound, "more than %d candidates taken" % bound
                yield triple

    class Index:
        def __init__(self, index):
            self.index = index

        def get(self, key, default=None):
            bucket = self.index.get(key)
            return default if bucket is None else Bucket(bucket)

    original = Graph.index
    monkeypatch.setattr(Graph, "index", lambda graph, shape: Index(original(graph, shape)))
    return lambda: taken


class TestEvaluateWork:
    def test_join_checks_each_candidate_once(self, monkeypatch):
        # ?a knows ?b . ?b name ?n over 430 people knowing 10 others each:
        # 4,300 knows triples and 430 names, 4,730 triples in all. The first
        # pattern takes each knows triple; then each of the 4,300 partial
        # solutions takes its one name triple, so k = 1 candidate per row.
        # A scan of the whole graph per partial solution takes ~20 million;
        # the counter stops it as soon as the bound is passed.
        people, degree, k = 430, 10, 1
        person = ["https://p%d.ex/#me" % i for i in range(people)]
        triples = []
        for i in range(people):
            triples.append(t(person[i], FOAF + "name", Term.literal("n%d" % i)))
            for j in range(1, degree + 1):
                triples.append(t(person[i], FOAF + "knows", person[(i + j) % people]))
        graph = Graph(triples)
        expected = {
            (person[i], person[(i + j) % people], "n%d" % ((i + j) % people))
            for i in range(people)
            for j in range(1, degree + 1)
        }
        query = parse_query("SELECT ?a ?b ?n WHERE { ?a foaf:knows ?b. ?b foaf:name ?n }")
        taken = count_candidates(monkeypatch, len(graph) + k * len(expected))
        rows = evaluate(query, graph)
        assert len(graph) == 4_730
        assert {(r["a"].value, r["b"].value, r["n"].value) for r in rows} == expected
        assert taken() >= len(rows)  # each row was built from a counted candidate

    def test_join_starts_from_its_constant(self, monkeypatch):
        # ?a knows ?b . ?b knows ?c . ?c name "n7" over 3,000 people, each
        # knowing the 5 at offsets 1, 2, 4, 8 and 16, plus names: 18,000
        # triples. Started from the constant, the join takes 1 name, the 5
        # knowers of n7 and their 5 knowers each: 31 candidates for 25 rows.
        # In the written order it takes all 15,000 knows triples, then 5
        # per solution twice, about 165,000.
        people, offsets = 3_000, (1, 2, 4, 8, 16)
        person = ["https://p%d.ex/#me" % i for i in range(people)]
        graph = Graph(
            [t(person[i], FOAF + "name", Term.literal("n%d" % i)) for i in range(people)]
            + [t(person[i], FOAF + "knows", person[(i + j) % people])
               for i in range(people) for j in offsets]
        )
        expected = {
            (person[(7 - i - j) % people], person[(7 - i) % people], person[7])
            for i in offsets for j in offsets
        }
        query = parse_query(
            'SELECT ?a ?b ?c WHERE { ?a foaf:knows ?b. ?b foaf:knows ?c. ?c foaf:name "n7" }'
        )
        taken = count_candidates(monkeypatch, 100)
        rows = evaluate(query, graph)
        assert len(graph) == 18_000
        assert {(r["a"].value, r["b"].value, r["c"].value) for r in rows} == expected
        assert len(rows) == 25
        assert taken() >= len(rows)

    def test_subject_predicate_probes_index_each_triple_once(self):
        # An anchored join looks up (subject, predicate) keys only: the first
        # pattern binds both, and each friend substituted into the second
        # does too. So the graph indexes one shape, each triple in one
        # bucket, instead of all six shapes of partly bound keys.
        people = 50
        person = ["https://p%d.ex/#me" % i for i in range(people)]
        graph = Graph(
            [t(person[i], FOAF + "name", Term.literal("n%d" % i)) for i in range(people)]
            + [t(person[i], FOAF + "knows", person[(i + j) % people])
               for i in range(people) for j in (1, 2, 3)]
        )
        query = parse_query(
            "SELECT ?b ?n WHERE { <%s> foaf:knows ?b. ?b foaf:name ?n }" % person[0]
        )
        rows = evaluate(query, graph)
        assert [r["n"].value for r in rows] == ["n1", "n2", "n3"]
        assert list(graph._indexes) == [(0, 1)]  # (subject, predicate)
        [index] = graph._indexes.values()
        assert sum(len(bucket) for bucket in index.values()) == len(graph)


class TestRendering:
    def test_tsv_null_is_empty_cell(self):
        q = parse_query(
            "SELECT ?s ?x WHERE { ?s ?p ?o. OPTIONAL { ?s <https://none.ex/p> ?x } }"
        )
        g = Graph([t("https://a.ex/", "https://p.ex/", Term.literal("v"))])
        rows = evaluate(q, g)
        tsv = render_tsv(rows, q.projection)
        assert tsv.splitlines()[1].endswith("\t")

    def test_json_null(self):
        q = parse_query(
            "SELECT ?s ?x WHERE { ?s ?p ?o. OPTIONAL { ?s <https://none.ex/p> ?x } }"
        )
        g = Graph([t("https://a.ex/", "https://p.ex/", Term.literal("v"))])
        data = rows_to_json(evaluate(q, g), q.projection)
        assert data[0]["x"] is None

    def test_table_has_headers(self):
        q = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
        out = render_table([], q.projection)
        assert out.startswith("?s")
