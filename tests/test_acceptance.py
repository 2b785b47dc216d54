"""End-to-end acceptance checks for the demo web and the engine's guarantees.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist
when run with `pytest tests/test_acceptance.py -v -s`.
"""
import random
import signal
import time
from contextlib import contextmanager

import pytest

from helpers import (
    brute_force_evaluate,
    closure_c_all,
    doc_iri,
    entity_iri,
    random_bgp_query,
    random_web,
    row_fingerprints,
    union_graph,
    web_source,
)
from linkquery.fixtures import demo_manifest, fixture_path
from linkquery.guidance import (
    ALLOW,
    DENY,
    PERMISSIVE_POLICY,
    SAME_ORIGIN,
    WILDCARD,
    ContentPolicy,
    LinkingStructureRegistry,
    PolicyRule,
)
from linkquery.query import evaluate, parse_query
from linkquery.rdf import Graph, Term, TriplePattern, resolve_iri, to_ntriples
from linkquery.traversal import (
    C_ALL,
    C_MATCH,
    CappedTraversalError,
    TraversalConfig,
    traverse_guided,
    traverse_unguided,
)
from linkquery.turtle import parse_turtle
from linkquery.webfetch import FixtureSource

SEED = "https://uma.ex/#me"
PERMISSIVE_REGISTRY = LinkingStructureRegistry([], "permissive")

FOAF = "http://xmlns.com/foaf/0.1/"

ANN = ("iri", "https://ann.ex/#me", None)
BOB = ("iri", "https://bob.ex/#me", None)
MICKEY = ("iri", "http://dbpedia.org/resource/Mickey_Mouse", None)

# The five expected rows for the demo web, in the engine's deterministic
# output order (sorted by projected values, NULL last).
EXPECTED_UNGUIDED_ROWS = [
    (MICKEY, ("literal", "Mickey Mouse", "en"), None, None),
    (ANN, ("literal", "Ann", None), ("iri", "mailto:me@ann.ex", None),
     ("iri", "https://ann.ex/about/ann.jpg", None)),
    (ANN, ("literal", "Felix", None), ("iri", "mailto:me@ann.ex", None),
     ("iri", "https://ann.ex/about/ann.jpg", None)),
    (BOB, ("literal", "Bob", None), ("iri", "mailto:me@bob.ex", None),
     ("iri", "https://bob.ex/funny-fish.jpg", None)),
    (BOB, ("literal", "Bob", None), ("iri", "mailto:me@bob.ex", None),
     ("iri", "https://uma.ex/bob.jpg", None)),
]
EXPECTED_GUIDED_ROWS = [
    EXPECTED_UNGUIDED_ROWS[1],
    (BOB, ("literal", "Bob", None), ("iri", "mailto:me@bob.ex", None),
     ("iri", "https://uma.ex/bob.jpg", None)),
]


def report(number, label, failed=False):
    print("acceptance %d (%s): %s" % (number, label, "FAIL" if failed else "PASS"))


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        report(number, label, failed=True)
        raise
    report(number, label)


def ordered_fingerprints(rows, projection):
    return [
        tuple(
            (t.kind, t.value, t.language) if t is not None else None
            for t in (row[v] for v in projection)
        )
        for row in rows
    ]


def run_unguided(source, query, semantics=C_MATCH):
    config = TraversalConfig(semantics=semantics, seeds=[SEED], max_documents=64)
    return traverse_unguided(config, source, query)


def test_1_unguided_result_table(demo_query_obj):
    with criterion(1, "full result table under follow-matching traversal"):
        started = time.monotonic()
        pool, _ = run_unguided(FixtureSource.from_manifest(demo_manifest()), demo_query_obj)
        rows = evaluate(demo_query_obj, pool.graph())
        elapsed = time.monotonic() - started
        assert ordered_fingerprints(rows, demo_query_obj.projection) == \
            EXPECTED_UNGUIDED_ROWS
        assert elapsed < 1.0


def test_2_guided_result_restriction(demo_query_obj, demo_registry, uma_policy):
    with criterion(2, "guided run keeps only the trusted rows"):
        pool, _ = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj,
            FixtureSource.from_manifest(demo_manifest()),
        )
        rows = evaluate(demo_query_obj, pool.graph())
        assert ordered_fingerprints(rows, demo_query_obj.projection) == \
            EXPECTED_GUIDED_ROWS


def test_3_request_counts(demo_query_obj, demo_registry, uma_policy):
    with criterion(3, "7 documents unguided, 4 guided, encyclopedia skipped"):
        _, unguided_trace = run_unguided(
            FixtureSource.from_manifest(demo_manifest()), demo_query_obj
        )
        assert unguided_trace.ledger.distinct_ok == 7
        _, guided_trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj,
            FixtureSource.from_manifest(demo_manifest()),
        )
        assert guided_trace.ledger.distinct_ok == 4
        assert (
            "http://dbpedia.org/resource/Mickey_Mouse"
            not in guided_trace.ledger.requested_documents()
        )


def test_4_ann_subtree_requests(demo_query_obj, demo_registry, uma_policy):
    with criterion(4, "requests into ann's subtree drop from 4 to 2"):
        _, unguided_trace = run_unguided(
            FixtureSource.from_manifest(demo_manifest()), demo_query_obj
        )
        assert unguided_trace.fetched_per_subtree()["https://ann.ex/"] == 4
        _, guided_trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj,
            FixtureSource.from_manifest(demo_manifest()),
        )
        assert guided_trace.fetched_per_subtree()["https://ann.ex/"] == 2


def test_5_oracle_equivalence_property():
    with criterion(5, "100 random webs match the closure and join oracles"):
        rng = random.Random(2024)
        for _ in range(100):
            bodies = random_web(rng)
            seeds = [doc_iri(0)]
            query = random_bgp_query(rng, len(bodies), max_patterns=2)
            pool, trace = traverse_guided(
                seeds, PERMISSIVE_REGISTRY, PERMISSIVE_POLICY, query,
                web_source(bodies), max_documents=1000,
            )
            expected_docs = closure_c_all(bodies, seeds)
            expected_graph = union_graph(bodies, expected_docs)
            assert trace.ledger.ok_documents == expected_docs
            assert pool.graph() == expected_graph
            assert row_fingerprints(evaluate(query, pool.graph()), query.projection) \
                == brute_force_evaluate(query, expected_graph)


def test_6_order_independence_property():
    with criterion(6, "50 random webs are schedule-independent"):
        rng = random.Random(77)
        for _ in range(50):
            bodies = random_web(rng, max_docs=8)
            query = random_bgp_query(rng, len(bodies))
            outcomes = set()
            for run in range(3):
                pool, trace = traverse_guided(
                    [doc_iri(0)], PERMISSIVE_REGISTRY, PERMISSIVE_POLICY, query,
                    web_source(bodies), max_documents=1000,
                    rng=random.Random(run),
                )
                outcomes.add(
                    (
                        frozenset(trace.admitted_documents()),
                        trace.ledger.distinct_ok,
                        frozenset(
                            row_fingerprints(
                                evaluate(query, pool.graph()), query.projection
                            )
                        ),
                    )
                )
            assert len(outcomes) == 1


def _cyclic_web(n):
    return {
        doc_iri(i): "<%s> <https://vocab.ex/p1> <%s>.\n"
        % (entity_iri(i), entity_iri((i + 1) % n))
        for i in range(n)
    }


def test_7_termination():
    with criterion(7, "cyclic webs terminate and the document cap is enforced"):
        def on_timeout(signum, frame):
            raise TimeoutError("traversal did not terminate within 10s")

        previous = signal.signal(signal.SIGALRM, on_timeout)
        signal.alarm(10)
        try:
            query = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
            bodies = _cyclic_web(10)
            config = TraversalConfig(
                semantics=C_ALL, seeds=[doc_iri(0)], max_documents=64
            )
            _, trace = traverse_unguided(config, web_source(bodies), query)
            assert trace.ledger.distinct_ok == 10
            capped = TraversalConfig(
                semantics=C_ALL, seeds=[doc_iri(0)], max_documents=5
            )
            with pytest.raises(CappedTraversalError):
                traverse_unguided(capped, web_source(bodies), query)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def test_8_parser_suite():
    with criterion(8, "fixture bodies, IRI resolution and round-trip"):
        expected_counts = {
            "uma.ttl": 3,
            "ann.ttl": 3,
            "bob.ttl": 6,
            "ann-about.ttl": 3,
        }
        for name, count in expected_counts.items():
            body = fixture_path("web/" + name).read_text(encoding="utf-8")
            graph = parse_turtle(body, "https://base.ex/")
            assert len(graph) == count, name

        base = "http://a/b/c/d;p?q"
        vectors = {
            "g": "http://a/b/c/g",
            "./g": "http://a/b/c/g",
            "g/": "http://a/b/c/g/",
            "/g": "http://a/g",
            "?y": "http://a/b/c/d;p?y",
            "#s": "http://a/b/c/d;p?q#s",
            "../g": "http://a/b/g",
            "../../g": "http://a/g",
        }
        for reference, expected in vectors.items():
            assert resolve_iri(base, reference) == expected, reference

        source = FixtureSource.from_manifest(demo_manifest())
        for iri in source.document_iris():
            graph = parse_turtle(source.fetch(iri).body, iri)
            assert parse_turtle(to_ntriples(graph), iri) == graph, iri


def _random_deny_default_policy(rng, sources):
    rules = []
    for _ in range(rng.randint(0, 4)):
        rules.append(
            PolicyRule(
                rng.choice([ALLOW, DENY]),
                TriplePattern(
                    Term.var("s"),
                    Term.iri(rng.choice([
                        "https://vocab.ex/p1", "https://vocab.ex/p2",
                        "https://vocab.ex/p3", "https://vocab.ex/p4",
                    ])),
                    Term.var("o"),
                ),
                rng.choice([WILDCARD, SAME_ORIGIN] + sources),
                rng.randint(0, 5),
            )
        )
    return ContentPolicy(rules, DENY)


def test_9_allow_rule_monotonicity_property():
    with criterion(9, "adding an allow rule never removes a solution"):
        rng = random.Random(404)
        for _ in range(50):
            bodies = random_web(rng, max_docs=6, max_triples=6)
            sources = [doc_iri(i) for i in range(len(bodies))]
            query = random_bgp_query(rng, len(bodies), max_patterns=2)
            base = _random_deny_default_policy(rng, sources)
            extra = PolicyRule(
                ALLOW,
                TriplePattern(
                    Term.var("s"),
                    Term.iri(rng.choice([
                        "https://vocab.ex/p1", "https://vocab.ex/p2",
                        "https://vocab.ex/p3", "https://vocab.ex/p4",
                    ])),
                    Term.var("o"),
                ),
                rng.choice([WILDCARD, SAME_ORIGIN] + sources),
                rng.randint(0, 6),
            )
            widened = ContentPolicy(base.rules + [extra], DENY)
            before_pool, _ = traverse_guided(
                [doc_iri(0)], PERMISSIVE_REGISTRY, base, query,
                web_source(bodies), max_documents=1000,
            )
            after_pool, _ = traverse_guided(
                [doc_iri(0)], PERMISSIVE_REGISTRY, widened, query,
                web_source(bodies), max_documents=1000,
            )
            before = evaluate(query, before_pool.graph())
            after = evaluate(query, after_pool.graph())
            assert row_fingerprints(before, query.projection) <= \
                row_fingerprints(after, query.projection)
