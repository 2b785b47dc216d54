import dataclasses
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bgp_queries,
    closure_c_all,
    closure_c_match,
    closure_guided,
    doc_iri,
    entity_iri,
    link_unrequested,
    parse_web,
    policies,
    random_bgp_query,
    random_policy_json,
    random_registry_json,
    random_web,
    reference_lambda,
    reference_overrides,
    registries,
    row_fingerprints,
    union_graph,
    web_source,
    webs,
)
from linkquery import rdf, traversal, webfetch
from linkquery.guidance import (
    PERMISSIVE_POLICY,
    ContentPolicy,
    RESTRICTIVE,
    SELF,
    LinkingStructureRegistry,
    get_linking_structure,
    parse_policy,
    parse_structure_registry,
    triple_relevant,
)
from linkquery.query import evaluate, parse_query, triple_patterns
from linkquery.rdf import Graph, match_triple, strip_fragment
from linkquery.turtle import parse_turtle
from linkquery.traversal import (
    Admission,
    C_ALL,
    C_MATCH,
    C_NONE,
    CappedTraversalError,
    TraversalConfig,
    traverse_guided,
    traverse_unguided,
)
from linkquery.webfetch import (
    MAX_IN_FLIGHT,
    NOT_FOUND,
    OK,
    PARSE_ERROR,
    WAITED_S,
    Document,
    FetchResult,
    LedgerEntry,
)

SEED = "https://uma.ex/#me"
PERMISSIVE_REGISTRY = LinkingStructureRegistry([], "permissive")

ANY_QUERY = parse_query("SELECT ?s WHERE { ?s ?p ?o }")


def unguided(source, query, semantics, seeds=(SEED,), max_documents=64, rng=None):
    config = TraversalConfig(
        semantics=semantics, seeds=list(seeds), max_documents=max_documents
    )
    return traverse_unguided(config, source, query, rng=rng)


class TestUnguided:
    def test_c_none_fetches_seeds_only(self, demo_source, demo_query_obj):
        _, trace = unguided(demo_source, demo_query_obj, C_NONE)
        assert trace.ledger.ok_documents == {"https://uma.ex/"}

    def test_c_match_fetches_all_seven(self, demo_source, demo_query_obj):
        _, trace = unguided(demo_source, demo_query_obj, C_MATCH)
        assert trace.ledger.distinct_ok == 7

    def test_c_all_fetches_all_seven(self, demo_source, demo_query_obj):
        _, trace = unguided(demo_source, demo_query_obj, C_ALL)
        assert trace.ledger.distinct_ok == 7

    def test_cycle_terminates(self):
        bodies = {
            "https://a.ex/": "<https://a.ex/#x> <https://p.ex/q> <https://b.ex/#y>.",
            "https://b.ex/": "<https://b.ex/#y> <https://p.ex/q> <https://a.ex/#x>.",
        }
        _, trace = unguided(
            web_source(bodies), ANY_QUERY, C_ALL, seeds=("https://a.ex/",)
        )
        assert trace.ledger.ok_documents == set(bodies)

    def test_max_documents_cap(self):
        bodies = {
            doc_iri(i): "<%s> <https://p.ex/q> <%s>." % (entity_iri(i), entity_iri(i + 1))
            for i in range(20)
        }
        with pytest.raises(CappedTraversalError) as exc:
            unguided(
                web_source(bodies), ANY_QUERY, C_ALL,
                seeds=(doc_iri(0),), max_documents=5,
            )
        assert exc.value.trace.admissions  # partial trace is attached

    def test_pool_provenance_covers_all_reached_triples(self, demo_source, demo_query_obj):
        pool, trace = unguided(demo_source, demo_query_obj, C_ALL)
        for triple, sources in pool.provenance().items():
            for src in sources:
                assert triple in trace.documents[src].triples

    def test_non_seed_admissions_reference_earlier_documents(self, demo_source, demo_query_obj):
        _, trace = unguided(demo_source, demo_query_obj, C_MATCH)
        admitted = []
        for adm in trace.admissions:
            if adm.reason == "seed":
                admitted.append(adm.doc_iri)
            elif adm.reason == "link":
                assert adm.from_doc in admitted
                admitted.append(adm.doc_iri)

    def test_c_match_follows_triples_about_entities_found_later(self):
        # The seed's triple about d.ex qualifies only once b.ex names d.ex in a
        # matching triple; c.ex is then linked from the seed, not from b.ex.
        bodies = {
            "https://a.ex/": "<https://a.ex/#a> <https://p.ex/p1> <https://b.ex/#b>.\n"
                             "<https://d.ex/#d> <https://p.ex/p2> <https://c.ex/#c>.",
            "https://b.ex/": "<https://b.ex/#b> <https://p.ex/p1> <https://d.ex/#d>.",
            "https://c.ex/": '<https://c.ex/#c> <https://p.ex/p2> "leaf".',
        }
        query = parse_query("SELECT ?x WHERE { ?x <https://p.ex/p1> ?y }")
        _, trace = unguided(web_source(bodies), query, C_MATCH, seeds=("https://a.ex/",))
        admission = trace.admission_of("https://c.ex/")
        assert admission.from_doc == "https://a.ex/"
        assert admission.via_triple.subject.value == "https://d.ex/#d"
        assert admission.via_pattern is None

    def test_admission_chain_walk_visits_no_admission_list(self):
        # explain --doc walks from a document up its admission chain to the
        # seed, one admission_of call per step. Over a 2,000-document c-all
        # chain, a scan of the admissions list per call visits ~2 million
        # admissions; lookups by document visit none.
        n = 2_000
        bodies = {
            doc_iri(i): "<%s> <https://p.ex/q> <%s>." % (entity_iri(i), entity_iri(i + 1))
            for i in range(n)
        }
        _, trace = unguided(web_source(bodies), ANY_QUERY, C_ALL,
                            seeds=(doc_iri(0),), max_documents=n + 1)
        visited = 0

        class CountingList(list):
            def __iter__(self):
                nonlocal visited
                for admission in super().__iter__():
                    visited += 1
                    yield admission

        trace.admissions = CountingList(trace.admissions)
        current, steps = trace.admission_of(doc_iri(n - 1)), 0
        while current.reason != "seed":
            current, steps = trace.admission_of(current.from_doc), steps + 1
        assert (current.doc_iri, steps) == (doc_iri(0), n - 1)
        assert visited <= n

    def test_empty_reference_does_not_abort_traversal(self):
        bodies = {
            "https://a.ex/": "<> <https://p.ex/q> <https://b.ex/>.",
            "https://b.ex/": "<> a <https://v.ex/Doc>.",
        }
        pool, trace = unguided(
            web_source(bodies), ANY_QUERY, C_ALL, seeds=("https://a.ex/",)
        )
        assert trace.ledger.ok_documents == set(bodies)
        assert {t.subject.value for t, _ in pool.entries} == set(bodies)

    def test_query_before_fragment_is_kept(self):
        # https://b.ex/doc?#me lives in https://b.ex/doc?, not https://b.ex/doc.
        bodies = {
            "https://a.ex/": "<https://a.ex/#me> <https://p.ex/knows> <https://b.ex/doc?#me>.",
            "https://b.ex/doc?": '<https://b.ex/doc?#me> <https://p.ex/name> "B".',
        }
        query = parse_query(
            "SELECT ?n WHERE { <https://a.ex/#me> <https://p.ex/knows> ?f . "
            "?f <https://p.ex/name> ?n }"
        )
        pool, trace = unguided(web_source(bodies), query, C_MATCH, seeds=("https://a.ex/",))
        assert trace.ledger.ok_documents == set(bodies)
        assert [row["n"].value for row in evaluate(query, pool.graph())] == ["B"]

    def test_predicate_iris_never_followed(self):
        bodies = {
            "https://a.ex/": '<https://a.ex/#x> <https://b.ex/pred> "v".',
            "https://b.ex/": '<https://b.ex/#y> <https://p.ex/q> "w".',
        }
        _, trace = unguided(
            web_source(bodies), ANY_QUERY, C_ALL, seeds=("https://a.ex/",)
        )
        assert "https://b.ex/" not in trace.ledger.requested_documents()

    @pytest.mark.parametrize("where, first", [
        ("?a ?p ?b . ?a <https://p.ex/knows> ?b", "?a ?p ?b."),
        ("?a <https://p.ex/knows> ?b . ?a ?p ?b", "?a <https://p.ex/knows> ?b."),
        ("?a <https://p.ex/name> ?b . ?a ?p ?b . ?a <https://p.ex/knows> ?b", "?a ?p ?b."),
    ])
    def test_admission_names_first_matching_pattern_in_query_order(self, where, first):
        # A triple matching a bound-predicate and a variable-predicate
        # pattern is admitted through whichever comes first in the query.
        bodies = {
            "https://a.ex/": "<https://a.ex/#me> <https://p.ex/knows> <https://b.ex/#me>.",
            "https://b.ex/": '<https://b.ex/#me> <https://p.ex/name> "B".',
        }
        query = parse_query("SELECT ?a WHERE { %s }" % where)
        _, trace = unguided(web_source(bodies), query, C_MATCH, seeds=("https://a.ex/",))
        assert trace.admission_of("https://b.ex/").via_pattern.n3() == first


class TestGuided:
    def test_demo_guided_fetches_exactly_four(
        self, demo_source, demo_query_obj, demo_registry, uma_policy
    ):
        _, trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, demo_source
        )
        assert trace.ledger.ok_documents == {
            "https://uma.ex/",
            "https://ann.ex/",
            "https://bob.ex/",
            "https://ann.ex/about/",
        }

    def test_encyclopedia_document_never_requested(
        self, demo_source, demo_query_obj, demo_registry, uma_policy
    ):
        _, trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, demo_source
        )
        assert (
            "http://dbpedia.org/resource/Mickey_Mouse"
            not in trace.ledger.requested_documents()
        )

    def test_deny_all_policy_stops_at_seeds(self, demo_source, demo_query_obj):
        policy = parse_policy('{"default": "deny", "rules": []}')
        pool, trace = traverse_guided(
            [SEED], PERMISSIVE_REGISTRY, policy, demo_query_obj, demo_source
        )
        assert evaluate(demo_query_obj, pool.graph()) == []
        assert trace.ledger.ok_documents == {"https://uma.ex/"}

    def test_permissive_guidance_equals_c_all_pool(self, demo_query_obj):
        source_a = web_source_from_demo()
        pool_guided, _ = traverse_guided(
            [SEED], PERMISSIVE_REGISTRY, PERMISSIVE_POLICY, demo_query_obj, source_a
        )
        source_b = web_source_from_demo()
        pool_all, _ = unguided(source_b, demo_query_obj, C_ALL)
        assert pool_guided.graph() == pool_all.graph()

    def test_guided_subset_of_c_all(self, demo_query_obj, demo_registry, uma_policy):
        _, guided_trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, web_source_from_demo()
        )
        _, all_trace = unguided(web_source_from_demo(), demo_query_obj, C_ALL)
        assert guided_trace.ledger.ok_documents <= all_trace.ledger.ok_documents

    def test_pool_triples_are_relevant_and_from_admitted_docs(
        self, demo_source, demo_query_obj, demo_registry, uma_policy
    ):
        pool, trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, demo_source
        )
        admitted = set(trace.admitted_documents())
        for triple, src in pool.entries:
            assert src in admitted
            assert triple in trace.documents[src].triples
            assert triple_relevant(uma_policy, triple, src)

    def test_trace_replay_of_link_admissions(
        self, demo_source, demo_query_obj, demo_registry, uma_policy
    ):
        from linkquery.guidance import get_linking_structure, lambda_allows

        _, trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, demo_source
        )
        patterns = triple_patterns(demo_query_obj)
        for adm in trace.admissions:
            if adm.reason != "link":
                continue
            from_doc = trace.documents[adm.from_doc]
            structure = get_linking_structure(demo_registry, adm.from_doc)
            assert any(
                lambda_allows(structure, from_doc, adm.doc_iri, tp) for tp in patterns
            )

    def test_results_restricted_to_trusted_rows(
        self, demo_source, demo_query_obj, demo_registry, uma_policy
    ):
        pool, _ = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, demo_source
        )
        solutions = evaluate(demo_query_obj, pool.graph())
        names = {row["name"].value for row in solutions}
        assert names == {"Ann", "Bob"}

    def test_ann_subtree_counts(self, demo_query_obj, demo_registry, uma_policy):
        _, match_trace = unguided(web_source_from_demo(), demo_query_obj, C_MATCH)
        assert match_trace.fetched_per_subtree()["https://ann.ex/"] == 4
        _, guided_trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, web_source_from_demo()
        )
        assert guided_trace.fetched_per_subtree()["https://ann.ex/"] == 2
        _, none_trace = unguided(web_source_from_demo(), demo_query_obj, C_NONE)
        assert none_trace.fetched_per_subtree().get("https://ann.ex/", 0) == 0


class TestRandomWebs:
    def test_permissive_guided_matches_closure_oracle(self):
        rng = random.Random(97)
        for _ in range(30):
            bodies = random_web(rng)
            seeds = [doc_iri(0)]
            query = random_bgp_query(rng, len(bodies))
            pool, trace = traverse_guided(
                seeds, PERMISSIVE_REGISTRY, PERMISSIVE_POLICY, query,
                web_source(bodies), max_documents=1000,
            )
            expected_docs = closure_c_all(bodies, seeds)
            assert trace.ledger.ok_documents == expected_docs
            assert pool.graph() == union_graph(bodies, expected_docs)

    def test_c_match_matches_closure_oracle(self):
        rng = random.Random(211)
        for _ in range(120):
            bodies = random_web(rng)
            seeds = [doc_iri(0)]
            query = random_bgp_query(rng, len(bodies))
            pool, trace = unguided(
                web_source(bodies), query, C_MATCH, seeds=seeds, max_documents=1000
            )
            expected_docs = closure_c_match(bodies, seeds, query)
            assert trace.ledger.ok_documents == expected_docs
            assert pool.graph() == union_graph(bodies, expected_docs)

    def test_guided_matches_closure_oracle(self):
        # Restrictive registries and random policies with exclusive rules; the
        # fetched documents, the pool and the pruned documents that stay
        # unfetched must match. The counts check that the webs reach past the
        # seed, prune links and let exclusive rules drop relevant triples
        # often enough to matter.
        rng = random.Random(53)
        reached, pruned, overridden = 0, 0, 0
        for _ in range(150):
            bodies = random_web(rng)
            seeds = [doc_iri(0)]
            query = random_bgp_query(rng, len(bodies))
            registry = parse_structure_registry(
                random_registry_json(rng, len(bodies), default=RESTRICTIVE))
            policy = parse_policy(random_policy_json(
                rng, len(bodies), default="allow" if rng.random() < 0.5 else None))
            pool, trace = traverse_guided(
                seeds, registry, policy, query, web_source(bodies), max_documents=1000,
            )
            expected_docs, expected_pruned, expected_pool = closure_guided(
                bodies, seeds, registry, policy, query)
            assert trace.ledger.ok_documents == expected_docs
            assert pool.entries == expected_pool
            assert {a.doc_iri for a in trace.admissions if a.reason == "pruned"} \
                - set(trace.admitted_documents()) == expected_pruned
            reached += len(expected_docs) > 1
            pruned += any(a.reason == "pruned" for a in trace.admissions)
            overridden += any(
                triple_relevant(policy, t, d.doc_iri) and (t, d.doc_iri) not in pool.entries
                for d in trace.documents.values() for t in d.triples
            )
        assert reached >= 25 and pruned >= 50 and overridden >= 3

    def test_only_http_and_https_iris_reach_the_source(self):
        # Documents also link mailto: and urn: IRIs. Under c-all, c-match and
        # guided traversal the source is asked for every admitted https IRI
        # and for nothing else, and each admitted mailto: or urn: IRI is in
        # the ledger as not-found.
        class RecordingSource:
            def __init__(self, inner):
                self.inner = inner
                self.calls = []

            def fetch(self, doc_iri):
                self.calls.append(doc_iri)  # list.append is atomic across pool threads
                return self.inner.fetch(doc_iri)

        rng = random.Random(613)
        unrequested = 0
        for _ in range(100):
            bodies = link_unrequested(rng, random_web(rng))
            seeds = [doc_iri(0)]
            query = random_bgp_query(rng, len(bodies))
            registry = parse_structure_registry(random_registry_json(rng, len(bodies)))
            policy = parse_policy(random_policy_json(rng, len(bodies)))
            for semantics in (C_ALL, C_MATCH, "guided"):
                source = RecordingSource(web_source(bodies))
                if semantics == "guided":
                    _, trace = traverse_guided(seeds, registry, policy, query, source,
                                               max_documents=1000)
                else:
                    _, trace = unguided(source, query, semantics, seeds=seeds,
                                        max_documents=1000)
                outcomes = {e.iri: e.outcome for e in trace.ledger.entries}
                assert all(iri.startswith("https://") for iri in source.calls)
                assert sorted(source.calls) == sorted(
                    iri for iri in outcomes if iri.startswith("https://"))
                for iri in trace.admitted_documents():
                    if not iri.startswith("https://"):
                        assert outcomes[iri] == NOT_FOUND
                        unrequested += 1
        assert unrequested >= 1000

    def test_redirected_documents_keep_admission_chains(self):
        # Every document answers from a final IRI of its own, as after a
        # redirect, and names only absolute IRIs. A referring document is
        # named by the IRI it was admitted under, so c-all and c-match admit
        # exactly as without redirects, and every guided admission and
        # pruned link starts from an admitted document.
        class MovedSource:
            def __init__(self, bodies):
                self.inner = web_source(bodies)

            def fetch(self, iri):
                result = self.inner.fetch(iri)
                if result.outcome != OK:
                    return result
                return FetchResult(OK, result.body, iri.replace("https://", "https://www."))

        rng = random.Random(389)
        pruned = 0
        for _ in range(60):
            bodies = random_web(rng)
            seeds = [doc_iri(0)]
            query = random_bgp_query(rng, len(bodies))
            for semantics in (C_ALL, C_MATCH):
                _, plain = unguided(web_source(bodies), query, semantics, seeds=seeds,
                                    max_documents=1000)
                _, moved = unguided(MovedSource(bodies), query, semantics, seeds=seeds,
                                    max_documents=1000)
                assert moved.admissions == plain.admissions
                assert moved.fetched_per_subtree() == plain.fetched_per_subtree()
            registry = parse_structure_registry(random_registry_json(rng, len(bodies)))
            policy = parse_policy(random_policy_json(rng, len(bodies)))
            _, trace = traverse_guided(seeds, registry, policy, query, MovedSource(bodies),
                                       max_documents=1000)
            for admission in trace.admissions:
                if admission.reason != "seed":
                    assert trace.admission_of(admission.from_doc) is not None
            assert {f for f, _, _ in trace.pruned_links} <= set(trace.admitted_documents())
            trace.fetched_per_subtree()
            pruned += bool(trace.pruned_links)
        assert pruned >= 10

    def test_order_independence_under_random_scheduling(self):
        rng = random.Random(131)
        for _ in range(10):
            bodies = random_web(rng, max_docs=10)
            query = random_bgp_query(rng, len(bodies))
            results = set()
            for run in range(4):
                pool, trace = traverse_guided(
                    [doc_iri(0)], PERMISSIVE_REGISTRY, PERMISSIVE_POLICY, query,
                    web_source(bodies), max_documents=1000,
                    rng=random.Random(run),
                )
                fingerprint = (
                    frozenset(trace.ledger.ok_documents),
                    trace.ledger.distinct_ok,
                    frozenset(row_fingerprints(evaluate(query, pool.graph()), query.projection)),
                )
                results.add(fingerprint)
            assert len(results) == 1


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_c_match_fetches_closure_and_names_first_matching_pattern(self, data):
        # Patterns may have a variable predicate and may repeat; an
        # admission's pattern is the first in query order its triple matches,
        # or none for a triple about an entity that matches no pattern.
        bodies = data.draw(webs())
        query = data.draw(bgp_queries(len(bodies)))
        seeds = [doc_iri(0)]
        _, trace = unguided(web_source(bodies), query, C_MATCH, seeds=seeds,
                            max_documents=1000)
        assert trace.ledger.ok_documents == closure_c_match(bodies, seeds, query)
        for admission in trace.admissions:
            if admission.reason == "link":
                assert admission.via_pattern == next(
                    (tp for tp in triple_patterns(query)
                     if match_triple(admission.via_triple, tp) is not None), None)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_guided_fetches_closure_and_pool(self, data):
        # Drawn registries and policies, exclusive rules among them: the
        # fetched documents, the pool and the pruned documents that stay
        # unfetched match the rescanning oracle.
        bodies = data.draw(webs())
        query = data.draw(bgp_queries(len(bodies)))
        registry = data.draw(registries(len(bodies)))
        policy = data.draw(policies(len(bodies)))
        seeds = [doc_iri(0)]
        pool, trace = traverse_guided(seeds, registry, policy, query, web_source(bodies),
                                      max_documents=1000)
        expected_docs, expected_pruned, expected_pool = closure_guided(
            bodies, seeds, registry, policy, query)
        assert trace.ledger.ok_documents == expected_docs
        assert pool.entries == expected_pool
        assert {a.doc_iri for a in trace.admissions if a.reason == "pruned"} \
            - set(trace.admitted_documents()) == expected_pruned


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_guided_records_every_link_lambda_pruned(self, data):
        # For each fetched document F and each triple t of F that links to a
        # document D never admitted, (F, t, D) is a pruned link exactly when
        # t offers D (the policy finds t relevant in F, or a rule of F's
        # linking structure follows t's predicate and D is its object's
        # document) and no query pattern's reference λ admits D from F.
        bodies = data.draw(webs())
        query = data.draw(bgp_queries(len(bodies)))
        registry = data.draw(registries(len(bodies)))
        policy = data.draw(policies(len(bodies)))
        _, trace = traverse_guided([doc_iri(0)], registry, policy, query, web_source(bodies),
                                   max_documents=1000)
        graphs = parse_web(bodies)
        admitted = set(trace.admitted_documents())
        expected = set()
        for f in trace.ledger.ok_documents:
            structure = get_linking_structure(registry, f)
            followed = set()
            if isinstance(structure, list):
                followed = {p for rule in structure if rule.follow != SELF for p in rule.follow}
            for t in graphs[f]:
                object_doc = strip_fragment(t.object.value) if t.object.kind == "iri" else None
                for d in {strip_fragment(t.subject.value), object_doc} - {None} - admitted:
                    offers = triple_relevant(policy, t, f) or (
                        t.predicate.value in followed and d == object_doc)
                    if offers and not any(
                            reference_lambda(structure, Document(f, graphs[f]), d, tp)
                            for tp in triple_patterns(query)):
                        expected.add((f, t, d))
        assert {link for link in trace.pruned_links if link[2] not in admitted} == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pool_is_each_documents_relevant_triples(self, data):
        # Under a rule-less allow or deny policy, or one with exclusive rules,
        # guided and unguided, the pool holds the triples the policy finds
        # relevant in the document they were fetched from, named by its final
        # IRI, after the exclusive rules: also when admitted IRIs redirect to
        # one final IRI, as the seeds may.
        bodies = data.draw(webs())
        query = data.draw(bgp_queries(len(bodies)))
        seeds = sorted({doc_iri(0), doc_iri(min(1, len(bodies) - 1))})
        moved = data.draw(st.sets(st.sampled_from(sorted(bodies))))

        class MergingSource:
            inner = web_source(bodies)

            def fetch(self, iri):
                result = self.inner.fetch(iri)
                if iri in moved and result.outcome == OK:
                    return FetchResult(OK, result.body, "https://merged.ex/")
                return result

        mode = data.draw(st.sampled_from([C_NONE, C_ALL, C_MATCH, "guided"]))
        if mode == "guided":
            policy = data.draw(st.one_of(
                st.sampled_from([ContentPolicy([], "allow"), ContentPolicy([], "deny")]),
                policies(len(bodies)).filter(lambda p: any(r.exclusive_key for r in p.rules))))
            pool, trace = traverse_guided(seeds, data.draw(registries(len(bodies))), policy,
                                          query, MergingSource(), max_documents=1000)
        else:
            policy = PERMISSIVE_POLICY
            pool, trace = unguided(MergingSource(), query, mode, seeds=seeds,
                                   max_documents=1000)
        expected = reference_overrides(
            {(t, d.doc_iri) for d in trace.documents.values() for t in d.triples
             if triple_relevant(policy, t, d.doc_iri)}, policy)
        provenance = {}
        for t, src in expected:
            provenance.setdefault(t, set()).add(src)
        assert pool.entries == expected
        assert pool.provenance() == provenance
        assert pool.graph() == Graph(t for t, _ in expected)


# Terms for the compiled c-match check: IRIs that may stand in any position,
# so a repeated variable can bind a subject and a predicate alike, and
# literals, one with the same value as an IRI.
MATCH_IRIS = [rdf.Term.iri(v) for v in ("https://a.ex/#s", "https://v.ex/p", "https://v.ex/q")]
MATCH_LITERALS = [rdf.Term.literal("a"), rdf.Term.literal("https://v.ex/p")]
MATCH_VARIABLES = [rdf.Term.var(v) for v in ("x", "y", "p")]
match_triples = st.builds(
    rdf.Triple, st.sampled_from(MATCH_IRIS), st.sampled_from(MATCH_IRIS),
    st.sampled_from(MATCH_IRIS + MATCH_LITERALS))
match_patterns = st.builds(
    rdf.TriplePattern, *[st.sampled_from(MATCH_VARIABLES + MATCH_IRIS + MATCH_LITERALS)] * 3)


def first_match(triple, patterns):
    """The first pattern in query order that match_triple binds, or None."""
    return next((tp for tp in patterns if match_triple(triple, tp) is not None), None)


def compiled_first_match(triple, patterns):
    """The pattern c-match admits a triple through, by its compiled checks."""
    by_predicate, unbound = traversal._compile_patterns(patterns)
    return traversal._matching_pattern(triple, by_predicate.get(triple.predicate.value, unbound))


class TestCompiledMatch:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(match_patterns, min_size=1, max_size=5), st.lists(match_triples, max_size=12))
    def test_compiled_checks_pick_the_first_matching_pattern(self, patterns, triples):
        # Constants in every position, literals included, variable
        # predicates and variables repeated across any two positions.
        for triple in triples:
            assert compiled_first_match(triple, patterns) is first_match(triple, patterns)

    @pytest.mark.parametrize("pattern, matching, other", [
        ("?x <https://v.ex/p> ?x", "<https://a.ex/#s> <https://v.ex/p> <https://a.ex/#s>",
         "<https://a.ex/#s> <https://v.ex/p> <https://v.ex/q>"),
        ("?p ?p ?o", '<https://v.ex/p> <https://v.ex/p> "a"',
         '<https://a.ex/#s> <https://v.ex/p> "a"'),
        ("?x ?p ?p", "<https://a.ex/#s> <https://v.ex/q> <https://v.ex/q>",
         "<https://a.ex/#s> <https://v.ex/q> <https://v.ex/p>"),
        ("?x ?x ?x", "<https://v.ex/p> <https://v.ex/p> <https://v.ex/p>",
         "<https://v.ex/p> <https://v.ex/p> <https://v.ex/q>"),
        ('<https://a.ex/#s> ?p "a"', '<https://a.ex/#s> <https://v.ex/q> "a"',
         '<https://a.ex/#s> <https://v.ex/q> "https://v.ex/p"'),
        ("?s <https://v.ex/p> <https://v.ex/q>", "<https://v.ex/q> <https://v.ex/p> <https://v.ex/q>",
         '<https://v.ex/q> <https://v.ex/p> "https://v.ex/q"'),
    ])
    def test_repeated_variables_and_constants(self, pattern, matching, other):
        variable = pattern[pattern.index("?"):].split()[0]
        [tp] = triple_patterns(parse_query("SELECT %s WHERE { %s }" % (variable, pattern)))
        [hit] = parse_turtle(matching + " .", "https://a.ex/")
        [miss] = parse_turtle(other + " .", "https://a.ex/")
        assert compiled_first_match(hit, [tp]) is tp
        assert compiled_first_match(miss, [tp]) is None

    def test_a_literal_predicate_matches_nothing(self):
        tp = rdf.TriplePattern(rdf.Term.var("s"), MATCH_LITERALS[1], rdf.Term.var("o"))
        triple = rdf.Triple(MATCH_IRIS[0], MATCH_IRIS[1], MATCH_LITERALS[0])
        assert traversal._compile_patterns([tp]) == ({}, [])
        assert compiled_first_match(triple, [tp]) is first_match(triple, [tp]) is None


class TestSubtreeReport:
    def test_demo_subtrees(self, demo_query_obj, demo_registry, uma_policy):
        _, match_trace = unguided(web_source_from_demo(), demo_query_obj, C_MATCH)
        _, guided_trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, web_source_from_demo()
        )
        # https://uma.ex/bob.jpg is a root too, but its request is not found.
        assert match_trace.fetched_per_subtree() == {
            "https://ann.ex/": 4, "https://bob.ex/": 2, "https://uma.ex/bob.jpg": 0,
        }
        assert guided_trace.fetched_per_subtree() == {"https://ann.ex/": 2, "https://bob.ex/": 1}

    def test_subtrees_partition_fetched_documents(self):
        # Every document fetched ok, other than a seed, lies in exactly one
        # root's subtree, and every root is linked from a seed.
        rng = random.Random(409)
        branching = 0
        for _ in range(100):
            bodies = random_web(rng)
            seeds = rng.sample(sorted(bodies), min(len(bodies), rng.randint(1, 2)))
            query = random_bgp_query(rng, len(bodies))
            registry = parse_structure_registry(random_registry_json(rng, len(bodies)))
            policy = parse_policy(random_policy_json(rng, len(bodies)))
            runs = [unguided(web_source(bodies), query, semantics, seeds=seeds,
                             max_documents=1000)[1] for semantics in (C_ALL, C_MATCH)]
            runs.append(traverse_guided(seeds, registry, policy, query, web_source(bodies),
                                        max_documents=1000)[1])
            for trace in runs:
                counts = trace.fetched_per_subtree()
                seeds_ok = trace.ledger.ok_documents & {strip_fragment(s) for s in seeds}
                assert sum(counts.values()) == trace.ledger.distinct_ok - len(seeds_ok)
                for root in counts:
                    assert trace.admission_of(trace.admission_of(root).from_doc).reason == "seed"
                branching += len(counts) > 1
        assert branching >= 50


class TestGuidedWork:
    def test_policy_judges_each_triple_once(self, monkeypatch, demo_query_obj,
                                            demo_registry, uma_policy):
        # The candidate scan and the pool share one verdict per (triple,
        # source document); apply_overrides does not go through this name.
        calls = []
        original = traversal.triple_relevant

        def counting(policy, triple, source_doc_iri):
            calls.append((triple, source_doc_iri))
            return original(policy, triple, source_doc_iri)

        monkeypatch.setattr(traversal, "triple_relevant", counting)
        _, trace = traverse_guided(
            [SEED], demo_registry, uma_policy, demo_query_obj, web_source_from_demo()
        )
        pairs = {(t, d.doc_iri) for d in trace.documents.values() for t in d.triples}
        assert len(calls) == len(pairs) == len(set(calls))

    @pytest.mark.parametrize("mode", [C_NONE, C_ALL, C_MATCH, "guided"])
    def test_each_document_sorted_once(self, monkeypatch, mode, demo_query_obj,
                                       demo_registry, uma_policy):
        # The policy pass and link discovery both read the document's sorted
        # triples, sorted once. c-none follows no link, and under the
        # permissive policy, which has no rules, judges no triple: it sorts
        # nothing.
        calls = 0
        original = rdf.Graph.__iter__

        def counting(graph):
            nonlocal calls
            calls += 1
            return original(graph)

        monkeypatch.setattr(rdf.Graph, "__iter__", counting)
        if mode == "guided":
            _, trace = traverse_guided(
                [SEED], demo_registry, uma_policy, demo_query_obj, web_source_from_demo()
            )
        else:
            _, trace = unguided(web_source_from_demo(), demo_query_obj, mode)
        if mode == C_NONE:
            assert calls == 0
        else:
            assert 0 < calls <= len(trace.documents)

    def test_hub_link_discovery_reads_bounded(self, monkeypatch):
        # A hub document knows 400 people, each in their own document. Each
        # document's sorted triples are read at most twice (the policy pass,
        # which a policy without rules skips, and the hyperlink table's
        # build) and its hyperlink table twice (candidate links and the
        # link-predicate table λ reads), so the rows read are at most four
        # per triple: 3,200. Rescanning the hub for each of its 400
        # candidates would read 160,000.
        people = 400
        knows, name = "https://p.ex/knows", "https://p.ex/name"
        bodies = {"https://hub.ex/": "".join(
            "<https://hub.ex/#me> <%s> <https://p%d.ex/#me>.\n" % (knows, i)
            for i in range(people))}
        for i in range(people):
            bodies["https://p%d.ex/" % i] = '<https://p%d.ex/#me> <%s> "P%d".' % (i, name, i)
        query = parse_query(
            "SELECT ?f ?n WHERE { <https://hub.ex/#me> <%s> ?f . ?f <%s> ?n }" % (knows, name))
        registries = [
            PERMISSIVE_REGISTRY,
            parse_structure_registry(json.dumps({"default": "restrictive", "rules": [
                {"scope": "https://", "patternPredicates": "*", "follow": [knows]}]})),
        ]
        reads = 0

        class Rows(list):
            def __iter__(self):
                nonlocal reads
                for row in list.__iter__(self):
                    reads += 1
                    yield row

        for table in ("sorted_triples", "hyperlinks"):
            cached = Document.__dict__[table]
            monkeypatch.setattr(Document, table, property(
                lambda doc, cached=cached: Rows(cached.__get__(doc, Document))))
        for registry in registries:
            source = web_source(bodies)
            reads = 0
            pool, trace = traverse_guided(
                ["https://hub.ex/"], registry, PERMISSIVE_POLICY, query, source,
                max_documents=1000,
            )
            triples = sum(len(d.triples) for d in trace.documents.values())
            assert trace.ledger.distinct_ok == people + 1
            assert len(evaluate(query, pool.graph())) == people
            assert 0 < reads <= 4 * triples

    @pytest.mark.parametrize("mode", [C_ALL, C_MATCH])
    def test_permissive_policy_judges_no_triple(self, monkeypatch, mode, demo_query_obj):
        # A policy without rules decides each document whole, by its default,
        # so every fetched triple is in the pool without a verdict of its own.
        calls = []
        original = traversal.triple_relevant

        def counting(policy, triple, source_doc_iri):
            calls.append((triple, source_doc_iri))
            return original(policy, triple, source_doc_iri)

        monkeypatch.setattr(traversal, "triple_relevant", counting)
        pool, trace = unguided(web_source_from_demo(), demo_query_obj, mode)
        assert calls == []
        entries = {(t, d.doc_iri) for d in trace.documents.values() for t in d.triples}
        assert pool.entries == entries
        # The pool shares no set with a document: adding to one changes no pool entry.
        for d in trace.documents.values():
            d.triples.add(A_TRIPLE)
        assert pool.entries == entries

    @pytest.mark.parametrize("mode", [C_ALL, C_MATCH])
    def test_pool_graph_hashes_no_triple(self, monkeypatch, mode, demo_query_obj):
        # The union graph is merged from the per-document sets with the
        # hashes they store.
        pool, _ = unguided(web_source_from_demo(), demo_query_obj, mode)
        expected = Graph(t for t, _ in pool.entries)
        calls = 0
        original = rdf.Triple.__hash__

        def counting(triple):
            nonlocal calls
            calls += 1
            return original(triple)

        monkeypatch.setattr(rdf.Triple, "__hash__", counting)
        graph = pool.graph()
        monkeypatch.undo()
        assert calls == 0
        assert len(graph) > 0 and graph == expected

    @pytest.mark.parametrize("mode", [C_ALL, C_MATCH])
    def test_documents_without_triples_are_not_read(self, mode, demo_query_obj):
        # A failed fetch, such as that of a mailto: IRI, gives a document
        # without triples: it links nowhere and adds nothing to the pool, so
        # neither the policy nor the link strategy reads it.
        pool, trace = unguided(web_source_from_demo(), demo_query_obj, mode)
        empty = [d for d in trace.documents.values() if not d.triples]
        assert empty
        assert not any({"sorted_triples", "hyperlinks"} & d.__dict__.keys() for d in empty)
        assert not {d.doc_iri for d in empty} & pool.sources.keys()

    def test_c_none_builds_no_hyperlink_table(self, demo_query_obj):
        _, trace = unguided(web_source_from_demo(), demo_query_obj, C_NONE)
        assert trace.documents
        assert not any("hyperlinks" in d.__dict__ for d in trace.documents.values())

    def test_c_match_offers_each_triple_the_patterns_of_its_predicate(self, monkeypatch):
        # The compiled patterns a triple is checked against are those naming
        # its predicate and the variable-predicate ones, in query order; a
        # triple whose predicate no pattern names gets only the latter.
        bodies = {
            "https://a.ex/": "<https://a.ex/#me> <https://p.ex/knows> <https://b.ex/#me> ;\n"
                             '  <https://p.ex/name> "A" ; <https://noise.ex/n> "1".',
            "https://b.ex/": '<https://b.ex/#me> <https://p.ex/name> "B" ; '
                             '<https://noise.ex/n> "marker".',
        }
        query = parse_query('SELECT ?b WHERE { ?a <https://p.ex/knows> ?b . ?b ?p "marker" . '
                            "?b <https://p.ex/name> ?n . ?a <https://p.ex/knows> ?a }")
        patterns = triple_patterns(query)
        offered = []
        original = traversal._matching_pattern

        def recording(triple, candidates):
            offered.append((triple, [tp for tp, _ in candidates]))
            return original(triple, candidates)

        monkeypatch.setattr(traversal, "_matching_pattern", recording)
        _, trace = unguided(web_source(bodies), query, C_MATCH, seeds=["https://a.ex/"])
        assert trace.ledger.distinct_ok == 2
        assert len(offered) == sum(len(d.triples) for d in trace.documents.values()) == 5
        for triple, candidates in offered:
            assert candidates == [tp for tp in patterns if tp.predicate.is_variable
                                  or tp.predicate == triple.predicate]

    def test_c_match_checks_triples_against_patterns_with_their_predicate(self, monkeypatch):
        # The scale case of the test above: over a chain of 30 people with 40
        # noise triples each, the compiled patterns offered number at most
        # the patterns naming each triple's predicate plus the
        # variable-predicate ones, each triple offered in one wave only.
        # Offering every pattern makes about three times the bound, and
        # offering every fetched triple each wave about fifteen.
        people, noise = 30, 40
        knows, name = "https://p.ex/knows", "https://p.ex/name"
        bodies = {}
        for i in range(people):
            me = "https://p%d.ex/#me" % i
            lines = ['<%s> <%s> "P%d".' % (me, name, i)]
            if i + 1 < people:
                lines.append("<%s> <%s> <https://p%d.ex/#me>." % (me, knows, i + 1))
            lines += ['<%s> <https://noise.ex/n%d> "%d".' % (me, j, j) for j in range(noise)]
            bodies["https://p%d.ex/" % i] = "\n".join(lines)
        query = parse_query('SELECT ?b WHERE { ?a <%s> ?b . ?b <%s> ?n . ?b ?p "marker" }'
                            % (knows, name))
        patterns = triple_patterns(query)
        offered = 0
        original = traversal._matching_pattern

        def counting(triple, candidates):
            nonlocal offered
            offered += len(candidates)
            return original(triple, candidates)

        monkeypatch.setattr(traversal, "_matching_pattern", counting)
        _, trace = unguided(web_source(bodies), query, C_MATCH, seeds=["https://p0.ex/"])
        triples = [t for d in trace.documents.values() for t in d.triples]
        named = [t for t in triples if t.predicate in {tp.predicate for tp in patterns}]
        unbound = [tp for tp in patterns if tp.predicate.is_variable]
        assert trace.ledger.distinct_ok == people
        assert 0 < offered <= len(named) * len(patterns) + len(triples) * len(unbound)

    def test_hyperlink_table_reads_each_terms_document(self):
        # The documents a triple links to are the ones its terms cut when
        # they were built, not cut again per triple.
        bodies = {"https://a.ex/": "<#me> <https://p.ex/knows> <b#me>, <https://c.ex/d>, "
                                   '"x#y" .\n<b#me> <https://p.ex/knows> <#me> .'}
        _, trace = unguided(web_source(bodies), ANY_QUERY, C_NONE, seeds=["https://a.ex/"])
        doc = trace.documents["https://a.ex/"]
        assert [targets for _, targets in doc.hyperlinks] == [
            ("https://a.ex/", "https://a.ex/b"), ("https://a.ex/", "https://c.ex/d"),
            ("https://a.ex/",), ("https://a.ex/b", "https://a.ex/")]
        for t, targets in doc.hyperlinks:
            assert targets[0] is t.subject.document
            assert targets[1:] == ((t.object.document,) if t.object.kind == rdf.IRI else ())
            if t.object.kind == rdf.IRI:
                assert targets[1] is t.object.document

    def test_each_iri_term_built_once_per_traversal(self, monkeypatch):
        # Every document names the same 40 predicates and its neighbours:
        # each IRI becomes one Term, shared by the documents that name it,
        # and a Term is built once per distinct IRI and once per literal.
        people, shared = 20, 40
        bodies = {}
        for i in range(people):
            me = "https://p%d.ex/#me" % i
            lines = ['<%s> <https://v.ex/p%d> "%d-%d".' % (me, j, i, j) for j in range(shared)]
            lines += ["<%s> <https://v.ex/knows> <https://p%d.ex/#me>." % (me, (i + k) % people)
                      for k in (1, 2)]
            bodies["https://p%d.ex/" % i] = "\n".join(lines)
        calls = 0
        original = rdf.Term.__init__

        def counting(term, *args, **kwargs):
            nonlocal calls
            calls += 1
            return original(term, *args, **kwargs)

        monkeypatch.setattr(rdf.Term, "__init__", counting)
        _, trace = unguided(web_source(bodies), ANY_QUERY, C_ALL, seeds=["https://p0.ex/"])
        monkeypatch.undo()
        terms = {}
        literals = 0
        for doc in trace.documents.values():
            for t in doc.triples:
                for term in (t.subject, t.predicate, t.object):
                    if term.kind == rdf.IRI:
                        terms.setdefault(term.value, set()).add(id(term))
                    else:
                        literals += 1
        assert trace.ledger.distinct_ok == people
        assert all(len(ids) == 1 for ids in terms.values())
        assert calls <= len(terms) + literals

    def test_invalid_iri_is_a_parse_error_that_spoils_no_later_document(self):
        # The term of <http://[x> (a malformed IPv6 host) cannot be built, so
        # both documents holding it are parse errors. Each first builds the
        # terms of c.ex's triple, and c.ex, fetched after them, parses as on
        # its own.
        seed = "https://a.ex/"
        bad = "<https://c.ex/#it> <https://p.ex/q> <https://a.ex/#me>, <http://[x>."
        bodies = {
            seed: "<https://a.ex/#me> <https://p.ex/q> <https://x1.ex/#it>, <https://x2.ex/#it>, "
                  "<https://b.ex/#it>.",
            "https://x1.ex/": bad,
            "https://x2.ex/": bad,
            "https://b.ex/": "<https://b.ex/#it> <https://p.ex/q> <https://c.ex/#it>.",
            "https://c.ex/": "<https://c.ex/#it> <https://p.ex/q> <https://a.ex/#me>.",
        }
        _, trace = unguided(web_source(bodies), ANY_QUERY, C_ALL, seeds=[seed])
        outcomes = {e.iri: e.outcome for e in trace.ledger.entries}
        assert outcomes == {seed: OK, "https://x1.ex/": PARSE_ERROR,
                            "https://x2.ex/": PARSE_ERROR, "https://b.ex/": OK,
                            "https://c.ex/": OK}
        assert trace.documents["https://c.ex/"].triples == parse_turtle(
            bodies["https://c.ex/"], "https://c.ex/")


HUB = "https://hub.ex/"


def chains_web(width, depth):
    """A hub linking to `width` chains of `depth` documents each.

    Under c-all the waves are the hub, then `width` documents per level.
    """
    bodies = {HUB: "".join("<https://hub.ex/#me> <https://p.ex/q> <https://c%d.ex/0#x>.\n" % i
                           for i in range(width))}
    for i in range(width):
        for level in range(depth):
            here = "https://c%d.ex/%d" % (i, level)
            if level + 1 < depth:
                body = "<%s#x> <https://p.ex/q> <https://c%d.ex/%d#x>." % (here, i, level + 1)
            else:
                body = '<%s#x> <https://p.ex/name> "leaf".' % here
            bodies[here] = body
    return web_source(bodies)


class ThreadRecordingSource:
    """Delegates to a source, noting the thread of each fetch; raises for one IRI.

    Each fetch first sleeps 10 ms, so a wave's requests overlap and a pool
    starts a thread per request up to its width.
    """

    def __init__(self, inner, fail_on=None):
        self.inner = inner
        self.fail_on = fail_on
        self.threads = set()
        self._lock = threading.Lock()

    def fetch(self, doc_iri):
        with self._lock:
            self.threads.add(threading.current_thread())
        time.sleep(0.01)
        if doc_iri == self.fail_on:
            raise RuntimeError("source failed on %s" % doc_iri)
        return self.inner.fetch(doc_iri)


class TestFetchPool:
    def test_wave_requests_overlap(self):
        # The hub's request sleeps 10 ms, so the traversal has seen a request
        # wait and helpers join the next wave. The hub's 8 linked documents
        # are answered only once all 8 requests are in flight at the same time.
        inner = chains_web(8, 1)
        barrier = threading.Barrier(8, timeout=2)

        class BarrierSource:
            def fetch(self, doc_iri):
                if doc_iri == HUB:
                    time.sleep(0.01)
                else:
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        return FetchResult(NOT_FOUND)
                return inner.fetch(doc_iri)

        _, trace = unguided(BarrierSource(), ANY_QUERY, C_ALL, seeds=(HUB,))
        linked = [e.outcome for e in trace.ledger.entries if e.iri != HUB]
        assert linked == ["ok"] * 8

    def test_no_thread_outlives_traversal(self):
        # Waves of 1, 8, 8 and 8 documents: one pool of at most MAX_IN_FLIGHT
        # threads fetches them all (a pool of 4 per wave starts 12), and it is
        # shut down when the traversal returns or raises.
        before = set(threading.enumerate())
        source = ThreadRecordingSource(chains_web(8, 3))
        _, trace = unguided(source, ANY_QUERY, C_ALL, seeds=(HUB,))
        assert trace.ledger.distinct_ok == 25
        assert set(threading.enumerate()) <= before
        pool_threads = source.threads - {threading.current_thread()}
        assert len(pool_threads) <= MAX_IN_FLIGHT
        assert not any(t.is_alive() for t in pool_threads)

        with pytest.raises(CappedTraversalError):
            unguided(ThreadRecordingSource(chains_web(8, 3)), ANY_QUERY, C_ALL,
                     seeds=(HUB,), max_documents=12)
        assert set(threading.enumerate()) <= before

        failing = ThreadRecordingSource(chains_web(8, 3), fail_on="https://c3.ex/1")
        with pytest.raises(RuntimeError):
            unguided(failing, ANY_QUERY, C_ALL, seeds=(HUB,))
        assert set(threading.enumerate()) <= before

    def test_in_flight_requests_reach_and_never_pass_the_cap(self):
        # One wave of 25 documents. Each request waits until MAX_IN_FLIGHT
        # are in flight (until 2 s pass once), then sleeps 10 ms, so a thread
        # beyond the cap would be counted while the first ones still sleep.
        inner = chains_web(25, 1)
        lock = threading.Condition()
        in_flight, peak, timed_out = 0, 0, False

        class GatedSource:
            def fetch(self, doc_iri):
                nonlocal in_flight, peak, timed_out
                with lock:
                    in_flight += 1
                    peak = max(peak, in_flight)
                    lock.notify_all()
                    if not lock.wait_for(lambda: peak >= MAX_IN_FLIGHT or timed_out, timeout=2):
                        timed_out = True
                        lock.notify_all()
                time.sleep(0.01)
                with lock:
                    in_flight -= 1
                return inner.fetch(doc_iri)

        _, trace = unguided(GatedSource(), ANY_QUERY, C_ALL, seeds=(HUB,))
        assert trace.ledger.distinct_ok == 26
        assert peak == MAX_IN_FLIGHT

    def test_calling_thread_makes_requests_of_every_wave(self):
        # Waves of 1, 8, 8 and 8 documents over a source that sleeps 10 ms:
        # helpers join, and the traversal thread still makes a request of each.
        source = ThreadRecordingSource(chains_web(8, 3))
        calls = []
        fetch = source.fetch

        def recording_fetch(doc_iri):
            calls.append((doc_iri, threading.current_thread()))  # atomic across threads
            return fetch(doc_iri)

        source.fetch = recording_fetch
        _, trace = unguided(source, ANY_QUERY, C_ALL, seeds=(HUB,))
        assert trace.ledger.distinct_ok == 25
        for level in range(3):
            wave = {"https://c%d.ex/%d" % (i, level) for i in range(8)}
            assert any(iri in wave and thread is threading.current_thread()
                       for iri, thread in calls)

    def test_a_helper_failure_raises_out_of_the_traversal(self):
        # The hub's request sleeps 10 ms, so helpers join the 8-document wave.
        # The calling thread's request of that wave waits until a helper has
        # made one, and a helper's request raises.
        before = set(threading.enumerate())
        caller = threading.current_thread()
        inner = chains_web(8, 1)
        helped = threading.Event()
        caller_waits = []  # whether each of the caller's waits saw a helper's request

        class HelperFailingSource:
            def fetch(self, doc_iri):
                if doc_iri == HUB:
                    time.sleep(0.01)
                    return inner.fetch(doc_iri)
                if threading.current_thread() is caller:
                    caller_waits.append(helped.wait(timeout=2))
                    return inner.fetch(doc_iri)
                helped.set()
                raise RuntimeError("helper failed on %s" % doc_iri)

        with pytest.raises(RuntimeError, match="helper failed"):
            unguided(HelperFailingSource(), ANY_QUERY, C_ALL, seeds=(HUB,))
        assert caller_waits and all(caller_waits)
        assert set(threading.enumerate()) <= before

    def test_a_source_that_never_waits_starts_no_thread(self, monkeypatch, demo_query_obj,
                                                         demo_registry, uma_policy):
        # The demo web answers from memory, in waves of 1, 3, 5 and 1
        # requests under c-all and c-match and of 1, 2 and 1 under guided. No
        # request waits, so the calling thread makes every one and no thread
        # starts, during the run or after it. The traces and pools equal those
        # of the same web served by a source that sleeps 1 ms per request,
        # whose waves helpers overlap. The operating system may take the CPU
        # from the thread mid-request, which counts as a wait (about once in
        # 300 runs on a busy 2-CPU VM); the runs from memory read the thread's
        # CPU clock as their wall clock, so that no request waits.
        caller = threading.current_thread()

        class RecordingSource:
            def __init__(self, delay):
                self.inner = web_source_from_demo()
                self.delay = delay
                self.calls = []

            def fetch(self, doc_iri):
                self.calls.append((doc_iri, threading.current_thread(),
                                   set(threading.enumerate())))
                if self.delay:
                    time.sleep(self.delay)
                return self.inner.fetch(doc_iri)

        def run(semantics, source):
            if semantics == "guided":
                return traverse_guided([SEED], demo_registry, uma_policy, demo_query_obj, source)
            return unguided(source, demo_query_obj, semantics)

        for semantics in (C_ALL, C_MATCH, "guided"):
            at_once = RecordingSource(0)
            before = set(threading.enumerate())
            with monkeypatch.context() as patch:
                patch.setattr(webfetch, "perf_counter", time.thread_time)
                pool, trace = run(semantics, at_once)
            assert set(threading.enumerate()) == before
            assert sorted(iri for iri, _, _ in at_once.calls) == sorted(
                e.iri for e in trace.ledger.entries if e.iri.startswith(("http:", "https:")))
            assert all(thread is caller and threads == before
                       for _, thread, threads in at_once.calls)
            slow_pool, slow_trace = run(semantics, RecordingSource(0.001))
            assert trace.to_json_dict() == slow_trace.to_json_dict()
            assert pool.entries == slow_pool.entries

    @pytest.mark.parametrize("busy,off,helped", [
        (1e-3, 0.0, False),  # a request that computes for 1 ms has not waited
        (0.0, WAITED_S / 2, False),
        (0.0, 2 * WAITED_S, True),
    ])
    def test_only_time_off_the_cpu_counts_as_waiting(self, monkeypatch, busy, off, helped):
        # Fake clocks: each request moves the wall clock on by busy + off
        # and the CPU clock by busy. Waves of 1, 4 and 4 documents; helper
        # threads start once a request has been off the CPU past WAITED_S.
        inner = chains_web(4, 2)
        clock = {"wall": 0.0, "cpu": 0.0}
        monkeypatch.setattr(webfetch, "perf_counter", lambda: clock["wall"])
        monkeypatch.setattr(webfetch, "thread_time", lambda: clock["cpu"])
        before = set(threading.enumerate())
        seen = []

        class ClockedSource:
            def fetch(self, doc_iri):
                seen.append(set(threading.enumerate()))
                clock["wall"] += busy + off
                clock["cpu"] += busy
                return inner.fetch(doc_iri)

        _, trace = unguided(ClockedSource(), ANY_QUERY, C_ALL, seeds=(HUB,))
        assert trace.ledger.distinct_ok == 9
        assert any(threads != before for threads in seen) is helped

    def test_a_first_waiting_request_runs_alone_then_its_wave_overlaps(self):
        # The hub answers at once. Each request of its 8-document wave waits
        # until 7 are in flight: the first for 0.1 s, the others for up to
        # 2 s. That first request is the traversal's first to wait, so the
        # calling thread makes it alone, and only then do helpers start: the
        # other 7 reach exactly 7 in flight. So a source that waits from its
        # second wave on loses one request's latency, once.
        caller = threading.current_thread()
        inner = chains_web(8, 1)
        lock = threading.Condition()
        in_flight, peak, arrivals = 0, 0, []
        first_alone = None  # whether no other request arrived while the first was in flight

        class GatedSource:
            def fetch(self, doc_iri):
                nonlocal in_flight, peak, first_alone
                if doc_iri == HUB:
                    return inner.fetch(doc_iri)
                with lock:
                    arrivals.append(threading.current_thread())
                    first = len(arrivals) == 1
                    in_flight += 1
                    peak = max(peak, in_flight)
                    lock.notify_all()
                    lock.wait_for(lambda: in_flight >= 7, timeout=0.1 if first else 2)
                    if first:
                        first_alone = len(arrivals) == 1
                    in_flight -= 1
                return inner.fetch(doc_iri)

        _, trace = unguided(GatedSource(), ANY_QUERY, C_ALL, seeds=(HUB,))
        assert trace.ledger.distinct_ok == 9
        assert arrivals[0] is caller and first_alone
        assert peak == 7

    def test_oracles_hold_when_threads_switch_every_microsecond(self):
        # Each request computes for 50 µs, holding the GIL, then sleeps
        # 0.2 ms, past WAITED_S, so helpers join every wave after the first
        # and at a 1 µs switch interval they contend for the GIL with the
        # calling thread mid-request. Each request is made once, and the
        # ledger, admissions and pool of c-all, c-match and guided runs equal
        # those of runs at the default interval and the closure oracles.
        class RecordingSource:
            def __init__(self, inner):
                self.inner = inner
                self.calls = []

            def fetch(self, doc_iri):
                self.calls.append((doc_iri, threading.current_thread()))  # atomic
                end = time.perf_counter() + 5e-5
                while time.perf_counter() < end:
                    pass
                time.sleep(2e-4)
                return self.inner.fetch(doc_iri)

        seeds = [doc_iri(0)]

        def run_all(bodies, query, registry, policy):
            runs = {}
            for semantics in (C_ALL, C_MATCH, "guided"):
                source = RecordingSource(web_source(bodies))
                if semantics == "guided":
                    pool, trace = traverse_guided(seeds, registry, policy, query, source,
                                                  max_documents=1000)
                else:
                    pool, trace = unguided(source, query, semantics, seeds=seeds,
                                           max_documents=1000)
                assert sorted(iri for iri, _ in source.calls) == sorted(
                    e.iri for e in trace.ledger.entries)
                runs[semantics] = (trace, pool, source.calls)
            return runs

        rng = random.Random(977)
        helper_requests = 0
        default_interval = sys.getswitchinterval()
        for _ in range(40):
            bodies = random_web(rng)
            query = random_bgp_query(rng, len(bodies))
            registry = parse_structure_registry(random_registry_json(rng, len(bodies)))
            policy = parse_policy(random_policy_json(rng, len(bodies)))
            expected = run_all(bodies, query, registry, policy)
            sys.setswitchinterval(1e-6)
            try:
                shaken = run_all(bodies, query, registry, policy)
            finally:
                sys.setswitchinterval(default_interval)
            for semantics, (trace, pool, calls) in shaken.items():
                assert trace.to_json_dict() == expected[semantics][0].to_json_dict()
                assert pool.entries == expected[semantics][1].entries
                helper_requests += sum(t is not threading.current_thread() for _, t in calls)
            assert shaken[C_ALL][0].ledger.ok_documents == closure_c_all(bodies, seeds)
            assert shaken[C_MATCH][0].ledger.ok_documents == closure_c_match(
                bodies, seeds, query)
            docs, _, entries = closure_guided(bodies, seeds, registry, policy, query)
            assert shaken["guided"][0].ledger.ok_documents == docs
            assert shaken["guided"][1].entries == entries
        assert helper_requests >= 50


A_TRIPLE = rdf.Triple(rdf.Term.iri("https://a.ex/#s"), rdf.Term.iri("https://v.ex/p"),
                      rdf.Term.iri("https://b.ex/#o"))
RECORDS = [
    Admission("https://b.ex/", "link", "https://a.ex/", A_TRIPLE,
              rdf.TriplePattern(rdf.Term.var("s"), rdf.Term.iri("https://v.ex/p"),
                                rdf.Term.var("o"))),
    LedgerEntry("https://a.ex/", OK),
    Document("https://a.ex/", Graph([A_TRIPLE])),
]


class TestRecords:
    @pytest.mark.parametrize("value,field", [
        (record, f.name) for record in RECORDS for f in dataclasses.fields(record)])
    def test_fields_are_frozen(self, value, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "https://c.ex/")

    def test_admission_defaults_equality_hash_and_repr(self):
        seed = Admission("https://a.ex/", "seed")
        assert seed == Admission(doc_iri="https://a.ex/", reason="seed", from_doc=None)
        assert hash(seed) == hash(("https://a.ex/", "seed", None, None, None, None))
        assert seed != Admission("https://a.ex/", "seed", cause="x")
        assert repr(seed) == ("Admission(doc_iri='https://a.ex/', reason='seed', from_doc=None, "
                              "via_triple=None, via_pattern=None, cause=None)")
        link = RECORDS[0]
        assert hash(link) == hash(tuple(getattr(link, f.name)
                                        for f in dataclasses.fields(link)))
        pruned = dataclasses.replace(link, reason="pruned", cause="no rule")
        assert (pruned.doc_iri, pruned.from_doc, pruned.via_triple, pruned.via_pattern) == (
            link.doc_iri, link.from_doc, link.via_triple, link.via_pattern)
        assert (pruned.reason, pruned.cause) == ("pruned", "no rule")

    def test_ledger_entry_equality_hash_and_repr(self):
        entry = LedgerEntry("https://a.ex/", OK)
        assert entry == LedgerEntry(iri="https://a.ex/", outcome=OK) != LedgerEntry(
            "https://a.ex/", NOT_FOUND)
        assert hash(entry) == hash(("https://a.ex/", OK))
        assert repr(entry) == "LedgerEntry(iri='https://a.ex/', outcome='ok')"
        assert entry.cache_hit is False
        assert [f.name for f in dataclasses.fields(entry)] == ["iri", "outcome"]
        assert dataclasses.replace(entry, outcome=NOT_FOUND) == LedgerEntry(
            "https://a.ex/", NOT_FOUND)

    def test_document_equality_hash_repr_and_tables(self):
        doc = Document("https://a.ex/", Graph([A_TRIPLE]))
        assert doc == Document(doc_iri="https://a.ex/", triples=Graph([A_TRIPLE]))
        assert doc != Document("https://a.ex/", Graph())
        with pytest.raises(TypeError):
            hash(doc)  # its graph is mutable, so unhashable
        assert repr(doc) == "Document(doc_iri='https://a.ex/', triples=Graph(1 triples))"
        assert doc.sorted_triples == [A_TRIPLE]
        moved = dataclasses.replace(doc, doc_iri="https://www.a.ex/")
        assert moved.doc_iri == "https://www.a.ex/" and moved.triples is doc.triples
        assert "sorted_triples" not in moved.__dict__


GOLDEN_DEMO_TRACES = Path(__file__).parent / "demo_traces.json"


def demo_traces(query, registry, policy):
    """The demo web's trace under every link mode, as written to the golden file."""
    traces = {}
    for semantics in (C_NONE, C_ALL, C_MATCH):
        _, trace = unguided(web_source_from_demo(), query, semantics)
        traces[semantics] = trace.to_json_dict()
    _, trace = traverse_guided([SEED], registry, policy, query, web_source_from_demo())
    traces["guided"] = trace.to_json_dict()
    return json.dumps(traces, indent=1) + "\n"


class TestTraceSerialization:
    def test_demo_traces_match_golden_file(self, demo_query_obj, demo_registry, uma_policy):
        # Pins admission order, witness triples and patterns, pruned entries,
        # ledger order and the pool. Regenerate the file from demo_traces()
        # only for an intended change of traversal order.
        expected = GOLDEN_DEMO_TRACES.read_text(encoding="utf-8")
        assert demo_traces(demo_query_obj, demo_registry, uma_policy) == expected

    def test_trace_json_is_stable(self, demo_source, demo_query_obj):
        _, trace = unguided(demo_source, demo_query_obj, C_MATCH)
        first = json.dumps(trace.to_json_dict(), sort_keys=True)
        second = json.dumps(trace.to_json_dict(), sort_keys=True)
        assert first == second
        parsed = json.loads(first)
        assert set(parsed) == {"admissions", "pool", "ledger"}


def web_source_from_demo():
    from linkquery.fixtures import demo_manifest
    from linkquery.webfetch import FixtureSource

    return FixtureSource.from_manifest(demo_manifest())
