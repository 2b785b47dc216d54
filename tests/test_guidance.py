import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PREDICATES, parse_web, policies, reference_lambda, reference_overrides, webs
from linkquery.guidance import (
    ALLOW,
    DENY,
    PERMISSIVE,
    PERMISSIVE_POLICY,
    RESTRICTIVE,
    SAME_ORIGIN,
    WILDCARD,
    ContentPolicy,
    GuidanceParseError,
    LinkingStructureRegistry,
    PolicyRule,
    StructureRule,
    apply_overrides,
    get_linking_structure,
    lambda_allows,
    parse_policy,
    parse_structure_registry,
    relevance_decision,
    triple_relevant,
)
from linkquery.rdf import Graph, Term, Triple, TriplePattern
from linkquery.traversal import TriplePool
from linkquery.webfetch import Document

PERFBENCH = Path(__file__).parents[1] / "perfbench"
FOAF = "http://xmlns.com/foaf/0.1/"
NAME_TP = TriplePattern(Term.var("friend"), Term.iri(FOAF + "name"), Term.var("name"))
MBOX_TP = TriplePattern(Term.var("friend"), Term.iri(FOAF + "mbox"), Term.var("email"))


def t(s, p, o):
    obj = o if isinstance(o, Term) else Term.iri(o)
    return Triple(Term.iri(s), Term.iri(p), obj)


def doc(iri, triples):
    return Document(iri, Graph(triples))


ANN_PROFILE = doc(
    "https://ann.ex/",
    [
        t("https://ann.ex/#me", FOAF + "isPrimaryTopicOf", "https://ann.ex/about/"),
        t("https://ann.ex/#me", FOAF + "weblog", "https://ann.ex/blog/"),
        t("https://ann.ex/#me", FOAF + "maker", "https://photos.ex/ann/"),
    ],
)


class TestRegistry:
    def test_demo_registry_compiles(self, demo_registry):
        assert demo_registry.default_mode == RESTRICTIVE
        scopes = [r.scope for r in demo_registry.rules]
        assert "https://ann.ex/" in scopes and "https://bob.ex/" in scopes

    def test_empty_registry_permissive(self):
        registry = parse_structure_registry('{"default": "permissive", "rules": []}')
        assert get_linking_structure(registry, "https://anything.ex/") == PERMISSIVE

    def test_longest_prefix_wins(self):
        registry = LinkingStructureRegistry(
            [
                StructureRule("https://ann.ex/", WILDCARD, "self"),
                StructureRule("https://ann.ex/about/", WILDCARD, frozenset({FOAF + "knows"})),
            ],
            PERMISSIVE,
        )
        [rule] = get_linking_structure(registry, "https://ann.ex/about/")
        assert rule.scope == "https://ann.ex/about/"

    def test_same_scope_keeps_declaration_order(self):
        first = StructureRule("https://x.ex/", WILDCARD, "self")
        second = StructureRule("https://x.ex/", WILDCARD, frozenset({FOAF + "knows"}))
        registry = LinkingStructureRegistry([first, second], RESTRICTIVE)
        assert get_linking_structure(registry, "https://x.ex/doc") == [first, second]

    def test_unmatched_scope_falls_back_to_default(self):
        registry = LinkingStructureRegistry(
            [StructureRule("https://ann.ex/", WILDCARD, "self")], PERMISSIVE
        )
        assert get_linking_structure(registry, "https://example.org/x") == PERMISSIVE

    def test_total_and_deterministic(self):
        registry = LinkingStructureRegistry(
            [StructureRule("https://a.ex/", WILDCARD, "self")], RESTRICTIVE
        )
        for iri in ["https://a.ex/", "https://a.ex/x", "https://b.ex/", "mailto:x@y"]:
            assert get_linking_structure(registry, iri) == get_linking_structure(registry, iri)

    def test_unknown_follow_keyword(self):
        with pytest.raises(GuidanceParseError, match="rule 0"):
            parse_structure_registry(
                json.dumps({"rules": [{"scope": "https://a.ex/", "follow": "everything"}]})
            )

    @pytest.mark.parametrize("text,message", [
        ('{"rules": [', "structure registry is not valid JSON"),
        ('{"default": "open"}', "unknown default mode 'open'"),
        ('[1]', "structure registry is not a JSON object"),
        ('{"rules": 5}', "structure registry rules are not a list of objects"),
        ('{"rules": ["x"]}', "structure registry rules are not a list of objects"),
        ('{"rules": [{"scope": 5, "follow": "self"}]}', "rule 0: scope must be an IRI prefix$"),
        ('{"rules": [{"scope": "https://a.ex/", "patternPredicates": [], "follow": "self"}]}',
         r"rule 0: patternPredicates must be '\*' or a non-empty IRI list"),
        # JSON expands no prefixed name, so such a rule would match no pattern.
        ('{"rules": [{"scope": "https://a.ex/", "patternPredicates": ["foaf:knows"],'
         ' "follow": "self"}]}',
         r"rule 0: patternPredicates must be '\*' or a non-empty IRI list"),
        ('{"rules": [{"scope": "https://a.ex/", "patternPredicates": [""], "follow": "self"}]}',
         r"rule 0: patternPredicates must be '\*' or a non-empty IRI list"),
        ('{"rules": [{"scope": "https://a.ex/", "follow": ["foaf:knows"]}]}',
         "rule 0: follow must be 'self' or a list of link predicates"),
        ('{"rules": [{"scope": "https://a.ex/", "follow": [""]}]}',
         "rule 0: follow must be 'self' or a list of link predicates"),
    ])
    def test_malformed_registry(self, text, message):
        with pytest.raises(GuidanceParseError, match=message):
            parse_structure_registry(text)

    def test_malformed_scope(self):
        with pytest.raises(GuidanceParseError, match="scope"):
            parse_structure_registry(
                json.dumps({"rules": [{"scope": "not-an-iri", "follow": "self"}]})
            )


class TestLambda:
    def ann_structure(self, demo_registry):
        return get_linking_structure(demo_registry, "https://ann.ex/")

    def test_primary_topic_link_allowed(self, demo_registry):
        structure = self.ann_structure(demo_registry)
        assert lambda_allows(structure, ANN_PROFILE, "https://ann.ex/about/", NAME_TP)

    def test_weblog_link_skipped(self, demo_registry):
        structure = self.ann_structure(demo_registry)
        assert not lambda_allows(structure, ANN_PROFILE, "https://ann.ex/blog/", NAME_TP)

    def test_permissive_requires_hyperlink(self):
        assert not lambda_allows(PERMISSIVE, ANN_PROFILE, "https://stranger.ex/", NAME_TP)
        assert lambda_allows(PERMISSIVE, ANN_PROFILE, "https://ann.ex/blog/", NAME_TP)

    def test_restrictive_admits_nothing(self):
        assert not lambda_allows(RESTRICTIVE, ANN_PROFILE, "https://ann.ex/about/", NAME_TP)

    def test_self_rule_only_admits_the_document_itself(self):
        structure = [StructureRule("https://ann.ex/", WILDCARD, "self")]
        assert lambda_allows(structure, ANN_PROFILE, "https://ann.ex/", NAME_TP)
        assert not lambda_allows(structure, ANN_PROFILE, "https://ann.ex/about/", NAME_TP)

    def test_pattern_predicate_must_be_covered(self):
        structure = [
            StructureRule(
                "https://ann.ex/",
                frozenset({FOAF + "mbox"}),
                frozenset({FOAF + "isPrimaryTopicOf"}),
            )
        ]
        assert lambda_allows(structure, ANN_PROFILE, "https://ann.ex/about/", MBOX_TP)
        assert not lambda_allows(structure, ANN_PROFILE, "https://ann.ex/about/", NAME_TP)

    def test_never_admits_unlinked_candidates(self, demo_registry):
        rng = random.Random(5)
        structure = self.ann_structure(demo_registry)
        for _ in range(20):
            candidate = "https://nowhere%d.ex/" % rng.randrange(1000)
            assert not lambda_allows(structure, ANN_PROFILE, candidate, NAME_TP)

    def test_variable_predicate_pattern_covered_by_any_rule(self, demo_registry):
        structure = self.ann_structure(demo_registry)
        any_tp = TriplePattern(Term.var("s"), Term.var("p"), Term.var("o"))
        assert lambda_allows(structure, ANN_PROFILE, "https://ann.ex/about/", any_tp)

    def test_matches_rescanning_reference_property(self):
        # lambda_allows reads the document's hyperlink table; reference_lambda
        # rescans its triples. Seeded random documents, structures, candidates
        # and patterns; `seen` records which cases were exercised.
        rng = random.Random(23)
        docs = ["https://d%d.ex/" % i for i in range(5)]
        seen = set()

        def iri():
            base = rng.choice(docs)
            return base + rng.choice(["", "#me", "#it", "x?#q"])

        def structure():
            roll = rng.random()
            if roll < 0.2:
                return PERMISSIVE
            if roll < 0.3:
                return RESTRICTIVE
            return [
                StructureRule(
                    rng.choice(docs),
                    WILDCARD if rng.random() < 0.3
                    else frozenset(rng.sample(PREDICATES, rng.randint(1, 3))),
                    "self" if rng.random() < 0.25
                    else frozenset(rng.sample(PREDICATES, rng.randint(0, 3))),
                )
                for _ in range(rng.randint(1, 3))
            ]

        for _ in range(400):
            from_iri = rng.choice(docs)
            triples = [
                t(iri(), rng.choice(PREDICATES),
                  iri() if rng.random() < 0.5 else Term.literal("v"))
                for _ in range(rng.randint(0, 8))
            ]
            from_doc = doc(from_iri, triples)
            subject_docs = {x.subject.value.partition("#")[0] for x in triples}
            object_docs = {x.object.value.partition("#")[0] for x in triples
                           if x.object.kind == "iri"}
            s = structure()
            kinds = (
                [s] if isinstance(s, str)
                else ["self" if any(r.follow == "self" for r in s) else "follow"]
                + ["*" if r.pattern_predicates == WILDCARD else "list" for r in s]
            )
            candidates = docs + [c + "x?" for c in docs] + ["https://nowhere.ex/"]
            for candidate in candidates:
                if candidate in object_docs:
                    kinds_here = kinds
                elif candidate in subject_docs:
                    kinds_here = kinds + ["subject-only"]
                else:
                    kinds_here = kinds + ["unlinked"]
                for predicate in [Term.var("p")] + [Term.iri(p) for p in PREDICATES]:
                    tp = TriplePattern(Term.var("s"), predicate, Term.var("o"))
                    expected = reference_lambda(s, from_doc, candidate, tp)
                    assert lambda_allows(s, from_doc, candidate, tp) == expected
                    seen.update((kind, expected) for kind in kinds_here)
        assert seen >= {
            (PERMISSIVE, True), (PERMISSIVE, False), (RESTRICTIVE, False),
            ("self", True), ("self", False), ("follow", True), ("follow", False),
            ("*", True), ("list", True), ("list", False),
            ("unlinked", False), ("subject-only", True), ("subject-only", False),
        }


class TestPolicyParsing:
    def test_uma_policy_compiles(self, uma_policy):
        assert uma_policy.default_action == DENY
        ordered = uma_policy.rules
        assert ordered[0].priority == 10
        assert ordered[0].pattern.predicate.value == FOAF + "knows"
        assert ordered[1].exclusive_key == "subject-predicate"
        # the name|mbox shorthand expands to sibling rules
        assert len(uma_policy.rules) == 5

    def test_empty_policy_permissive(self):
        policy = parse_policy('{"default": "allow", "rules": []}')
        triple = t("https://x.ex/#a", FOAF + "name", Term.literal("X"))
        assert triple_relevant(policy, triple, "https://anywhere.ex/")

    def test_duplicate_priorities_break_ties_by_declaration(self):
        policy = parse_policy(
            json.dumps(
                {
                    "default": "allow",
                    "rules": [
                        {"action": "deny", "pattern": {"p": FOAF + "name"}, "priority": 5},
                        {"action": "allow", "pattern": {"p": FOAF + "name"}, "priority": 5},
                    ],
                }
            )
        )
        triple = t("https://x.ex/#a", FOAF + "name", Term.literal("X"))
        relevant, rule = relevance_decision(policy, triple, "https://x.ex/")
        assert not relevant and rule.action == DENY

    def test_malformed_pattern(self):
        with pytest.raises(GuidanceParseError, match="rule 0"):
            parse_policy(
                json.dumps(
                    {"rules": [{"action": "allow", "pattern": {"s": "not an iri"}}]}
                )
            )

    def test_malformed_ipv6_host(self):
        with pytest.raises(GuidanceParseError, match="rule 0: malformed IRI"):
            parse_policy(
                json.dumps({"rules": [{"action": "allow", "pattern": {"s": "http://[x"}}]})
            )

    @pytest.mark.parametrize("text,message", [
        ('{"rules": [', "policy is not valid JSON"),
        ('{"default": "maybe"}', "unknown default action 'maybe'"),
        ('{"rules": [{"action": "permit", "pattern": {}}]}',
         "rule 0: action must be allow or deny"),
        ('{"rules": [{"action": "allow"}]}', "rule 0: missing pattern"),
        ('{"rules": [{"action": "allow", "pattern": {}, "source": 5}]}',
         "rule 0: malformed source constraint"),
        ('{"rules": [{"action": "allow", "pattern": {}, "priority": "high"}]}',
         "rule 0: priority must be an integer"),
        ('{"rules": [{"action": "allow", "pattern": {}, "priority": true}]}',
         "rule 0: priority must be an integer"),
        ('{"rules": [{"action": "allow", "pattern": {}, "priority": false}]}',
         "rule 0: priority must be an integer"),
        ('{"rules": [{"action": "allow", "pattern": {"p": []}}]}',
         "rule 0: pattern p must be an IRI, '\\?' or a non-empty IRI list"),
        ('{"rules": [{"action": "allow", "pattern": {"o": "\\"Ann"}}]}',
         "rule 0: malformed literal"),
        ('[1]', "policy is not a JSON object"),
        ('{"rules": 5}', "policy rules are not a list of objects"),
        ('{"rules": ["x"]}', "policy rules are not a list of objects"),
        ('{"rules": [{"action": "allow", "pattern": {"s": 5}}]}',
         "rule 0: policy pattern term 5 is not a string"),
        ('{"rules": [{"action": "allow", "pattern": {"p": ["%sname", null]}}]}' % FOAF,
         "rule 0: policy pattern term None is not a string"),
    ])
    def test_malformed_policy(self, text, message):
        with pytest.raises(GuidanceParseError, match=message):
            parse_policy(text)

    @pytest.mark.parametrize("source", ["uma.ex/", "mailto:x", ""])
    def test_source_that_names_no_fetched_document_is_rejected(self, source):
        # A source is "*", "same-origin-as-subject" or an IRI prefix with
        # "://", as a structure rule's scope is: a traversal fetches only
        # http(s) documents, so no other prefix matches one, and "" would
        # silently act as "*".
        with pytest.raises(GuidanceParseError, match="rule 0: malformed source constraint"):
            parse_policy(json.dumps(
                {"rules": [{"action": "allow", "pattern": {}, "source": source}]}))

    def test_demo_and_benchmark_policies_parse(self, uma_policy, tmp_path, monkeypatch):
        assert {rule.source for rule in uma_policy.rules} == {"https://uma.ex/", SAME_ORIGIN}
        spec = importlib.util.spec_from_file_location("webs", PERFBENCH / "webs.py")
        webs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "webs", webs)  # its dataclasses look it up
        spec.loader.exec_module(webs)
        web = webs.generate("guided-latency", 1, tmp_path, "tiny")
        policy = parse_policy(web.policy.read_text(encoding="utf-8"))
        assert {rule.source for rule in policy.rules} == {SAME_ORIGIN}

    def test_literal_object_pattern(self):
        policy = parse_policy(json.dumps({"default": "deny", "rules": [
            {"action": "allow", "pattern": {"p": FOAF + "name", "o": '"Ann"'}}]}))
        assert policy.rules[0].pattern.object == Term.literal("Ann")
        ann = t("https://x.ex/#a", FOAF + "name", Term.literal("Ann"))
        bob = t("https://x.ex/#b", FOAF + "name", Term.literal("Bob"))
        assert triple_relevant(policy, ann, "https://x.ex/")
        assert not triple_relevant(policy, bob, "https://x.ex/")

    def test_unknown_exclusive_key(self):
        with pytest.raises(GuidanceParseError, match="exclusive"):
            parse_policy(
                json.dumps(
                    {
                        "rules": [
                            {
                                "action": "allow",
                                "pattern": {},
                                "exclusive": "predicate-object",
                            }
                        ]
                    }
                )
            )


class TestTripleRelevant:
    def test_foreign_knows_statement_denied(self, uma_policy):
        triple = t(
            "https://uma.ex/#me",
            FOAF + "knows",
            "http://dbpedia.org/resource/Mickey_Mouse",
        )
        assert not triple_relevant(uma_policy, triple, "https://bob.ex/")
        assert triple_relevant(uma_policy, triple, "https://uma.ex/")

    def test_name_from_other_origin_denied(self, uma_policy):
        triple = t("https://ann.ex/#me", FOAF + "name", Term.literal("Felix"))
        assert not triple_relevant(uma_policy, triple, "https://bob.ex/")

    def test_same_origin_name_allowed(self, uma_policy):
        triple = t("https://ann.ex/#me", FOAF + "name", Term.literal("Ann"))
        assert triple_relevant(uma_policy, triple, "https://ann.ex/about/")

    def test_permissive_policy_allows_everything(self):
        triple = t("https://a.ex/", FOAF + "weblog", "https://b.ex/")
        assert triple_relevant(PERMISSIVE_POLICY, triple, "https://anywhere.ex/")

    def test_pure_and_stable(self, uma_policy):
        triple = t("https://ann.ex/#me", FOAF + "name", Term.literal("Ann"))
        results = {triple_relevant(uma_policy, triple, "https://ann.ex/about/") for _ in range(10)}
        assert results == {True}

    @pytest.mark.parametrize("subject,source,same", [
        # RFC 6454: the scheme, the lowercased host and the port, the
        # scheme's default when none is given; userinfo is no part of it
        ("https://Bob.ex/#me", "https://bob.ex/", True),
        ("https://bob.ex:443/#me", "https://bob.ex/", True),
        ("http://bob.ex/#me", "http://bob.ex:80/", True),
        ("https://u@bob.ex/#me", "https://bob.ex/", True),
        # a URI without a host, or with a port out of range, has no origin
        ("urn:a", "urn:b", False),
        ("urn:a", "urn:a", False),
        ("mailto:a@x.ex", "mailto:b@y.ex", False),
        ("https://bob.ex:99999/#me", "https://bob.ex:99999/", False),
    ])
    def test_same_origin_is_rfc_6454_origin(self, subject, source, same):
        policy = parse_policy(json.dumps({"default": "deny", "rules": [
            {"action": "allow", "pattern": {}, "source": SAME_ORIGIN}]}))
        triple = t(subject, FOAF + "name", Term.literal("Bob"))
        assert triple_relevant(policy, triple, source) == same

    def test_deny_by_default_matches_rule_enumeration_oracle(self):
        rng = random.Random(17)
        predicates = [FOAF + "name", FOAF + "mbox", FOAF + "img", FOAF + "knows"]
        sources = ["https://a.ex/", "https://b.ex/", "https://a.ex/sub/"]
        for _ in range(20):
            rules = []
            for _ in range(rng.randint(1, 6)):
                rules.append(
                    PolicyRule(
                        rng.choice([ALLOW, DENY]),
                        TriplePattern(
                            Term.var("s"),
                            Term.iri(rng.choice(predicates)),
                            Term.var("o"),
                        ),
                        rng.choice([WILDCARD, SAME_ORIGIN] + sources),
                        rng.randint(0, 5),
                    )
                )
            policy = ContentPolicy(rules, DENY)
            pool = []
            for _ in range(60):
                pool.append(
                    (
                        t(
                            rng.choice(["https://a.ex/#x", "https://b.ex/#y"]),
                            rng.choice(predicates),
                            Term.literal("v%d" % rng.randrange(3)),
                        ),
                        rng.choice(sources),
                    )
                )
            ordered = policy.rules
            for triple, src in pool:
                # oracle: the relevant set is the union over allow rules of
                # their matches, minus pairs a higher-priority deny also hits
                expected = any(
                    rule.action == ALLOW
                    and rule.matches(triple, src)
                    and not any(
                        d.action == DENY and d.matches(triple, src)
                        for d in ordered[:idx]
                    )
                    for idx, rule in enumerate(ordered)
                )
                assert triple_relevant(policy, triple, src) == expected


def allow_only_from(source):
    """A deny-default policy whose one rule allows every triple from source."""
    return parse_policy(json.dumps({"default": "deny", "rules": [
        {"action": "allow", "pattern": {}, "source": source}]}))


def scoped_registry(scope):
    """A restrictive registry whose one rule has the given scope."""
    return parse_structure_registry(json.dumps({"default": "restrictive", "rules": [
        {"scope": scope, "follow": "self"}]}))


NAME_TRIPLE = t("https://uma.ex/#me", FOAF + "name", Term.literal("Uma"))

# Hosts that share string prefixes with uma.ex and with one another.
SHARED_HOSTS = ["uma.ex", "uma.ex.evil.ex", "uma.example", "uma.e", "uma.ex1", "um.ex"]
SHARED_PATHS = ["", "/", "/a", "/a/", "/ab", "/a/b"]
DEFAULT_PORTS = {"http": 80, "https": 443}
_SCHEMES = st.sampled_from(["https", "http"])
_PORTS = st.sampled_from([None, 80, 443, 8443])


@st.composite
def _cased_hosts(draw):
    host = draw(st.sampled_from(SHARED_HOSTS))
    upper = draw(st.lists(st.booleans(), min_size=len(host), max_size=len(host)))
    return "".join(c.upper() if up else c for c, up in zip(host, upper))


def _authority(host, port):
    return host if port is None else "%s:%d" % (host, port)


class TestTrustByOrigin:
    # A source prefix or structure scope holds a document when the
    # document's origin is the prefix's (RFC 6454, as same-origin compares
    # them) and its path starts with the prefix's path: a host is matched
    # whole, never as a string prefix, and a document's empty path is "/".
    @pytest.mark.parametrize("source_doc,relevant", [
        ("https://uma.ex/", True),
        ("https://UMA.ex/", True),
        ("https://uma.ex:443/about/", True),
        ("https://uma.ex.evil.ex/", False),
        ("https://uma.example/", False),
        ("https://uma.ex@evil.ex/", False),
        ("http://uma.ex/", False),
        ("https://uma.ex:8443/", False),
    ])
    def test_a_source_prefix_without_a_path_is_its_origin(self, source_doc, relevant):
        policy = allow_only_from("https://uma.ex")
        assert triple_relevant(policy, NAME_TRIPLE, source_doc) == relevant

    @pytest.mark.parametrize("doc_iri", [
        "https://uma.ex.evil.ex/", "https://uma.example/", "https://uma.ex@evil.ex/"])
    def test_a_scope_holds_no_host_it_is_a_string_prefix_of(self, doc_iri):
        assert get_linking_structure(scoped_registry("https://uma.ex"), doc_iri) == RESTRICTIVE
        [rule] = get_linking_structure(scoped_registry("https://uma.ex"), "https://Uma.ex/x")
        assert rule.scope == "https://uma.ex"

    def test_the_narrowest_scope_wins(self):
        registry = parse_structure_registry(json.dumps({"default": "permissive", "rules": [
            {"scope": scope, "follow": "self"} for scope in
            ["https://", "https://uma.ex:443/", "https://uma.ex/a", "https://uma.ex", "HTTPS://"]]}))
        scopes = {iri: [r.scope for r in get_linking_structure(registry, iri)]
                  for iri in ["https://uma.ex/ab", "https://UMA.ex/", "https://uma.ex",
                              "https://bob.ex/"]}
        assert scopes == {
            # the longest path within the origin, not the longest string
            "https://uma.ex/ab": ["https://uma.ex/a"],
            # then any path, however short, within the origin
            "https://UMA.ex/": ["https://uma.ex:443/"],
            # a document's empty path is "/"; the scope "https://uma.ex" has
            # none, so it holds the whole origin and is the wider one
            "https://uma.ex": ["https://uma.ex:443/"],
            # the scheme alone holds every document of that scheme
            "https://bob.ex/": ["https://", "HTTPS://"],
        }
        assert get_linking_structure(registry, "http://uma.ex/") == PERMISSIVE

    # RFC 3986 section 6.2.3: https://uma.ex and https://uma.ex/ name one
    # document, and a seed https://uma.ex is fetched under the first name.
    def test_an_empty_path_after_a_host_is_the_root_for_a_source(self):
        assert triple_relevant(allow_only_from("https://uma.ex/"), NAME_TRIPLE, "https://uma.ex")

    def test_an_empty_path_after_a_host_is_the_root_for_a_scope(self):
        [rule] = get_linking_structure(scoped_registry("https://uma.ex/"), "https://uma.ex")
        assert rule.scope == "https://uma.ex/"

    @pytest.mark.parametrize("prefix,reason", [
        ("https://u@uma.ex/", "userinfo"),
        ("https://uma.ex@evil.ex/", "userinfo"),
        ("https://uma.ex/?page=1", "a query or a fragment"),
        ("https://uma.ex/#me", "a query or a fragment"),
        ("https:///uma", "no origin"),
        ("https://uma.ex:99999/", "no origin"),
        ("https://[uma/", "malformed"),
    ])
    def test_a_prefix_that_is_not_an_origin_and_a_path_is_rejected(self, prefix, reason):
        with pytest.raises(GuidanceParseError,
                           match="rule 0: malformed source constraint: .* %s" % reason):
            allow_only_from(prefix)
        with pytest.raises(GuidanceParseError,
                           match="rule 0: scope must be an IRI prefix: .* %s" % reason):
            scoped_registry(prefix)

    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), _SCHEMES, _cased_hosts(), _PORTS, st.sampled_from(SHARED_PATHS),
           _SCHEMES, st.sampled_from(["", "u@", "uma.ex@"]), _cased_hosts(), _PORTS,
           st.sampled_from(SHARED_PATHS))
    def test_a_prefix_holds_exactly_its_origin_and_path(
            self, scheme_only, scheme, host, port, path,
            doc_scheme, userinfo, doc_host, doc_port, doc_path):
        if scheme_only:
            prefix = scheme + "://"
            expected = doc_scheme == scheme
        else:
            prefix = "%s://%s%s" % (scheme, _authority(host, port), path)
            expected = ((scheme, host.lower(), port or DEFAULT_PORTS[scheme])
                        == (doc_scheme, doc_host.lower(), doc_port or DEFAULT_PORTS[doc_scheme])
                        and (doc_path or "/").startswith(path))
        doc_iri = "%s://%s%s%s" % (doc_scheme, userinfo, _authority(doc_host, doc_port), doc_path)
        assert triple_relevant(allow_only_from(prefix), NAME_TRIPLE, doc_iri) == expected
        held = get_linking_structure(scoped_registry(prefix), doc_iri) != RESTRICTIVE
        assert held == expected


def overrides(entries, policy):
    """apply_overrides over (triple, source) entries, grouped by source into
    one graph per document, read back as entries."""
    sources = {}
    for triple, src in entries:
        sources.setdefault(src, []).append(triple)
    kept = apply_overrides({src: Graph(ts) for src, ts in sources.items()}, policy)
    return TriplePool(kept).entries


class TestApplyOverrides:
    def test_uma_picture_displaces_bobs_own(self, uma_policy):
        preferred = (
            t("https://bob.ex/#me", FOAF + "img", "https://uma.ex/bob.jpg"),
            "https://uma.ex/",
        )
        own = (
            t("https://bob.ex/#me", FOAF + "img", "https://bob.ex/funny-fish.jpg"),
            "https://bob.ex/",
        )
        result = overrides({preferred, own}, uma_policy)
        assert result == {preferred}

    def test_unchallenged_picture_survives(self, uma_policy):
        ann_img = (
            t("https://ann.ex/#me", FOAF + "img", "https://ann.ex/about/ann.jpg"),
            "https://ann.ex/about/",
        )
        result = overrides({ann_img}, uma_policy)
        assert result == {ann_img}

    def test_no_exclusive_rules_is_identity(self):
        pool = {
            (t("https://a.ex/#x", FOAF + "name", Term.literal("A")), "https://a.ex/"),
            (t("https://b.ex/#y", FOAF + "name", Term.literal("B")), "https://b.ex/"),
        }
        assert overrides(pool, PERMISSIVE_POLICY) == pool

    def test_different_subject_unaffected(self, uma_policy):
        preferred = (
            t("https://bob.ex/#me", FOAF + "img", "https://uma.ex/bob.jpg"),
            "https://uma.ex/",
        )
        other = (
            t("https://ann.ex/#me", FOAF + "img", "https://ann.ex/about/ann.jpg"),
            "https://ann.ex/about/",
        )
        assert overrides({preferred, other}, uma_policy) == {preferred, other}

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_reference_property(self, data):
        # Every triple of a drawn web of up to 4 documents, from its
        # document: a (subject, predicate) often comes from several.
        bodies = data.draw(webs(max_docs=4))
        policy = data.draw(policies(len(bodies)))
        pool = {(t, iri) for iri, graph in parse_web(bodies).items() for t in graph}
        assert overrides(pool, policy) == reference_overrides(pool, policy)

    def test_no_exclusive_rule_returns_the_pool_as_given(self):
        sources = {
            "https://a.ex/": Graph([t("https://a.ex/#x", FOAF + "name", Term.literal("A"))]),
            "https://b.ex/": Graph(),
        }
        ranked = parse_policy(json.dumps({"default": "deny", "rules": [
            {"action": "allow", "pattern": {"p": FOAF + "name"}, "source": "https://a.ex/",
             "priority": 2},
            {"action": "deny", "pattern": {"s": "https://b.ex/#y"}, "priority": 5},
        ]}))
        for policy in (PERMISSIVE_POLICY, ContentPolicy([], DENY), ranked):
            assert apply_overrides(sources, policy) is sources
