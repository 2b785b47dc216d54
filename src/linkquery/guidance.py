"""
Traversal guidance: linking-structure registries and content policies.

A linking-structure registry tells the engine, per document scope, which link
predicates lead to documents worth following for which kinds of triple
patterns. A content policy decides which triples from which source documents
may contribute to results at all, with priorities, a same-origin source
constraint, and exclusive rules whose admitted triples displace same-subject
same-predicate triples admitted from other sources by lower-priority rules.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union
from urllib.parse import urlsplit

from .rdf import (
    IriError,
    Term,
    Triple,
    TriplePattern,
    match_triple,
    strip_fragment,  # not called here; a wrap point of perfbench/tracing.py
)
from .webfetch import Document

SELF = "self"
WILDCARD = "*"
SAME_ORIGIN = "same-origin-as-subject"

PERMISSIVE = "permissive"
RESTRICTIVE = "restrictive"

ALLOW = "allow"
DENY = "deny"

SUBJECT_PREDICATE = "subject-predicate"


class GuidanceParseError(Exception):
    pass


@dataclass(frozen=True)
class StructureRule:
    scope: str  # document-IRI prefix
    pattern_predicates: Union[str, FrozenSet[str]]  # WILDCARD or predicate IRIs
    follow: Union[str, FrozenSet[str]]  # SELF or link predicate IRIs

    def covers_pattern(self, tp: TriplePattern) -> bool:
        if self.pattern_predicates == WILDCARD:
            return True
        if tp.predicate.is_variable:
            return True
        return tp.predicate.value in self.pattern_predicates


@dataclass
class LinkingStructureRegistry:
    rules: List[StructureRule]
    default_mode: str = PERMISSIVE


# The effective structure for one document: either a list of explicit rules
# or the registry's default mode.
EffectiveStructure = Union[List[StructureRule], str]


def get_linking_structure(registry: LinkingStructureRegistry, doc_iri: str) -> EffectiveStructure:
    """Rules whose scope is the longest prefix of doc_iri, declaration order.

    Falls back to the registry's default mode when no scope matches.
    """
    in_scope = [r for r in registry.rules if doc_iri.startswith(r.scope)]
    if not in_scope:
        return registry.default_mode
    longest = max(len(r.scope) for r in in_scope)
    return [r for r in in_scope if len(r.scope) == longest]


def lambda_allows(structure: EffectiveStructure, from_doc: Document,
                  candidate_doc_iri: str, tp: TriplePattern) -> bool:
    """Should candidate_doc_iri be considered, from from_doc, for matches to tp?

    Candidates must always be hyperlinked from from_doc; rules then restrict
    which of those links qualify. With explicit rules, a rule must cover the
    pattern's predicate and either name follow predicates whose objects link
    to the candidate, or (follow = self) the candidate must be the document
    itself. The permissive default admits any hyperlinked candidate; the
    restrictive default admits none. Both tests read from_doc's hyperlink
    table (`Document.link_predicates`) and never scan its triples.
    """
    if structure == RESTRICTIVE:
        return False
    linked_by = from_doc.link_predicates.get(candidate_doc_iri)
    if structure == PERMISSIVE:
        return linked_by is not None
    for rule in structure:
        if not rule.covers_pattern(tp):
            continue
        if rule.follow == SELF:
            if candidate_doc_iri == from_doc.doc_iri:
                return True
        elif not rule.follow.isdisjoint(linked_by or ()):
            return True
    return False


def considered_links(doc: Document, structure: EffectiveStructure,
                     relevant: Callable[[Triple], bool]) -> Iterator[Tuple[Triple, Tuple[str, ...]]]:
    """Each triple of doc that guided traversal reads links from, with the
    candidate documents it offers: all it links to when the policy finds it
    relevant, else its object's document when a structure rule follows its
    predicate (structure rules are trusted user guidance).
    """
    follow: Set[str] = set()
    if isinstance(structure, list):
        follow = {p for rule in structure if rule.follow != SELF for p in rule.follow}
    for t, targets in doc.hyperlinks:
        if relevant(t):
            yield t, targets
        elif t.predicate.value in follow:
            yield t, targets[1:]


def _load_rules(text: str, what: str) -> Tuple[dict, List[dict]]:
    """A guidance file's JSON object and its "rules", a list of objects."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GuidanceParseError("%s is not valid JSON: %s" % (what, exc)) from exc
    if not isinstance(data, dict):
        raise GuidanceParseError("%s is not a JSON object" % what)
    rules = data.get("rules", [])
    if not isinstance(rules, list) or not all(isinstance(raw, dict) for raw in rules):
        raise GuidanceParseError("%s rules are not a list of objects" % what)
    return data, rules


def parse_structure_registry(text: str) -> LinkingStructureRegistry:
    """Compile a registry from its JSON form.

    {"default": "permissive"|"restrictive",
     "rules": [{"scope": iri-prefix,
                "patternPredicates": [iri, ...] | "*",
                "follow": "self" | [iri, ...]}, ...]}
    """
    data, raw_rules = _load_rules(text, "structure registry")
    default = data.get("default", PERMISSIVE)
    if default not in (PERMISSIVE, RESTRICTIVE):
        raise GuidanceParseError("unknown default mode %r" % default)
    rules = []
    for i, raw in enumerate(raw_rules):
        where = "rule %d" % i
        scope = raw.get("scope")
        if not isinstance(scope, str) or "://" not in scope:
            raise GuidanceParseError("%s: scope must be an IRI prefix" % where)
        preds = raw.get("patternPredicates", WILDCARD)
        if preds == WILDCARD:
            pattern_predicates: Union[str, FrozenSet[str]] = WILDCARD
        elif isinstance(preds, list) and preds and all(isinstance(p, str) for p in preds):
            pattern_predicates = frozenset(preds)
        else:
            raise GuidanceParseError(
                "%s: patternPredicates must be '*' or a non-empty IRI list" % where
            )
        follow_raw = raw.get("follow")
        if follow_raw == SELF:
            follow: Union[str, FrozenSet[str]] = SELF
        elif isinstance(follow_raw, list) and all(isinstance(p, str) for p in follow_raw):
            follow = frozenset(follow_raw)
        else:
            raise GuidanceParseError(
                "%s: follow must be 'self' or a list of link predicates" % where
            )
        rules.append(StructureRule(scope, pattern_predicates, follow))
    return LinkingStructureRegistry(rules, default)


@dataclass(frozen=True)
class PolicyRule:
    """One content-policy rule; ties in priority rank by place in `ContentPolicy.rules`."""

    action: str  # allow | deny
    pattern: TriplePattern  # variables act as wildcards
    source: str  # IRI prefix, SAME_ORIGIN, or WILDCARD
    priority: int
    exclusive_key: Optional[str] = None  # only SUBJECT_PREDICATE
    entry: int = 0  # position of the rule's entry in the policy file, from 0

    def matches(self, triple: Triple, source_doc_iri: str) -> bool:
        if match_triple(triple, self.pattern) is None:
            return False
        return self.source_matches(triple, source_doc_iri)

    def source_matches(self, triple: Triple, source_doc_iri: str) -> bool:
        if self.source == WILDCARD:
            return True
        if self.source == SAME_ORIGIN:
            return _same_origin(triple.subject.value, source_doc_iri)
        return source_doc_iri.startswith(self.source)


_DEFAULT_PORTS = {"http": 80, "https": 443}


# Bounded: each triple of a document is checked against the same source
# origin, and its subjects name few others.
@functools.lru_cache(maxsize=1024)
def _origin(iri: str) -> Optional[Tuple[str, str, Optional[int]]]:
    """The RFC 6454 origin of iri: its scheme, lowercased host and port, the
    scheme's default port when none is given. None without a host or with a
    malformed port."""
    parts = urlsplit(iri)
    try:
        port = parts.port
    except ValueError:
        return None
    if not parts.hostname:
        return None
    return parts.scheme, parts.hostname, _DEFAULT_PORTS.get(parts.scheme) if port is None else port


def _same_origin(subject_iri: str, source_iri: str) -> bool:
    """A URI without an origin (no host, or a malformed port) is same-origin with nothing."""
    origin = _origin(subject_iri)
    return origin is not None and origin == _origin(source_iri)


@dataclass
class ContentPolicy:
    rules: List[PolicyRule] = field(default_factory=list)
    default_action: str = ALLOW
    _ordered: List[PolicyRule] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ordered = sorted(self.rules, key=lambda r: -r.priority)

    def ordered_rules(self) -> List[PolicyRule]:
        """The rules by descending priority, sorted once, when built. The sort is
        stable: equal priorities keep their order in `rules`, as parse_policy
        appends them (declaration order, list expansion included)."""
        return self._ordered


PERMISSIVE_POLICY = ContentPolicy([], ALLOW)


def _parse_policy_term(raw: str, position: str) -> Term:
    if not isinstance(raw, str):
        raise GuidanceParseError("policy pattern term %r is not a string" % (raw,))
    if raw == "?":
        return Term.var("any_%s" % position)
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise GuidanceParseError("malformed literal %r in policy pattern" % raw)
        return Term.literal(raw[1:-1])
    if "://" not in raw and not raw.startswith("mailto:"):
        raise GuidanceParseError("malformed IRI %r in policy pattern" % raw)
    return Term.iri(raw)


def parse_policy(text: str) -> ContentPolicy:
    """Compile a content policy from its JSON form.

    {"default": "allow"|"deny",
     "rules": [{"action": "allow"|"deny",
                "pattern": {"s": iri|"?", "p": iri|[iri,...]|"?", "o": iri|literal|"?"},
                "source": iri-prefix|"same-origin-as-subject"|"*",
                "priority": int,
                "exclusive": "subject-predicate"?}, ...]}

    A list in the "p" field is shorthand for one sibling rule per predicate.
    """
    data, raw_rules = _load_rules(text, "policy")
    default = data.get("default", ALLOW)
    if default not in (ALLOW, DENY):
        raise GuidanceParseError("unknown default action %r" % default)
    rules: List[PolicyRule] = []
    for i, raw in enumerate(raw_rules):
        where = "rule %d" % i
        action = raw.get("action")
        if action not in (ALLOW, DENY):
            raise GuidanceParseError("%s: action must be allow or deny" % where)
        pattern_raw = raw.get("pattern")
        if not isinstance(pattern_raw, dict):
            raise GuidanceParseError("%s: missing pattern" % where)
        predicates = pattern_raw.get("p", "?")
        if not isinstance(predicates, list):
            predicates = [predicates]
        if not predicates:
            raise GuidanceParseError("%s: pattern p must be an IRI, '?' or a non-empty IRI list"
                                     % where)
        source = raw.get("source", WILDCARD)
        if not isinstance(source, str):
            raise GuidanceParseError("%s: malformed source constraint" % where)
        priority = raw.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise GuidanceParseError("%s: priority must be an integer" % where)
        exclusive = raw.get("exclusive")
        if exclusive not in (None, SUBJECT_PREDICATE):
            raise GuidanceParseError("%s: unknown exclusive key %r" % (where, exclusive))
        for pred in predicates:
            try:
                pattern = TriplePattern(
                    _parse_policy_term(pattern_raw.get("s", "?"), "s"),
                    _parse_policy_term(pred, "p"),
                    _parse_policy_term(pattern_raw.get("o", "?"), "o"),
                )
            except (GuidanceParseError, IriError) as exc:
                raise GuidanceParseError("%s: %s" % (where, exc)) from exc
            rules.append(PolicyRule(action, pattern, source, priority, exclusive, i))
    return ContentPolicy(rules, default)


def relevance_decision(policy: ContentPolicy, triple: Triple,
                       source_doc_iri: str) -> Tuple[bool, Optional[PolicyRule]]:
    """Evaluate rules in descending priority; the first match decides."""
    for rule in policy.ordered_rules():
        if rule.matches(triple, source_doc_iri):
            return rule.action == ALLOW, rule
    return policy.default_action == ALLOW, None


def triple_relevant(policy: ContentPolicy, triple: Triple, source_doc_iri: str) -> bool:
    return relevance_decision(policy, triple, source_doc_iri)[0]


PoolEntry = Tuple[Triple, str]


def apply_overrides(pool: Iterable[PoolEntry], policy: ContentPolicy) -> Set[PoolEntry]:
    """Enforce exclusive rules over the already-relevant pool.

    Each rule with an exclusive subject-predicate key, in `ordered_rules()`
    order, claims the (subject, predicate) keys of the surviving entries it
    matches. It drops each surviving entry with a claimed key whose source
    document its source constraint rejects, unless a rule ahead of it in
    `ordered_rules()` matches the entry: only entries admitted by a rule
    ranked below it, or by the default, are displaced.
    """
    surviving: Set[PoolEntry] = set(pool)
    ordered = policy.ordered_rules()
    for position, rule in enumerate(ordered):
        if rule.exclusive_key != SUBJECT_PREDICATE:
            continue
        claimed = {(t.subject, t.predicate) for t, src in surviving if rule.matches(t, src)}
        surviving = {
            (t, src) for t, src in surviving
            if (t.subject, t.predicate) not in claimed
            or rule.source_matches(t, src)
            or any(ahead.matches(t, src) for ahead in ordered[:position])
        }
    return surviving
