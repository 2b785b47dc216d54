"""
Traversal guidance: linking-structure registries and content policies.

A linking-structure registry tells the engine, per document scope, which link
predicates lead to documents worth following for which kinds of triple
patterns. A content policy decides which triples from which source documents
may contribute to results at all, with priorities, a same-origin source
constraint, and exclusive rules whose admitted triples displace same-subject
same-predicate triples admitted from other sources by lower-priority rules.
A scope or a source prefix holds the documents of one origin whose path
starts with its path, or, with a scheme alone, every document of that scheme.
Same-origin, source prefixes and scopes all read one parse of where an IRI
is (`_place`), in which an empty path after a host is "/".
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union
from urllib.parse import urlsplit

from .rdf import (
    Graph,
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
    within: Prefix = field(init=False, repr=False, compare=False)  # the scope, parsed

    def __post_init__(self):
        object.__setattr__(self, "within", _parse_prefix(self.scope))

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
    """The rules whose scope holds doc_iri most narrowly, in declaration
    order: a scope with a host before a scheme-only one, then the longest
    path prefix within the document's origin.

    Falls back to the registry's default mode when no scope holds doc_iri.
    """
    in_scope = [r for r in registry.rules if _within(r.within, doc_iri)]
    if not in_scope:
        return registry.default_mode
    narrowest = max(_narrowness(r.within) for r in in_scope)
    return [r for r in in_scope if _narrowness(r.within) == narrowest]


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
    """Each triple of doc that guided traversal reads links from, in triple
    order, with the candidate documents it offers: all it links to when the
    policy finds it relevant, else its object's document when a structure
    rule follows its predicate (structure rules are trusted user guidance).
    """
    follow: Set[str] = set()
    if isinstance(structure, list):
        follow = {p for rule in structure if rule.follow != SELF for p in rule.follow}
    for t, targets in sorted(doc.hyperlinks):
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


def _iri(raw: object) -> Optional[Term]:
    """A guidance file's IRI as a term: None unless written with '://' or
    'mailto:', as JSON expands no prefixed name; IriError when malformed."""
    if isinstance(raw, str) and ("://" in raw or raw.startswith("mailto:")):
        return Term.iri(raw)
    return None


def _iri_set(raw: object) -> Optional[FrozenSet[str]]:
    """A registry's list of IRIs as a set; None unless each is an IRI."""
    try:
        return frozenset(raw) if isinstance(raw, list) and all(map(_iri, raw)) else None
    except IriError:
        return None


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
        if not isinstance(scope, str):
            raise GuidanceParseError("%s: scope must be an IRI prefix" % where)
        preds = raw.get("patternPredicates", WILDCARD)
        pattern_predicates = WILDCARD if preds == WILDCARD else _iri_set(preds)
        if not pattern_predicates:
            raise GuidanceParseError(
                "%s: patternPredicates must be '*' or a non-empty IRI list" % where
            )
        follow_raw = raw.get("follow")
        follow = SELF if follow_raw == SELF else _iri_set(follow_raw)
        if follow is None:
            raise GuidanceParseError(
                "%s: follow must be 'self' or a list of link predicates" % where
            )
        try:
            rules.append(StructureRule(scope, pattern_predicates, follow))
        except GuidanceParseError as exc:
            raise GuidanceParseError("%s: scope must be an IRI prefix: %s" % (where, exc)) from exc
    return LinkingStructureRegistry(rules, default)


@dataclass(frozen=True)
class PolicyRule:
    """One content-policy rule. A policy tries its rules by descending
    priority, and ties in the order the rules were given to `ContentPolicy`."""

    action: str  # allow | deny
    pattern: TriplePattern  # variables act as wildcards
    source: str  # IRI prefix, SAME_ORIGIN, or WILDCARD
    priority: int
    exclusive_key: Optional[str] = None  # only SUBJECT_PREDICATE
    entry: int = 0  # position of the rule's entry in the policy file, from 0
    within: Optional[Prefix] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source not in (WILDCARD, SAME_ORIGIN):
            object.__setattr__(self, "within", _parse_prefix(self.source))

    def matches(self, triple: Triple, source_doc_iri: str) -> bool:
        if match_triple(triple, self.pattern) is None:
            return False
        return self.source_matches(triple, source_doc_iri)

    def source_matches(self, triple: Triple, source_doc_iri: str) -> bool:
        if self.source == WILDCARD:
            return True
        if self.source == SAME_ORIGIN:
            # A subject without an origin is same-origin with nothing.
            origin = _place(triple.subject.value)[0]
            return len(origin) > 1 and origin == _place(source_doc_iri)[0]
        return _within(self.within, source_doc_iri)


_DEFAULT_PORTS = {"http": 80, "https": 443}


# Where documents are, as a source prefix or structure scope says: the
# origin a document must have and the prefix its path must start with. A
# scheme-only prefix, such as "https://", has the origin (scheme,) and holds
# every document of that scheme.
Prefix = Tuple[tuple, str]


def _parse_prefix(text: str) -> Prefix:
    """A source prefix or structure scope, parsed once when its rule is built.

    A prefix without a path, such as "https://uma.ex", holds the whole
    origin. Raises GuidanceParseError for a prefix with userinfo, a query or
    a fragment, and for one that is not scheme-only and has no origin.
    """
    if "://" not in text:
        raise GuidanceParseError("%r has no '://'" % (text,))
    if "?" in text or "#" in text:
        raise GuidanceParseError("%r has a query or a fragment" % (text,))
    try:
        parts = urlsplit(text)
    except ValueError as exc:
        raise GuidanceParseError("%r is malformed: %s" % (text, exc)) from exc
    if "@" in parts.netloc:
        raise GuidanceParseError("%r has userinfo" % (text,))
    if not parts.netloc and not parts.path:
        return (parts.scheme,), ""
    origin = _place(text)[0]
    if len(origin) == 1:
        raise GuidanceParseError("%r has no origin" % (text,))
    return origin, parts.path


# Bounded: each triple of a document is checked against the same source, and
# its subjects name few others.
@functools.lru_cache(maxsize=1024)
def _place(iri: str) -> Prefix:
    """Where iri is: its RFC 6454 origin, the scheme, lowercased host and
    port (the scheme's default when none is given), or its scheme alone
    without a host or with a malformed port; and its path, "/" when it is
    empty after a host (RFC 3986, section 6.2.3)."""
    parts = urlsplit(iri)
    try:
        if parts.hostname:
            port = _DEFAULT_PORTS.get(parts.scheme) if parts.port is None else parts.port
            return (parts.scheme, parts.hostname, port), parts.path or "/"
    except ValueError:  # a malformed port
        pass
    return (parts.scheme,), parts.path


def _within(prefix: Prefix, iri: str) -> bool:
    """Whether a document is where the prefix says: its origin equal (its
    scheme, for a scheme-only prefix), and its path starting with the
    prefix's path."""
    origin, path = prefix
    doc_origin, doc_path = _place(iri)
    return doc_origin[:len(origin)] == origin and doc_path.startswith(path)


def _narrowness(prefix: Prefix) -> Tuple[int, int]:
    """Of two prefixes that hold a document, the narrower has the larger
    value: a host beats a scheme alone, then a longer path wins."""
    origin, path = prefix
    return len(origin), len(path)


@dataclass
class ContentPolicy:
    """A content policy: its rules, by descending priority, and the action
    taken on a triple no rule matches. The rules given are sorted once, when
    the policy is built, with a stable sort: equal priorities keep the order
    they are given in, as parse_policy appends them (declaration order, list
    expansion included).
    """

    rules: List[PolicyRule] = field(default_factory=list)
    default_action: str = ALLOW

    def __post_init__(self):
        self.rules = sorted(self.rules, key=lambda r: -r.priority)


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
    iri = _iri(raw)
    if iri is None:
        raise GuidanceParseError("malformed IRI %r in policy pattern" % raw)
    return iri


def parse_policy(text: str) -> ContentPolicy:
    """Compile a content policy from its JSON form.

    {"default": "allow"|"deny",
     "rules": [{"action": "allow"|"deny",
                "pattern": {"s": iri|"?", "p": iri|[iri,...]|"?", "o": iri|literal|"?"},
                "source": iri-prefix|"same-origin-as-subject"|"*",
                "priority": int,
                "exclusive": "subject-predicate"?}, ...]}

    A list in the "p" field is shorthand for one sibling rule per predicate.
    A source IRI prefix is parsed as a structure rule's scope is
    (`_parse_prefix`): it holds the documents of its origin whose path starts
    with its path.
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
            raise GuidanceParseError("%s: malformed source constraint %r: not %r, %r or an"
                                     " IRI prefix" % (where, source, WILDCARD, SAME_ORIGIN))
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
            try:
                rules.append(PolicyRule(action, pattern, source, priority, exclusive, i))
            except GuidanceParseError as exc:
                raise GuidanceParseError("%s: malformed source constraint: %s" % (where, exc)) from exc
    return ContentPolicy(rules, default)


def relevance_decision(policy: ContentPolicy, triple: Triple,
                       source_doc_iri: str) -> Tuple[bool, Optional[PolicyRule]]:
    """Evaluate rules in descending priority; the first match decides."""
    for rule in policy.rules:
        if rule.matches(triple, source_doc_iri):
            return rule.action == ALLOW, rule
    return policy.default_action == ALLOW, None


def triple_relevant(policy: ContentPolicy, triple: Triple, source_doc_iri: str) -> bool:
    return relevance_decision(policy, triple, source_doc_iri)[0]


def apply_overrides(sources: Dict[str, Graph], policy: ContentPolicy) -> Dict[str, Graph]:
    """Enforce exclusive rules over the already-relevant pool, given and
    returned as each source document's Graph.

    Each rule with an exclusive subject-predicate key, in `policy.rules`
    order, claims the (subject, predicate) keys of the surviving triples it
    matches in their documents. It drops each surviving triple with a
    claimed key from each document its source constraint rejects, unless a
    rule ahead of it matches the triple there: only triples admitted by a
    rule ranked below it, or by the default, are displaced. A document whose
    triples are all displaced keeps an empty graph. With no exclusive rule
    the pool is returned as given.
    """
    for position, rule in enumerate(policy.rules):
        if rule.exclusive_key != SUBJECT_PREDICATE:
            continue
        claimed = {(t.subject, t.predicate) for src, g in sources.items()
                   for t in g.unordered() if rule.matches(t, src)}
        sources = {src: Graph(
            t for t in g.unordered()
            if (t.subject, t.predicate) not in claimed
            or rule.source_matches(t, src)
            or any(ahead.matches(t, src) for ahead in policy.rules[:position])
        ) for src, g in sources.items()}
    return sources
