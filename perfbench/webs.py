"""
Seeded generators for the benchmark's document webs.

Each workload writes a fixture web (Turtle files plus a JSON manifest in the
format `FixtureSource.from_manifest` reads), optional guidance files, and a
list of query instances. Every instance carries the rows the engine must
return, computed here from the generator's own adjacency lists; nothing in
this module imports linkquery.

A row is a tuple with one cell per projected variable, in projection order.
A cell is None (unbound) or a `(kind, value, language)` triple, with kind
"iri" or "literal" and the literal's value unescaped.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

FOAF = "http://xmlns.com/foaf/0.1/"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"

Cell = Optional[Tuple[str, str, Optional[str]]]
Row = Tuple[Cell, ...]

GUIDED = "guided"
UNGUIDED = "unguided"

# Sizes give one query 0.13-0.2 s on a 2-core machine, so that a 25-second
# run completes well over 100 queries (p90 then has ten samples beyond it). "tiny" sizes are for tests.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "crawl": {
        "full": {"people": 70, "knows": 5, "mbox_share": 0.75, "topics": 10, "instances": 70},
        "tiny": {"people": 8, "knows": 3, "mbox_share": 0.75, "topics": 3, "instances": 4},
    },
    "join": {
        "full": {"communities": 6, "docs": 4, "people_per_doc": 9, "knows": 3, "mbox_share": 0.5},
        "tiny": {"communities": 2, "docs": 2, "people_per_doc": 3, "knows": 2, "mbox_share": 0.5},
    },
    "guided-latency": {
        "full": {"people": 18, "knows": 4, "mbox_share": 0.75, "spam_docs": 4,
                 "spam_names": 6, "topics": 6, "instances": 18},
        "tiny": {"people": 6, "knows": 2, "mbox_share": 0.5, "spam_docs": 2,
                 "spam_names": 3, "topics": 2, "instances": 4},
    },
    "bulk": {
        "full": {"people": 120, "knows": 3, "nick_share": 0.5, "note_parts": 40, "instances": 40},
        "tiny": {"people": 12, "knows": 3, "nick_share": 0.5, "note_parts": 3, "instances": 4},
    },
}
WORKLOADS = tuple(SIZES)


@dataclass(frozen=True)
class Instance:
    """One query to send: its text, seed IRI and the rows it must return."""

    query: str
    seed: str
    expected: FrozenSet[Row]
    # Rows unguided c-match returns on a guided web (untrusted rows included).
    expected_unguided: Optional[FrozenSet[Row]] = None


@dataclass(frozen=True)
class Web:
    mode: str  # GUIDED or UNGUIDED (c-match)
    manifest: Path
    structures: Optional[Path]
    policy: Optional[Path]
    instances: List[Instance]


def iri(value: str) -> Cell:
    return ("iri", value, None)


def lit(value: str, language: Optional[str] = None) -> Cell:
    return ("literal", value, language)


def _turtle_string(value: str) -> str:
    escaped = (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    )
    return '"%s"' % escaped


_SYLLABLES = ("an", "bo", "ca", "di", "el", "fo", "ga", "hu", "ir", "jo", "ka", "lu",
              "mi", "no", "or", "pe", "qu", "ra", "si", "tu", "ul", "ve", "wy", "xe")


def _name(rng: random.Random) -> str:
    first = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
    last = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
    return "%s %s" % (first.capitalize(), last.capitalize())


_OFFSETS = (1, 3, 8, 21, 5, 13, 2, 34)


def _friends(rng: random.Random, members: int, degree: int) -> List[List[int]]:
    """Out-neighbours per member: a circulant graph under a random relabelling.

    Position i knows positions i+1, i+3, i+8, ... (mod members). Offset 1
    makes every member reachable from every other one, so each traversal
    covers the whole web; and since every member sees the same shape of web
    around it, queries from different anchors do the same amount of work.
    """
    offsets: List[int] = []
    for o in _OFFSETS:
        if o % members and o % members not in offsets and len(offsets) < degree:
            offsets.append(o % members)
    label = list(range(members))
    rng.shuffle(label)
    out: List[List[int]] = [[] for _ in range(members)]
    for i in range(members):
        out[label[i]] = sorted(label[(i + o) % members] for o in offsets)
    return out


def _select(rng: random.Random, members: int, share: float) -> set:
    return set(rng.sample(range(members), round(share * members)))


def _write_web(directory: Path, bodies: Dict[str, str], notes: str) -> Path:
    """Write one .ttl file per document plus the manifest; return its path."""
    (directory / "web").mkdir(parents=True, exist_ok=True)
    documents = {}
    for n, (doc_iri, body) in enumerate(sorted(bodies.items())):
        rel = "web/d%04d.ttl" % n
        (directory / rel).write_text(body, encoding="utf-8")
        documents[doc_iri] = rel
    manifest = directory / "web.json"
    manifest.write_text(
        json.dumps({"documents": documents, "notes": notes}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return manifest


def _anchored_query(anchor: str, optional_predicate: str, optional_var: str) -> str:
    return (
        "PREFIX foaf: <%s>\n"
        "SELECT ?friend ?name ?%s WHERE {\n"
        "  <%s> foaf:knows ?friend .\n"
        "  ?friend foaf:name ?name .\n"
        "  OPTIONAL { ?friend foaf:%s ?%s }\n"
        "}\n" % (FOAF, optional_var, anchor, optional_predicate, optional_var)
    )


def _crawl(rng: random.Random, directory: Path, size) -> Web:
    """A social web: one document per person, linked by foaf:knows.

    Each person also links a mailto: IRI (most people) and a topic document
    that does not exist, so c-match issues requests that fail.
    """
    people = int(size["people"])
    base = "https://social.example/"
    friends = _friends(rng, people, int(size["knows"]))
    names = [_name(rng) for _ in range(people)]
    with_mbox = _select(rng, people, size["mbox_share"])
    topics = [i % int(size["topics"]) for i in range(people)]
    rng.shuffle(topics)

    def person(i):
        return "%sp%d#me" % (base, i)

    def mbox(i):
        return "mailto:p%d@mail.example" % i

    bodies = {}
    for i in range(people):
        lines = [
            "@prefix foaf: <%s> ." % FOAF,
            "",
            "<#me> foaf:name %s ;" % _turtle_string(names[i]),
            "    foaf:knows %s ;" % ", ".join("<p%d#me>" % j for j in friends[i]),
        ]
        if i in with_mbox:
            lines.append("    foaf:mbox <%s> ;" % mbox(i))
        lines.append("    foaf:topic_interest <https://topics.example/t%d> ." % topics[i])
        bodies["%sp%d" % (base, i)] = "\n".join(lines) + "\n"
    manifest = _write_web(directory, bodies, "crawl: social web, one document per person")

    instances = []
    for a in rng.sample(range(people), int(size["instances"])):
        expected = frozenset(
            (iri(person(f)), lit(names[f]), iri(mbox(f)) if f in with_mbox else None)
            for f in friends[a]
        )
        instances.append(Instance(_anchored_query(person(a), "mbox", "mbox"), person(a), expected))
    return Web(UNGUIDED, manifest, None, None, instances)


JOIN_QUERY = (
    "PREFIX foaf: <%s>\n"
    "SELECT ?a ?b ?name ?mbox WHERE {\n"
    "  ?a foaf:knows ?b .\n"
    "  ?b foaf:name ?name .\n"
    "  OPTIONAL { ?b foaf:mbox ?mbox }\n"
    "}\n" % FOAF
)


def _join(rng: random.Random, directory: Path, size) -> Web:
    """Disjoint communities of a few documents, each listing many people.

    The query is unanchored, so its answer is every knows edge of the
    community reached from the seed: evaluation dominates, traversal is short.
    """
    docs = int(size["docs"])
    per_doc = int(size["people_per_doc"])
    bodies = {}
    instances = []
    for c in range(int(size["communities"])):
        host = "https://c%d.example/" % c
        members = [(d, k) for d in range(docs) for k in range(per_doc)]
        friends = _friends(rng, len(members), int(size["knows"]))
        names = [_name(rng) for _ in members]
        with_mbox = _select(rng, len(members), size["mbox_share"])

        def person(m):
            return "%sd%d#p%d" % (host, members[m][0], members[m][1])

        def mbox(m):
            return "mailto:c%d.d%d.p%d@mail.example" % (c, members[m][0], members[m][1])

        for d in range(docs):
            lines = ["@prefix foaf: <%s> ." % FOAF, ""]
            for m, (doc, k) in enumerate(members):
                if doc != d:
                    continue
                lines.append("<#p%d> foaf:name %s ;" % (k, _turtle_string(names[m])))
                lines.append("    foaf:knows %s%s" % (
                    ", ".join("<d%d#p%d>" % members[f] for f in friends[m]),
                    " ;" if m in with_mbox else " .",
                ))
                if m in with_mbox:
                    lines.append("    foaf:mbox <%s> ." % mbox(m))
            bodies["%sd%d" % (host, d)] = "\n".join(lines) + "\n"
        expected = frozenset(
            (iri(person(a)), iri(person(b)), lit(names[b]), iri(mbox(b)) if b in with_mbox else None)
            for a in range(len(members))
            for b in friends[a]
        )
        instances.append(Instance(JOIN_QUERY, host + "d0", expected))
    rng.shuffle(instances)
    manifest = _write_web(directory, bodies, "join: disjoint communities of people lists")
    return Web(UNGUIDED, manifest, None, None, instances)


def _guided(rng: random.Random, directory: Path, size) -> Web:
    """A social web, one host per person, with third-party spam documents.

    People link spam documents through rdfs:seeAlso; each spam document
    asserts extra names about people it does not speak for. The policy only
    trusts knows/name/mbox triples from the subject's own origin and the
    registry only follows foaf:knows, so guided traversal skips the mailto,
    topic and spam links that c-match follows.
    """
    people = int(size["people"])
    friends = _friends(rng, people, int(size["knows"]))
    names = [_name(rng) for _ in range(people)]
    with_mbox = _select(rng, people, size["mbox_share"])
    spam_docs = int(size["spam_docs"])
    linker = rng.sample(range(people), spam_docs)  # person i links spam doc s
    spam_names: Dict[int, List[str]] = {i: [] for i in range(people)}
    bodies = {}

    def doc(i):
        return "https://p%d.example/" % i

    def person(i):
        return doc(i) + "#me"

    def mbox(i):
        return "mailto:me@p%d.example" % i

    for s in range(spam_docs):
        lines = ["@prefix foaf: <%s> ." % FOAF, ""]
        for victim in sorted(rng.sample(range(people), int(size["spam_names"]))):
            fake = "Cheap Pills %d-%d" % (s, victim)
            spam_names[victim].append(fake)
            lines.append("<%s> foaf:name %s ." % (person(victim), _turtle_string(fake)))
        bodies["https://spam%d.example/" % s] = "\n".join(lines) + "\n"
    topics = [i % int(size["topics"]) for i in range(people)]
    rng.shuffle(topics)
    for i in range(people):
        lines = [
            "@prefix foaf: <%s> ." % FOAF,
            "@prefix rdfs: <%s> ." % RDFS,
            "",
            "<#me> foaf:name %s ;" % _turtle_string(names[i]),
            "    foaf:knows %s ;" % ", ".join("<%s>" % person(j) for j in friends[i]),
        ]
        if i in with_mbox:
            lines.append("    foaf:mbox <%s> ;" % mbox(i))
        for s, who in enumerate(linker):
            if who == i:
                lines.append("    rdfs:seeAlso <https://spam%d.example/> ;" % s)
        lines.append("    foaf:topic_interest <https://topics.example/t%d> ." % topics[i])
        bodies[doc(i)] = "\n".join(lines) + "\n"
    manifest = _write_web(directory, bodies, "guided-latency: social web with spam documents")

    kept = [FOAF + "knows", FOAF + "name", FOAF + "mbox"]
    structures = directory / "structures.json"
    structures.write_text(json.dumps({
        "default": "restrictive",
        "rules": [{"scope": "https://", "patternPredicates": kept, "follow": [FOAF + "knows"]}],
    }, indent=1) + "\n", encoding="utf-8")
    policy = directory / "policy.json"
    policy.write_text(json.dumps({
        "default": "deny",
        "rules": [{"action": "allow", "pattern": {"s": "?", "p": kept, "o": "?"},
                   "source": "same-origin-as-subject", "priority": 5}],
    }, indent=1) + "\n", encoding="utf-8")

    instances = []
    for a in rng.sample(range(people), int(size["instances"])):
        trusted = set()
        everything = set()
        for f in friends[a]:
            e = iri(mbox(f)) if f in with_mbox else None
            trusted.add((iri(person(f)), lit(names[f]), e))
            for n in [names[f]] + spam_names[f]:
                everything.add((iri(person(f)), lit(n), e))
        instances.append(Instance(
            _anchored_query(person(a), "mbox", "mbox"), person(a),
            frozenset(trusted), frozenset(everything),
        ))
    return Web(GUIDED, manifest, structures, policy, instances)


_BULK_NOTES = (
    "line one\nline two",
    'says "hello"',
    "back\\slash",
    "tab\tseparated",
    "plain",
)


def _bulk(rng: random.Random, directory: Path, size) -> Web:
    """One large dump document: relative IRIs, @prefix, escaped literals.

    Every IRI in it names an entity of the dump itself, so traversal fetches
    one document. Long status literals give many bytes per triple, so the
    query's cost is parsing rather than sorting and matching triples.
    """
    people = int(size["people"])
    doc = "https://dump.example/people"
    friends = _friends(rng, people, int(size["knows"]))
    names = []
    for i in range(people):
        name = _name(rng)
        if i % 7 == 0:
            name = name.replace(" ", ' "the" ', 1)
        names.append((name, rng.choice((None, "en", "de", "fr-CA"))))
    nicks = {i: "%s\\%d" % (names[i][0].split()[0].lower(), i) for i in _select(rng, people, size["nick_share"])}
    lines = [
        "# People directory export.",
        "@prefix foaf: <%s> ." % FOAF,
        # An absolute namespace: the engine resolves a relative "<people#>"
        # to ".../people", dropping the empty fragment.
        "@prefix p: <%s#> ." % doc,
        "",
    ]
    for i in range(people):
        subject = "p:p%d" % i if i % 2 else "<#p%d>" % i
        name, lang = names[i]
        lines.append("%s foaf:name %s%s ;" % (subject, _turtle_string(name), "@" + lang if lang else ""))
        lines.append("    foaf:knows %s ;" % ", ".join(
            ("<#p%d>" if j % 3 else "p:p%d") % j for j in friends[i]))
        if i in nicks:
            lines.append("    foaf:nick %s ;" % _turtle_string(nicks[i]))
        note = " / ".join(rng.choice(_BULK_NOTES) for _ in range(int(size["note_parts"])))
        lines.append("    foaf:status %s ." % _turtle_string(note))
        if i % 25 == 0:
            lines.append("# -- page %d --" % (i // 25))
    manifest = _write_web(directory, {doc: "\n".join(lines) + "\n"}, "bulk: one dump document")

    def person(i):
        return "%s#p%d" % (doc, i)

    instances = []
    for a in rng.sample(range(people), int(size["instances"])):
        expected = frozenset(
            (iri(person(f)), lit(*names[f]), lit(nicks[f]) if f in nicks else None)
            for f in friends[a]
        )
        instances.append(Instance(_anchored_query(person(a), "nick", "nick"), doc, expected))
    return Web(UNGUIDED, manifest, None, None, instances)


_GENERATORS = {"crawl": _crawl, "join": _join, "guided-latency": _guided, "bulk": _bulk}


def generate(workload: str, seed: int, directory: Path, size: str = "full") -> Web:
    """Write the workload's web for this seed into directory (created if needed)."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    return _GENERATORS[workload](rng, directory, SIZES[workload][size])


def web_files(directory: Path) -> Dict[str, bytes]:
    """Every generated file under directory, keyed by relative path."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def projection_rows(rows: Sequence[dict], projection: Sequence[str]) -> List[Row]:
    """Convert engine rows (variable -> Term or None) to comparable tuples."""
    return [
        tuple(
            None if row[v] is None else (row[v].kind, row[v].value, row[v].language)
            for v in projection
        )
        for row in rows
    ]
