"""Golden differential for the Turtle and query parsers.

Seeded generators write 3,000 Turtle texts and 1,000 query texts: valid ones,
and ones with a single character that parsing hinges on (`"` `\\` `<` `>` `@`
`#` `.` `;` `,` `?` `{` or a newline) inserted or deleted. parser_golden.json
holds a short digest of each outcome: the sorted N-Triples of the graph or the
`Query` repr, or else the exception's class, message, line and column. A
faster parser must leave every outcome as it was. The module imports no
pytest, so it also runs on its own; after a deliberate change of behaviour,
rewrite the file with

    PYTHONPATH=src python tests/test_parser_golden.py --write

which first prints each case whose outcome changed, with the recorded digest
and the new outcome, so the rewrite can be confirmed outcome by outcome, and
leaves the file untouched when none changed.

The digests were recorded with Python 3.11; they replay unchanged on 3.10.13
and 3.13.0.
"""
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from linkquery.query import parse_query
from linkquery.rdf import to_ntriples
from linkquery.turtle import parse_turtle

GOLDEN = Path(__file__).with_name("parser_golden.json")
TURTLE_CASES = 3_000
QUERY_CASES = 1_000
MUTATION_CHARS = '"\\<>@#.;,?{\n'

BASES = [
    "https://a.ex/dir/doc", "http://a.ex", "http://h.ex/d/#top", "https://u@h.ex:8080/a/b.ttl",
    "http://a.ex/d?q=1", "http://a.ex/a;p/b", "HTTP://A.ex/x", "file:///tmp/doc.ttl",
    "urn:isbn:1", "rel/doc",
]
ABSOLUTE_IRIS = ["https://x.ex/#a", "http://y.ex/doc", "mailto:a@x.ex", "urn:isbn:1"]
RELATIVE_IRIS = [
    "", "#me", "p1#me", "p1", "../up#x", "/top#r", "?q=1", "sub/doc#s", "caf\u00e9#c", "x;y",
]
PNAMES = ["foaf:name", "foaf:knows", "foaf:mbox", "dbr:X", "rdf:type"]
PREFIXES = ["ex", "", "foaf", "v2"]
LOCAL_NAMES = ["p", "", "q-1", "_x"]
NAMESPACES = ["https://v.ex/ns#", "http://v.ex/", "people#", "", "../v/"]
LITERAL_PIECES = [
    "a", "Z", "0", " ", "\u00e9", "\u65e5", "\U0001f600", "#", "<", ">", "@", ".", ";", ",",
    "?", "{", ":", "\\\\", '\\"', "\\n", "\\t", "\\r",
]
LANGUAGES = ["", "", "", "@en", "@en-GB", "@x-1"]
SPACES = [" ", " ", " ", "  ", "\t", "\n", "\r\n", " # note\n", ""]
VARIABLES = ["?s", "?o", "?n", "?x_1"]


def _iri(rng, relative=True):
    if relative and rng.random() < 0.6:
        return "<%s>" % rng.choice(RELATIVE_IRIS)
    return "<%s>" % rng.choice(ABSOLUTE_IRIS)


def _pname(rng, declared):
    """A prefixed name, rarely one with an undeclared prefix."""
    prefixes = declared if declared and rng.random() < 0.5 else PREFIXES
    if prefixes is PREFIXES and rng.random() < 0.9:
        return rng.choice(PNAMES)
    return "%s:%s" % (rng.choice(prefixes), rng.choice(LOCAL_NAMES))


def _space(rng):
    return rng.choice(SPACES)


def _variable(rng):
    return rng.choice(VARIABLES)


def _literal(rng):
    body = "".join(rng.choice(LITERAL_PIECES) for _ in range(rng.randrange(6)))
    return '"%s"%s' % (body, rng.choice(LANGUAGES))


def _term(rng, position, declared, relative=True, extra=()):
    forms = [lambda r: _iri(r, relative), lambda r: _pname(r, declared)]
    if position == "predicate":
        forms.append(lambda r: "a")
    if position == "object":
        forms += [_literal, _literal]
    forms += list(extra)
    return rng.choice(forms)(rng)


def random_turtle(rng):
    parts = []
    declared = rng.sample(PREFIXES, rng.randrange(3))
    for prefix in declared:
        parts.append("@prefix %s: <%s> .%s" % (prefix, rng.choice(NAMESPACES), _space(rng)))
    for _ in range(1 + rng.randrange(4)):
        predicates = []
        for _ in range(1 + rng.randrange(3)):
            objects = (",%s" % _space(rng)).join(
                _term(rng, "object", declared) for _ in range(1 + rng.randrange(3)))
            predicates.append("%s%s%s" % (_term(rng, "predicate", declared), _space(rng), objects))
        trailing = ";" if rng.random() < 0.2 else ""
        parts.append("%s%s%s%s%s.%s" % (
            _term(rng, "subject", declared), _space(rng), (";" + _space(rng)).join(predicates), trailing,
            _space(rng), _space(rng)))
    return "".join(parts)


def random_query(rng):
    parts = []
    declared = rng.sample(PREFIXES, rng.randrange(2))
    for prefix in declared:
        parts.append("PREFIX %s: <%s>%s" % (prefix, rng.choice(ABSOLUTE_IRIS[:2] + ["people#"]), _space(rng)))
    projection = " ".join(rng.sample(VARIABLES, 1 + rng.randrange(2)))

    def patterns():
        out = []
        for _ in range(1 + rng.randrange(2)):
            pattern = " ".join(_term(rng, position, declared, False, [_variable, _variable])
                               for position in ("subject", "predicate", "object"))
            if rng.random() < 0.3:
                pattern += " ; %s %s" % (_term(rng, "predicate", declared, False, [_variable]),
                                         _term(rng, "object", declared, False, [_variable]))
            out.append(pattern)
        return (" .%s" % _space(rng)).join(out)

    body = patterns()
    if rng.random() < 0.4:
        body += " OPTIONAL {%s%s }" % (_space(rng), patterns())
    parts.append("SELECT %s WHERE {%s%s%s}" % (projection, _space(rng), body, _space(rng)))
    return "".join(parts)


def mutate(rng, text, case):
    """The text as generated (case 0), with a character inserted (1) or deleted (2)."""
    if case == 1:
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + rng.choice(MUTATION_CHARS) + text[pos:]
    if case == 2:
        positions = [i for i, ch in enumerate(text) if ch in MUTATION_CHARS]
        if positions:
            pos = rng.choice(positions)
            return text[:pos] + text[pos + 1:]
    return text


def turtle_cases():
    rng = random.Random(808)
    for i in range(TURTLE_CASES):
        text = mutate(rng, random_turtle(rng), i % 3)
        yield text, rng.choice(BASES)


def query_cases():
    rng = random.Random(809)
    for i in range(QUERY_CASES):
        yield mutate(rng, random_query(rng), i % 3)


def _failure(exc):
    return "%s|%s|%s|%s" % (type(exc).__name__, exc, getattr(exc, "line", None),
                            getattr(exc, "column", None))


def turtle_outcome(text, base):
    try:
        return to_ntriples(parse_turtle(text, base))
    except Exception as exc:  # the class is part of the outcome
        return _failure(exc)


def query_outcome(text):
    try:
        return repr(parse_query(text))
    except Exception as exc:  # the class is part of the outcome
        return _failure(exc)


def digest(outcome):
    return hashlib.sha256(outcome.encode("utf-8")).hexdigest()[:12]


def outcomes():
    return {
        "turtle": [turtle_outcome(text, base) for text, base in turtle_cases()],
        "query": [query_outcome(text) for text in query_cases()],
    }


def test_outcomes_match_golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = {"turtle": list(turtle_cases()), "query": list(query_cases())}
    for kind, current in outcomes().items():
        assert len(recorded[kind]) == len(current) == len(cases[kind])
        changed = [(i, cases[kind][i]) for i, (old, new) in enumerate(zip(recorded[kind], current))
                   if old != digest(new)]
        assert changed[:5] == [], "%d %s outcomes changed" % (len(changed), kind)


def test_cases_reach_every_outcome():
    current = outcomes()
    turtle = "\n".join(current["turtle"])
    for message in (
        "unterminated IRI reference", "unterminated literal", "unknown escape in literal",
        "malformed language tag", "unexpected '@'", "unexpected character '?'",
        "unexpected character '{'", "unknown prefix", "unterminated statement",
        "unexpected token", "subject must be an IRI", "predicate must be an IRI",
        "expected ',', ';' or '.'", "expected prefix name", "expected namespace IRI",
        "expected '.' after @prefix", "IriError",
    ):
        assert message in turtle, message
    assert sum(not o.startswith(("TurtleParseError|", "IriError|")) for o in current["turtle"]) >= 900
    query = "\n".join(current["query"])
    for message in ("Query(projection=", "malformed variable", "unterminated literal",
                    "relative IRI", "expected '{' after WHERE", "unexpected end of query"):
        assert message in query, message


def write_golden():
    """Rewrite the golden file, first printing each case whose outcome
    changed: its kind, index and text, the recorded digest and the new
    outcome with its digest. When none changed, say so and leave the file
    untouched."""
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    current = outcomes()
    cases = {"turtle": list(turtle_cases()), "query": list(query_cases())}
    changed = 0
    for kind, values in current.items():
        pairs = itertools.zip_longest(recorded.get(kind, []), values, cases[kind])
        for i, (old, new, case) in enumerate(pairs):
            if new is None or old != digest(new):
                changed += 1
                print("%s %d: %r" % (kind, i, case))
                print("  old: %s" % old)
                print("  new: %s" % ("%s %r" % (digest(new), new) if new is not None else None))
    if not changed:
        print("no outcome changed; left %s untouched" % GOLDEN)
        return
    GOLDEN.write_text(json.dumps(
        {kind: [digest(o) for o in values] for kind, values in current.items()},
        indent=0) + "\n", encoding="utf-8")
    print("wrote %s: %d outcomes changed" % (GOLDEN, changed))


def test_write_lists_changed_outcomes(tmp_path, monkeypatch, capsys):
    # A rewrite that changes nothing leaves the file as it is; one that
    # changes an outcome lists it before it writes.
    original = GOLDEN.read_bytes()
    golden = tmp_path / "golden.json"
    golden.write_bytes(original)
    monkeypatch.setitem(globals(), "GOLDEN", golden)
    write_golden()
    assert capsys.readouterr().out == "no outcome changed; left %s untouched\n" % golden
    assert golden.read_bytes() == original
    recorded = json.loads(golden.read_text(encoding="utf-8"))
    recorded["turtle"][7] = "000000000000"
    golden.write_text(json.dumps(recorded, indent=0) + "\n", encoding="utf-8")
    write_golden()
    text, base = list(turtle_cases())[7]
    outcome = turtle_outcome(text, base)
    assert capsys.readouterr().out == (
        "turtle 7: %r\n  old: 000000000000\n  new: %s %r\nwrote %s: 1 outcomes changed\n"
        % ((text, base), digest(outcome), outcome, golden))
    assert golden.read_bytes() == original


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        test_outcomes_match_golden()
        test_cases_reach_every_outcome()
        print("golden parser differential: every outcome as recorded")
