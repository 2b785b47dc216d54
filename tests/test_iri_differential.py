"""Differentials for the IRI fast paths of rdf.is_absolute_iri and the Turtle parser.

is_absolute_iri answers plain printable-ASCII strings with a scheme regex and
never calls urlsplit on them; the Turtle parser resolves fragment-only and
one-segment references by appending them to a per-base prefix. Each is
compared with a reference over random inputs. The module imports no pytest,
so the differentials also run on an interpreter without it:

    PYTHONPATH=src python tests/test_iri_differential.py
"""
import random
import string
from urllib.parse import urlsplit

from linkquery.rdf import IriError, is_absolute_iri, resolve_iri
from linkquery.turtle import _SLICED_BASE, _Parser

SCHEME_CHARS = set(string.ascii_letters + string.digits + "+-.")

TEXT_PIECES = list("aZz09+-.:/?#[]@%; \t\r\n\x00é") + [
    "http", "HTTP", "//", "://", "[::1]", "mailto:", "urn:", "x-y.z+w",
]

BASE_SCHEMES = ["http", "https", "HTTP", "Https", "file", "svn+ssh", "mailto", "urn"]
BASE_AUTHORITIES = ["//h.ex", "//H.ex:8080", "//u@h.ex", "//", ""]
BASE_SEGMENTS = ["", "a", "b;p", ".", "..", "c.ttl", "%7E", "A:b"]
BASE_QUERIES = ["", "?", "?q=1", "?a;b", "?/c"]
BASE_FRAGMENTS = ["", "#", "#f", "#f?g"]
UNRESOLVABLE_BASES = ["", "rel/doc", "1x:y", ".:a", " http://h.ex/"]

SLICE_SCHEMES = ["http", "https", "https", "HTTP", "ftp"]
SLICE_AUTHORITIES = ["//h.ex", "//u:p@H.ex:80", "//h.ex:", "//@", "//", "//h[1]", "//h;x", "//h\tx"]
SLICE_SEGMENTS = [
    "", "a", "b.ttl", ".", "..", "...", ".x", "x.", "%2E", "~u", "!$&'()*+,=", "@:", "b;p",
    "q?", "[1]", "\\", "\u00e9", " ", "\t",
]

REFERENCE_PIECES = [
    "a", "p1", "x.ttl", "Me", ".", "..", "...", "/", "//", "?", "q=1", ";", "p", ":",
    "#", "me", "%20", "~", "@", "!$&'()*+,=", "[", "]", " ", "\t", "\r", "é", "\\",
]


def reference_is_absolute(text):
    """RFC 3986 section 3.1: a letter, then letters, digits, '+', '-' or '.',
    then ':'. urlsplit only decides whether a bracketed authority is malformed."""
    try:
        urlsplit(text)
    except ValueError:
        return IriError
    head, colon, _ = text.partition(":")
    return bool(colon) and head.isascii() and head[:1].isalpha() and set(head) <= SCHEME_CHARS


def outcome(fn, *args):
    try:
        return fn(*args)
    except IriError:
        return IriError


def random_text(rng):
    return "".join(rng.choice(TEXT_PIECES) for _ in range(rng.randrange(7)))


def random_base(rng):
    if rng.random() < 0.05:
        return rng.choice(UNRESOLVABLE_BASES)
    segments = [rng.choice(BASE_SEGMENTS) for _ in range(rng.randrange(5))]
    return "%s:%s%s%s%s%s" % (
        rng.choice(BASE_SCHEMES), rng.choice(BASE_AUTHORITIES), rng.choice(["/", ""]),
        "/".join(segments), rng.choice(BASE_QUERIES), rng.choice(BASE_FRAGMENTS),
    )


def random_reference(rng):
    # Mostly the forms the parser resolves by prefix, the rest anything.
    form = rng.random()
    if form < 0.3:
        return "#" + "".join(rng.choice(REFERENCE_PIECES) for _ in range(rng.randrange(3)))
    if form < 0.6:
        return rng.choice(REFERENCE_PIECES) + rng.choice(["", "#", "#me", "#a/b?c"])
    reference = "".join(rng.choice(REFERENCE_PIECES) for _ in range(1 + rng.randrange(4)))
    return reference.replace("\n", "")  # an IRI token cannot hold a newline


def test_is_absolute_iri_matches_the_rfc_scheme_rule():
    rng = random.Random(7)
    mismatches = []
    for _ in range(200_000):
        text = random_text(rng)
        if outcome(is_absolute_iri, text) != reference_is_absolute(text):
            mismatches.append(text)
    assert mismatches == []


def test_parser_resolution_matches_resolve_iri():
    rng = random.Random(11)
    bases = [random_base(rng) for _ in range(2_000)]
    for marker in ("?", ";", "//", "..", "HTTP:", "mailto:", "urn:"):
        assert any(marker in base for base in bases), marker
    mismatches = []
    for base in bases:
        parser = _Parser("", base, {})  # one parser per document base
        for _ in range(100):
            reference = random_reference(rng)
            if outcome(parser._resolve, reference) != outcome(resolve_iri, base, reference):
                mismatches.append((base, reference))
    assert mismatches == []


def test_sliced_base_prefixes_match_the_probes():
    """A base the parser slices gives the prefixes two resolve_iri probes cut."""
    rng = random.Random(13)
    sliced = 0
    mismatches = []
    for _ in range(40_000):
        segments = [rng.choice(SLICE_SEGMENTS) for _ in range(rng.randrange(5))]
        base = "%s:%s%s%s%s" % (
            rng.choice(SLICE_SCHEMES), rng.choice(SLICE_AUTHORITIES),
            "/" * rng.randrange(2) + "/".join(segments),
            rng.choice(["", "", "?", "?q"]), rng.choice(["", "", "#", "#f", "#f/../g?h", "#\u00e9"]),
        )
        if _SLICED_BASE.fullmatch(base) is None:
            continue
        sliced += 1
        probes = tuple(outcome(resolve_iri, base, probe)[:-len(probe)] for probe in ("#x", "x"))
        if _Parser("", base, {})._base_prefixes != probes:
            mismatches.append(base)
    assert sliced > 2_000
    assert mismatches == []


if __name__ == "__main__":
    test_is_absolute_iri_matches_the_rfc_scheme_rule()
    test_parser_resolution_matches_resolve_iri()
    test_sliced_base_prefixes_match_the_probes()
    print("all three differentials: zero mismatches")
