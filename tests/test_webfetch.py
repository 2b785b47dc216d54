import codecs
import http.server
import json
import socket
import threading

import pytest
import requests

from linkquery.fixtures import demo_manifest
from linkquery.turtle import parse_turtle
from linkquery.webfetch import (
    Dereferencer,
    Document,
    FetchResult,
    FixtureError,
    FixtureSource,
    LiveHttpSource,
    OK,
    NOT_FOUND,
    PARSE_ERROR,
)


class TestFixtureSource:
    def test_demo_manifest_serves_seven_documents(self, demo_source):
        assert len(demo_source.document_iris()) == 7
        assert "https://uma.ex/" in demo_source.document_iris()
        assert "http://dbpedia.org/resource/Mickey_Mouse" in demo_source.document_iris()

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps({"documents": {}}))
        source = FixtureSource.from_manifest(manifest)
        assert source.fetch("https://nowhere.ex/").outcome == NOT_FOUND

    def test_single_document_manifest(self, tmp_path):
        (tmp_path / "one.ttl").write_text('<https://one.ex/#x> foaf:name "One".')
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps({"documents": {"https://one.ex/": "one.ttl"}}))
        source = FixtureSource.from_manifest(manifest)
        assert source.fetch("https://one.ex/").outcome == OK
        assert source.fetch("https://other.ex/").outcome == NOT_FOUND

    def test_missing_body_listed_in_error(self, tmp_path):
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps({"documents": {"https://one.ex/": "gone.ttl"}}))
        with pytest.raises(FixtureError, match="gone.ttl"):
            FixtureSource.from_manifest(manifest)

    @pytest.mark.parametrize("text,message", [
        ('{"documents": ', "cannot load manifest"),
        ('{"notes": "no documents"}', "lacks a 'documents' object"),
        ('{"documents": ["a.ttl"]}', "lacks a 'documents' object"),
        ('[1]', "lacks a 'documents' object"),
        ('{"documents": {"https://a.ex/": 5}}', "lacks a 'documents' object of file paths"),
    ])
    def test_malformed_manifest(self, tmp_path, text, message):
        manifest = tmp_path / "web.json"
        manifest.write_text(text)
        with pytest.raises(FixtureError, match=message):
            FixtureSource.from_manifest(manifest)

    def test_manifest_or_body_not_utf8(self, tmp_path):
        manifest = tmp_path / "web.json"
        manifest.write_bytes(b'{"documents": {"https://a.ex/": "a.ttl"}}\xff')
        with pytest.raises(FixtureError, match="cannot load manifest .*utf-8"):
            FixtureSource.from_manifest(manifest)
        manifest.write_text(json.dumps({"documents": {"https://a.ex/": "a.ttl"}}))
        (tmp_path / "a.ttl").write_bytes(b'<https://a.ex/#s> <https://p.ex/p> "\xff".')
        with pytest.raises(FixtureError, match="cannot read fixture body .*a.ttl.*utf-8"):
            FixtureSource.from_manifest(manifest)

    def test_manifest_is_read_past_a_byte_order_mark(self, tmp_path):
        manifest = tmp_path / "web.json"
        manifest.write_bytes(BOM + json.dumps({"documents": {"https://a.ex/": "a.ttl"}}).encode())
        (tmp_path / "a.ttl").write_text('<https://a.ex/#s> <https://p.ex/p> "A".')
        assert FixtureSource.from_manifest(manifest).document_iris() == ["https://a.ex/"]

    def test_body_is_read_past_a_byte_order_mark(self, tmp_path):
        # Only the leading mark is skipped: the parser rejects a second one.
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps({"documents": {"https://a.ex/": "a.ttl",
                                                      "https://b.ex/": "b.ttl"}}))
        body = '<https://a.ex/#s> <https://p.ex/p> "A".'.encode()
        (tmp_path / "a.ttl").write_bytes(BOM + body)
        (tmp_path / "b.ttl").write_bytes(BOM + BOM + body)
        deref = Dereferencer(FixtureSource.from_manifest(manifest))
        wave = deref.fetch_wave(["https://a.ex/", "https://b.ex/"])
        assert [(e.iri, e.outcome) for e in deref.ledger.entries] == [
            ("https://a.ex/", OK), ("https://b.ex/", PARSE_ERROR)]
        assert len(wave["https://a.ex/"].triples) == 1

    def test_fragment_in_manifest_iri_rejected(self):
        # Nor is a document IRI no traversal would request accepted.
        for iri in ("https://one.ex/#me", "mailto:me@one.ex", "urn:isbn:1", "ftp://one.ex/"):
            with pytest.raises(FixtureError):
                FixtureSource({iri: ""})

    def test_pure_across_loads(self):
        a = FixtureSource.from_manifest(demo_manifest())
        b = FixtureSource.from_manifest(demo_manifest())
        for iri in a.document_iris():
            assert a.fetch(iri).body == b.fetch(iri).body


class TestHyperlinkTable:
    BODY = (
        '<https://a.ex/#me> <https://b.ex/pred> "v".\n'
        "<https://a.ex/#me> <https://p.ex/knows> <https://c.ex/#it>.\n"
        "<https://d.ex/#d> <https://p.ex/seeAlso> <https://c.ex/doc?#x>.\n"
        "<https://d.ex/#d> <https://p.ex/knows> <https://c.ex/>.\n"
    )

    def doc(self):
        return Document("https://a.ex/", parse_turtle(self.BODY, "https://a.ex/"))

    def test_each_triple_in_order_with_its_documents(self):
        doc = self.doc()
        assert [t for t, _ in sorted(doc.hyperlinks)] == list(doc.triples)
        assert [targets for _, targets in sorted(doc.hyperlinks)] == [
            ("https://a.ex/",),
            ("https://a.ex/", "https://c.ex/"),
            ("https://d.ex/", "https://c.ex/"),
            ("https://d.ex/", "https://c.ex/doc?"),
        ]

    def test_predicates_by_linked_document(self):
        # Subject-only documents are linked with no predicate; the predicate
        # IRI's document https://b.ex/ is not linked at all.
        assert self.doc().link_predicates == {
            "https://a.ex/": set(),
            "https://c.ex/": {"https://p.ex/knows"},
            "https://c.ex/doc?": {"https://p.ex/seeAlso"},
            "https://d.ex/": set(),
        }

    def test_computed_once(self):
        doc = self.doc()
        assert doc.hyperlinks is doc.hyperlinks
        assert doc.link_predicates is doc.link_predicates


class TestDereferencer:
    def test_document_iri_yields_its_document(self, demo_source):
        deref = Dereferencer(demo_source)
        doc = deref.fetch_wave(["https://uma.ex/"])["https://uma.ex/"]
        assert doc.doc_iri == "https://uma.ex/"
        assert len(doc.triples) == 3

    def test_about_document(self, demo_source):
        deref = Dereferencer(demo_source)
        doc = deref.fetch_wave(["https://ann.ex/about/"])["https://ann.ex/about/"]
        assert len(doc.triples) == 3
        assert all(t.subject.value == "https://ann.ex/#me" for t in doc.triples)

    def test_not_found_is_soft(self, demo_source):
        deref = Dereferencer(demo_source)
        doc = deref.fetch_wave(["https://unknown.ex/"])["https://unknown.ex/"]
        assert len(doc.triples) == 0
        assert deref.ledger.entries[-1].outcome == NOT_FOUND
        assert deref.ledger.distinct_ok == 0

    def test_parse_error_contributes_zero_triples(self):
        source = FixtureSource({"https://broken.ex/": "<https://broken.ex/ oops"})
        deref = Dereferencer(source)
        doc = deref.fetch_wave(["https://broken.ex/"])["https://broken.ex/"]
        assert len(doc.triples) == 0
        assert deref.ledger.entries[-1].outcome == PARSE_ERROR
        assert deref.ledger.distinct_ok == 0

    def test_empty_reference_names_the_document(self):
        deref = Dereferencer(FixtureSource({"https://x.ex/": "<> a <https://v.ex/Doc>."}))
        doc = deref.fetch_wave(["https://x.ex/"])["https://x.ex/"]
        [triple] = list(doc.triples)
        assert triple.n3() == (
            "<https://x.ex/> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <https://v.ex/Doc>."
        )
        assert deref.ledger.entries[-1].outcome == OK

    def test_iri_error_is_a_parse_error(self):
        class SchemelessRedirect:
            def fetch(self, doc_iri):
                return FetchResult(OK, "<rel> a <https://v.ex/Doc>.", "x.ex/")

        # The relative reference cannot be resolved against a schemeless base.
        deref = Dereferencer(SchemelessRedirect())
        doc = deref.fetch_wave(["https://x.ex/"])["https://x.ex/"]
        assert len(doc.triples) == 0
        assert deref.ledger.entries[-1].outcome == PARSE_ERROR

    def test_malformed_ipv6_host_is_a_parse_error(self):
        body = "<https://x.ex/> <https://p.ex/q> <http://[x>."
        deref = Dereferencer(FixtureSource({"https://x.ex/": body}))
        doc = deref.fetch_wave(["https://x.ex/"])["https://x.ex/"]
        assert len(doc.triples) == 0
        assert deref.ledger.entries[-1].outcome == PARSE_ERROR

    def test_distinct_ok_matches_definition(self, demo_source):
        deref = Dereferencer(demo_source)
        requests = [
            "https://uma.ex/",
            "https://uma.ex/",
            "https://ann.ex/about/",
            "https://missing.ex/",
            "https://ann.ex/",
        ]
        for iri in requests:
            deref.fetch_wave([iri])
        expected = {i for i in requests if i in demo_source.document_iris()}
        assert deref.ledger.distinct_ok == len(expected)

    def test_fetch_wave_orders_ledger(self, demo_source):
        deref = Dereferencer(demo_source)
        iris = ["https://uma.ex/", "https://ann.ex/", "https://bob.ex/"]
        deref.fetch_wave(iris)
        assert [e.iri for e in deref.ledger.entries] == iris

    def test_only_http_and_https_are_requested(self):
        class RecordingSource:
            def __init__(self):
                self.calls = []

            def fetch(self, doc_iri):
                self.calls.append(doc_iri)
                return FetchResult(NOT_FOUND)

        class RecordingSession:
            def __init__(self):
                self.calls = []

            def get(self, iri, **kwargs):
                self.calls.append(iri)
                raise requests.ConnectionError(iri)

        iris = ["mailto:ann@ann.ex", "urn:isbn:0451450523", "ftp://ann.ex/", "file:///x",
                "http://ann.ex/", "HTTPS://ann.ex/"]
        recording = RecordingSource()
        live = LiveHttpSource()
        live.session = RecordingSession()
        for source, calls in ((recording, recording.calls), (live, live.session.calls)):
            deref = Dereferencer(source)
            try:
                docs = deref.fetch_wave(iris)
            finally:
                deref.close()
            assert calls == ["http://ann.ex/", "HTTPS://ann.ex/"]
            assert list(docs) == iris
            assert all(len(doc.triples) == 0 for doc in docs.values())
            assert [(e.iri, e.outcome) for e in deref.ledger.entries] == [
                (iri, NOT_FOUND) for iri in iris]


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


NAME_LATIN1 = '<https://x.ex/#a> <https://p.ex/name> "Andr\u00e9".'.encode("iso-8859-1")
NAME_UTF8 = NAME_LATIN1.decode("iso-8859-1").encode("utf-8")
BOM = codecs.BOM_UTF8
CHARSET_BODIES = {  # path: (Content-Type, body)
    "/latin1": ("text/turtle; charset=ISO-8859-1", NAME_LATIN1),
    "/latin1-no-charset": ("text/turtle", NAME_LATIN1),
    "/utf8-no-charset": ("text/turtle", NAME_UTF8),
    "/utf8-unknown-charset": ('text/turtle; charset="no-such-charset"', NAME_UTF8),
    # codecs Python looks up but that raise UnicodeError on this body
    "/utf8-undefined-charset": ("text/turtle; charset=undefined", NAME_UTF8),
    "/utf8-idna-charset": ("text/turtle; charset=idna", NAME_UTF8),
    "/utf8-punycode-charset": ("text/turtle; charset=punycode", NAME_UTF8),
    # a charset the body has a byte invalid in
    "/utf8-us-ascii-charset": ("text/turtle; charset=us-ascii", NAME_UTF8),
    # UTF-8 after a byte-order mark: declared, by default, and read after a refusal
    "/utf8-bom": ("text/turtle; charset=UTF8", BOM + NAME_UTF8),
    "/utf8-bom-no-charset": ("text/turtle", BOM + NAME_UTF8),
    "/utf8-bom-us-ascii-charset": ("text/turtle; charset=us-ascii", BOM + NAME_UTF8),
}


@pytest.fixture
def http_server():
    stop_stalling = threading.Event()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path in ("/short", "/stall"):
                # A body that breaks off after its first bytes, or stops
                # sending them until the test ends.
                self.send_response(200)
                self.send_header("Content-Type", "text/turtle")
                self.send_header("Content-Length", "1000")
                self.end_headers()
                self.wfile.write(b"# cut")
                self.wfile.flush()
                if self.path == "/stall":
                    stop_stalling.wait(timeout=5)
            elif self.path in CHARSET_BODIES:
                content_type, body = CHARSET_BODIES[self.path]
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/redirect":
                self.send_response(302)
                self.send_header("Location", "/final")
                self.end_headers()
            elif self.path == "/final":
                body = b'<https://x.ex/#a> <https://p.ex/q> "ok".'
                self.send_response(200)
                self.send_header("Content-Type", "text/turtle")
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/big":
                self.send_response(200)
                self.end_headers()
                self.wfile.write(b"#" + b"x" * 10_000)
            else:
                self.send_response(404)
                self.end_headers()

        def log_message(self, *args):
            pass

    port = _free_port()
    server = http.server.HTTPServer(("127.0.0.1", port), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield "http://127.0.0.1:%d" % port
    stop_stalling.set()
    server.shutdown()
    server.server_close()


class TestLiveHttpSource:
    def test_unreachable_host_is_not_found(self):
        source = LiveHttpSource(timeout=0.5)
        port = _free_port()  # nothing listens here
        assert source.fetch("http://127.0.0.1:%d/x" % port).outcome == NOT_FOUND

    def test_redirect_final_iri_becomes_base(self, http_server):
        source = LiveHttpSource(timeout=5)
        deref = Dereferencer(source)
        doc = deref.fetch_wave([http_server + "/redirect"])[http_server + "/redirect"]
        assert doc.doc_iri == http_server + "/final"
        assert len(doc.triples) == 1
        # the ledger records the requested IRI
        assert deref.ledger.entries[0].iri == http_server + "/redirect"

    def test_other_schemes_are_refused_before_any_connection(self, monkeypatch):
        # Called directly, requests itself refuses the IRI (InvalidSchema):
        # no transport adapter is ever asked to send it.
        sent = []
        monkeypatch.setattr(requests.adapters.HTTPAdapter, "send",
                            lambda adapter, request, **kwargs: sent.append(request.url))
        source = LiveHttpSource()
        try:
            for iri in ("mailto:ann@ann.ex", "urn:isbn:0451450523", "ftp://ann.ex/", "file:///x"):
                assert source.fetch(iri).outcome == NOT_FOUND
        finally:
            source.session.close()
        assert sent == []

    @pytest.mark.parametrize("path,name", [
        ("/latin1", "Andr\u00e9"),
        ("/latin1-no-charset", "Andr\ufffd"),  # read as UTF-8, where \xe9 is malformed
        ("/utf8-no-charset", "Andr\u00e9"),
        ("/utf8-unknown-charset", "Andr\u00e9"),
        ("/utf8-undefined-charset", "Andr\u00e9"),
        ("/utf8-idna-charset", "Andr\u00e9"),
        ("/utf8-punycode-charset", "Andr\u00e9"),
        ("/utf8-us-ascii-charset", "Andr\u00e9"),
    ])
    def test_body_decoded_in_content_type_charset(self, http_server, path, name):
        doc = Dereferencer(LiveHttpSource(timeout=5)).fetch_wave([http_server + path])[
            http_server + path]
        [triple] = doc.triples
        assert triple.object.value == name

    @pytest.mark.parametrize("path", ["/utf8-bom", "/utf8-bom-no-charset",
                                      "/utf8-bom-us-ascii-charset"])
    def test_utf8_body_is_read_past_a_byte_order_mark(self, http_server, path):
        deref = Dereferencer(LiveHttpSource(timeout=5))
        doc = deref.fetch_wave([http_server + path])[http_server + path]
        assert deref.ledger.entries[-1].outcome == OK
        [triple] = doc.triples
        assert triple.object.value == "Andr\u00e9"

    def test_http_404_is_not_found(self, http_server):
        source = LiveHttpSource(timeout=5)
        assert source.fetch(http_server + "/nope").outcome == NOT_FOUND

    def test_oversize_body_yields_zero_triples(self, http_server):
        source = LiveHttpSource(timeout=5, max_body_bytes=100)
        deref = Dereferencer(source)
        doc = deref.fetch_wave([http_server + "/big"])[http_server + "/big"]
        assert len(doc.triples) == 0
        assert deref.ledger.distinct_ok == 0

    @pytest.mark.parametrize("path", ["/short", "/stall"])
    def test_body_that_breaks_off_or_stalls_is_not_found(self, http_server, path):
        # A Content-Length of 1000 over a 5-byte body, cut short or stalled
        # past the 0.2 s timeout: requests raises while the body is read.
        source = LiveHttpSource(timeout=0.2)
        responses = []
        get = source.session.get

        def recording_get(*args, **kwargs):
            responses.append(get(*args, **kwargs))
            return responses[-1]

        source.session.get = recording_get
        try:
            assert source.fetch(http_server + path).outcome == NOT_FOUND
        finally:
            source.session.close()
        [response] = responses
        assert response.raw.closed
