"""
Dereferencing document IRIs into parsed documents.

A source maps fragmentless document IRIs to raw Turtle bodies: either an
in-process fixture web loaded from a JSON manifest, or live HTTP. The
Dereferencer alone decides what is requested, only http(s) IRIs, and keeps a
ledger of every IRI it is given, so tests (and the CLI) can assert how many
network fetches a traversal strategy needed. It has no cache: a traversal
never asks for a document twice. Its parses share one table of IRI terms, so
each IRI is built and checked once per Dereferencer, that is per traversal,
and the table goes when the Dereferencer does. Each Document carries its
sorted triples and its hyperlink table, each computed once on first use; the
table reads each IRI's document from its term, which cut it once, when built.
The hyperlink table reads the sorted triples, and so does the content policy
when it has rules; a traversal that reads neither sorts no document.

The thread that asks for a wave fetches it, and helper threads from the
Dereferencer's pool join in only while a request blocks: before each request
it claims with more left, a thread makes sure one helper stands ready. A
source that blocks has up to MAX_IN_FLIGHT requests in flight within
microseconds, so every wave of up to ten documents costs one round of request
latency; a source that answers at once is served on the calling thread, with
one helper hand-off per wave. The pool lives as long as the Dereferencer (a
traversal). Helpers only call the source; bodies are parsed on the calling
thread, because parsing is CPU work that threads would only contend for.
"""
from __future__ import annotations

import functools
import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rdf import IRI, Graph, IriError, Term, Triple, strip_fragment
from .turtle import TurtleParseError, parse_turtle

OK = "ok"
NOT_FOUND = "not-found"
PARSE_ERROR = "parse-error"

# Redirects LiveHttpSource follows for one request.
MAX_REDIRECTS = 5

# Requests a Dereferencer keeps in flight at most: the calling thread's and
# one per helper thread of its pool. Ten is requests'
# adapters.DEFAULT_POOLSIZE, the connections LiveHttpSource's session keeps
# open per host.
MAX_IN_FLIGHT = 10


class FixtureError(Exception):
    pass


def _requested(doc_iri: str) -> bool:
    """Whether the IRI's scheme is http or https, ignoring case: the IRIs requested."""
    return doc_iri.partition(":")[0].lower() in ("http", "https")


@dataclass(frozen=True, init=False)
class Document:
    doc_iri: str
    triples: Graph

    def __init__(self, doc_iri: str, triples: Graph):
        fields = self.__dict__  # frozen: fields are stored past __setattr__
        fields["doc_iri"] = doc_iri
        fields["triples"] = triples

    @functools.cached_property
    def sorted_triples(self) -> List[Triple]:
        """The triples in graph order, sorted once for every reader."""
        return list(self.triples)

    @functools.cached_property
    def hyperlinks(self) -> List[Tuple[Triple, Tuple[str, ...]]]:
        """Each triple in order, with the documents it links to: its
        subject's, then its object's if the object is an IRI. Predicates
        never link.

        Each IRI term cut its value at the first '#' when it was built
        (`Term.document`), and the parser builds one term per IRI per
        traversal, so an IRI is cut once however many triples name it.
        """
        return [
            (t, (t.subject.document, t.object.document) if t.object.kind == IRI
             else (t.subject.document,))
            for t in self.sorted_triples
        ]

    @functools.cached_property
    def link_predicates(self) -> Dict[str, Set[str]]:
        """Each linked document, with the predicates whose IRI objects link to it."""
        out: Dict[str, Set[str]] = {}
        for t, (subject_doc, *object_doc) in self.hyperlinks:
            out.setdefault(subject_doc, set())
            for target in object_doc:
                out.setdefault(target, set()).add(t.predicate.value)
        return out


@dataclass(frozen=True, init=False)
class LedgerEntry:
    iri: str
    outcome: str
    cache_hit = False  # not a field: with no cache, no entry is a hit; perfbench reads it

    def __init__(self, iri: str, outcome: str):
        fields = self.__dict__  # frozen: fields are stored past __setattr__
        fields["iri"] = iri
        fields["outcome"] = outcome


class FetchLedger:
    """Ordered record of every request made through a Dereferencer.

    Only fetch_wave records, on the thread that calls it, so no lock is needed.
    """

    def __init__(self):
        self.entries: List[LedgerEntry] = []

    def record(self, iri: str, outcome: str) -> None:
        self.entries.append(LedgerEntry(iri, outcome))

    @property
    def distinct_ok(self) -> int:
        return len(self.ok_documents)

    @property
    def ok_documents(self) -> set:
        return {e.iri for e in self.entries if e.outcome == OK}

    def requested_documents(self) -> set:
        return {e.iri for e in self.entries}

    def to_json_list(self) -> List[Dict]:
        return [{"iri": e.iri, "outcome": e.outcome} for e in self.entries]


@dataclass
class FetchResult:
    outcome: str  # ok | not-found
    body: str = ""
    final_iri: Optional[str] = None  # differs from the request after redirects


_UNREQUESTED = FetchResult(NOT_FOUND)  # the result of an IRI no source is asked for


class FixtureSource:
    """In-process web of documents described by a JSON manifest.

    Manifest format: {"documents": {"<doc-iri>": "<file path>"}, "notes": ...}
    with http(s) document IRIs without fragments, the only ones a traversal
    requests, and file paths relative to the manifest's directory. Bodies are
    loaded eagerly so identical manifests always serve identical documents.
    """

    def __init__(self, bodies: Dict[str, str]):
        for iri in bodies:
            if strip_fragment(iri) != iri or not _requested(iri):
                raise FixtureError("fixture document IRI %r is not http(s) or has a fragment" % iri)
        self._bodies = dict(bodies)

    @classmethod
    def from_manifest(cls, manifest_path) -> "FixtureSource":
        path = Path(manifest_path)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise FixtureError("cannot load manifest %s: %s" % (path, exc)) from exc
        documents = manifest.get("documents") if isinstance(manifest, dict) else None
        if not isinstance(documents, dict) or not all(isinstance(rel, str)
                                                      for rel in documents.values()):
            raise FixtureError("manifest %s lacks a 'documents' object of file paths" % path)
        bodies = {}
        missing = []
        for iri, rel in documents.items():
            body_path = path.parent / rel
            if not body_path.is_file():
                missing.append(str(body_path))
                continue
            try:
                bodies[iri] = body_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise FixtureError("cannot read fixture body %s: %s" % (body_path, exc)) from exc
        if missing:
            raise FixtureError("missing fixture bodies: %s" % ", ".join(missing))
        return cls(bodies)

    def fetch(self, doc_iri: str) -> FetchResult:
        body = self._bodies.get(doc_iri)
        if body is None:
            return FetchResult(NOT_FOUND)
        return FetchResult(OK, body)

    def document_iris(self) -> List[str]:
        return sorted(self._bodies)


def _decode(body: bytes, content_type: str) -> str:
    """The body as text in the charset its Content-Type names, decoded
    strictly; else as UTF-8, Turtle's own encoding (RDF 1.1 Turtle), with
    each malformed byte replaced.

    UTF-8 is used when the header names no charset, one Python does not know,
    or one that refuses the body: a body with a byte invalid in its declared
    charset is read as UTF-8 (a UTF-8 body labelled us-ascii, say), and so
    is one whose codec does not decode text (`undefined`, `idna`, `punycode`
    on non-ASCII bytes). Each of these raises LookupError or a ValueError.
    """
    import email.message  # as requests is, only where live fetching needs it

    header = email.message.Message()
    header["Content-Type"] = content_type
    try:
        return body.decode(header.get_content_charset("utf-8"))
    except (LookupError, ValueError):
        return body.decode("utf-8", "replace")


class LiveHttpSource:
    """Fetch documents over HTTP with a timeout, size cap and redirect limit.

    An IRI that is not http(s) is not found: requests refuses it
    (InvalidSchema) before it connects. A body is decoded in the charset of
    its Content-Type, by default UTF-8.
    """

    def __init__(self, timeout: float = 10.0, max_body_bytes: int = 1_000_000,
                 accept: str = "text/turtle"):
        import requests

        self.timeout = timeout
        self.max_body_bytes = max_body_bytes
        self.accept = accept
        self.session = requests.Session()
        self.session.max_redirects = MAX_REDIRECTS

    def fetch(self, doc_iri: str) -> FetchResult:
        import requests

        try:
            resp = self.session.get(
                doc_iri,
                headers={"Accept": self.accept},
                timeout=self.timeout,
                stream=True,
                allow_redirects=True,
            )
        except requests.RequestException:
            return FetchResult(NOT_FOUND)
        with resp:
            if resp.status_code != 200:
                return FetchResult(NOT_FOUND)
            chunks = []
            size = 0
            for chunk in resp.iter_content(chunk_size=65536):
                size += len(chunk)
                if size > self.max_body_bytes:
                    return FetchResult(NOT_FOUND)  # oversize body
                chunks.append(chunk)
            final = strip_fragment(resp.url)
            body = _decode(b"".join(chunks), resp.headers.get("Content-Type", ""))
            return FetchResult(OK, body, final)


class Dereferencer:
    """Ledger around a source; parses bodies into Documents.

    Only http(s) IRIs are requested; any other IRI is not found without a
    request. Failed fetches are soft: the document comes back empty and
    traversal carries on. The calling thread makes a wave's requests, helped
    by a pool of MAX_IN_FLIGHT - 1 threads while requests block. Call close()
    when done, so the pool's threads end.
    """

    def __init__(self, source):
        self.source = source
        self.ledger = FetchLedger()
        self._terms: Dict[str, Term] = {}  # IRI terms by value, shared by every parse
        self._pool: Optional[ThreadPoolExecutor] = None

    def close(self) -> None:
        """Shut the fetch pool down, waiting for its threads to end."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _fetch_all(self, doc_iris: List[str]) -> List[FetchResult]:
        """Each IRI's fetch result, in the given order.

        The calling thread and helpers take the requests in order from one
        counter, under one lock. A thread that claims a request while others
        stay unclaimed first submits a helper to the pool, unless a submitted
        one has yet to start. So each blocked request has a helper take the
        next; the pool's width bounds the helpers. The caller waits for every
        helper it started, then re-raises a helper's exception; a failed
        request stops further claims.
        """
        results: List[Optional[FetchResult]] = [None] * len(doc_iris)
        lock = threading.Lock()
        claimed = 0  # requests taken
        starting = 0  # helpers submitted that have not started
        helpers: List[Future] = []

        def work() -> None:
            nonlocal claimed, starting
            while True:
                with lock:
                    i = claimed
                    if i == len(doc_iris):
                        return
                    claimed += 1
                    if claimed < len(doc_iris) and not starting:
                        if self._pool is None:
                            self._pool = ThreadPoolExecutor(MAX_IN_FLIGHT - 1)
                        starting += 1
                        helpers.append(self._pool.submit(help_out))
                try:
                    results[i] = self.source.fetch(doc_iris[i])
                except BaseException:
                    with lock:
                        claimed = len(doc_iris)
                    raise

        def help_out() -> None:
            nonlocal starting
            with lock:
                starting -= 1
            work()

        try:
            work()
        finally:
            wait(helpers)  # complete: no claim is left, so none is submitted
        for helper in helpers:
            helper.result()
        return results

    def _parse(self, doc_iri: str, result: FetchResult) -> Tuple[Document, str]:
        if result.outcome != OK:
            return Document(doc_iri, Graph()), result.outcome
        final_iri = result.final_iri or doc_iri
        try:
            graph = parse_turtle(result.body, final_iri, self._terms)
        except (TurtleParseError, IriError):
            return Document(final_iri, Graph()), PARSE_ERROR
        return Document(final_iri, graph), OK

    def fetch_wave(self, doc_iris: Sequence[str]) -> Dict[str, Document]:
        """Dereference distinct fragmentless IRIs, requesting http(s) ones concurrently.

        This thread makes the requests, with up to MAX_IN_FLIGHT in flight
        once helpers join blocked ones; the bodies are parsed here, on the
        calling thread, in the given order. Ledger entries, not-found for an
        IRI not requested, are recorded in the given order, not completion
        order, so instrumented runs stay deterministic under parallel
        fetching.
        """
        requested = [doc_iri for doc_iri in doc_iris if _requested(doc_iri)]
        results = dict(zip(requested, self._fetch_all(requested)))
        out: Dict[str, Document] = {}
        for doc_iri in doc_iris:
            out[doc_iri], outcome = self._parse(doc_iri, results.get(doc_iri, _UNREQUESTED))
            self.ledger.record(doc_iri, outcome)
        return out
