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
hyperlink table, computed once on first use from its triples in no order,
so building it sorts nothing; a reader whose result depends on the order
sorts the table itself. The table reads each IRI's document from its term,
which cut it once, when built. A traversal that follows no link builds no
table. Ledger entries and fetch results are named tuples: plain values.

The thread that asks for a wave fetches it, by one rule: it makes each
request itself until one of the traversal's requests blocks, moving the
thread's count of voluntary context switches, so a source that answers from
memory (a fixture web) starts no thread, however busy the CPU. From then on
every remaining request goes through Executor.map on the Dereferencer's pool
of MAX_IN_FLIGHT threads, made at that first block and living as long as the
traversal, so a wave of up to ten documents costs one round of request
latency. Pool threads only call the source; bodies are parsed on the calling
thread, because parsing is CPU work that threads would only contend for.
"""
from __future__ import annotations

import codecs
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # no per-thread count (macOS, Windows): the pool makes every request
    getrusage = None

from .rdf import IRI, Graph, IriError, Term, Triple, strip_fragment
from .turtle import TurtleParseError, parse_turtle

OK = "ok"
NOT_FOUND = "not-found"
PARSE_ERROR = "parse-error"

# Redirects LiveHttpSource follows for one request.
MAX_REDIRECTS = 5

# Requests a Dereferencer keeps in flight at most, once a request has blocked:
# one per thread of its pool. Ten is requests' adapters.DEFAULT_POOLSIZE, the
# connections LiveHttpSource's session keeps open per host.
MAX_IN_FLIGHT = 10


class FixtureError(Exception):
    pass


def _requested(doc_iri: str) -> bool:
    """Whether the IRI's scheme is http or https, ignoring case: the IRIs requested."""
    return doc_iri.partition(":")[0].lower() in ("http", "https")


@dataclass(frozen=True, init=False)
class Document:
    """A fetched document; not a named tuple, as its link tables are kept once built."""

    doc_iri: str
    triples: Graph

    def __init__(self, doc_iri: str, triples: Graph):
        fields = self.__dict__  # frozen: fields are stored past __setattr__
        fields["doc_iri"] = doc_iri
        fields["triples"] = triples

    @functools.cached_property
    def hyperlinks(self) -> List[Tuple[Triple, Tuple[str, ...]]]:
        """Each triple, in no order, with the documents it links to: its
        subject's, then its object's if the object is an IRI. Predicates
        never link. A reader whose result depends on the order sorts it.

        Each IRI term cut its value at the first '#' when it was built
        (`Term.document`), and the parser builds one term per IRI per
        traversal, so an IRI is cut once however many triples name it.
        """
        return [
            (t, (t.subject.document, t.object.document) if t.object.kind == IRI
             else (t.subject.document,))
            for t in self.triples.unordered()
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


class LedgerEntry(NamedTuple):
    iri: str
    outcome: str
    cache_hit = False  # not a field: with no cache, no entry is a hit; perfbench reads it


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


class FetchResult(NamedTuple):
    outcome: str  # ok | not-found
    body: str = ""
    final_iri: Optional[str] = None  # differs from the request after redirects


_UNREQUESTED = FetchResult(NOT_FOUND)  # the result of an IRI no source is asked for


class FixtureSource:
    """In-process web of documents described by a JSON manifest.

    Manifest format: {"documents": {"<doc-iri>": "<file path>"}, "notes": ...}
    with http(s) document IRIs without fragments, the only ones a traversal
    requests, and file paths relative to the manifest's directory. The
    manifest and the bodies are UTF-8, each read past a leading byte-order
    mark. Bodies are loaded eagerly so identical manifests always serve
    identical documents.
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
            manifest = json.loads(path.read_text(encoding="utf-8-sig"))
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
                bodies[iri] = body_path.read_text(encoding="utf-8-sig")
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
    each malformed byte replaced. UTF-8, declared or not, is read past a
    leading byte-order mark.

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
        charset = codecs.lookup(header.get_content_charset("utf-8")).name
        return body.decode("utf-8-sig" if charset == "utf-8" else charset)
    except (LookupError, ValueError):
        return body.decode("utf-8-sig", "replace")


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
            with self.session.get(
                doc_iri,
                headers={"Accept": self.accept},
                timeout=self.timeout,
                stream=True,
                allow_redirects=True,
            ) as resp:
                if resp.status_code != 200:
                    return FetchResult(NOT_FOUND)
                chunks = []
                size = 0
                for chunk in resp.iter_content(chunk_size=65536):
                    size += len(chunk)
                    if size > self.max_body_bytes:
                        return FetchResult(NOT_FOUND)  # oversize body
                    chunks.append(chunk)
        except requests.RequestException:  # also a body that breaks off or stalls
            return FetchResult(NOT_FOUND)
        body = _decode(b"".join(chunks), resp.headers.get("Content-Type", ""))
        return FetchResult(OK, body, strip_fragment(resp.url))


class Dereferencer:
    """Ledger around a source; parses bodies into Documents.

    Only http(s) IRIs are requested; any other IRI is not found without a
    request. Failed fetches are soft: the document comes back empty and
    traversal carries on. The calling thread makes the requests until one
    blocks; then it makes its pool of MAX_IN_FLIGHT threads, which makes
    every later request. Call close() when done, so the pool's threads end.
    """

    def __init__(self, source):
        self.source = source
        self.ledger = FetchLedger()
        self._terms: Dict[str, Term] = {}  # IRI terms by value, shared by every parse
        self._pool: Optional[ThreadPoolExecutor] = None  # made when a request first blocks

    def close(self) -> None:
        """Shut the fetch pool down, waiting for its threads to end."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _fetch_all(self, doc_iris: List[str]) -> List[FetchResult]:
        """Each IRI's fetch result, in the given order.

        Until a request of this Dereferencer blocks, moving the thread's count
        of voluntary context switches, the calling thread makes each request;
        the first that blocks makes the pool, and map makes every later one,
        up to MAX_IN_FLIGHT at a time. A first blocking request in a wave of
        several runs alone, losing one request's latency once per traversal.
        A failed request raises here, and map cancels those not yet started.
        """
        results: List[FetchResult] = []
        if self._pool is None and getrusage is not None:
            switches = getrusage(RUSAGE_THREAD).ru_nvcsw
            for doc_iri in doc_iris:
                results.append(self.source.fetch(doc_iri))
                before, switches = switches, getrusage(RUSAGE_THREAD).ru_nvcsw
                if switches != before:  # the request blocked
                    break
            else:
                return results  # none blocked: no pool yet
        self._pool = self._pool or ThreadPoolExecutor(MAX_IN_FLIGHT)
        results += self._pool.map(self.source.fetch, doc_iris[len(results):])
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

        This thread makes the requests until one of the Dereferencer's
        requests blocks; from then on its pool makes them, up to
        MAX_IN_FLIGHT at a time. The bodies are parsed here, on the calling
        thread, in the given order. Ledger entries, not-found for an
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
