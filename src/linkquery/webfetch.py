"""
Dereferencing document IRIs into parsed documents.

A source maps fragmentless document IRIs to raw Turtle bodies: either an
in-process fixture web loaded from a JSON manifest, or live HTTP. The
Dereferencer wraps a source with fragment stripping, a parse cache, and a
ledger that records every request so tests (and the CLI) can assert how many
network fetches a traversal strategy needed. Each Document carries its
hyperlink table, computed once from its triples on first use.
"""
from __future__ import annotations

import functools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .rdf import IRI, Graph, IriError, Triple, strip_fragment
from .turtle import TurtleParseError, parse_turtle

OK = "ok"
NOT_FOUND = "not-found"
PARSE_ERROR = "parse-error"


class FixtureError(Exception):
    pass


@dataclass(frozen=True)
class Document:
    doc_iri: str
    base: str
    triples: Graph

    @functools.cached_property
    def hyperlinks(self) -> List[Tuple[Triple, Tuple[str, ...]]]:
        """Each triple in order, with the documents it links to: its
        subject's, then its object's if the object is an IRI. Predicates
        never link.
        """
        return [
            (t, tuple(strip_fragment(term.value) for term in (t.subject, t.object)
                      if term.kind == IRI))
            for t in self.triples
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


@dataclass(frozen=True)
class LedgerEntry:
    iri: str
    outcome: str
    cache_hit: bool


class FetchLedger:
    """Ordered record of every request made through a Dereferencer."""

    def __init__(self):
        self.entries: List[LedgerEntry] = []
        self._lock = threading.Lock()

    def record(self, iri: str, outcome: str, cache_hit: bool) -> None:
        with self._lock:
            self.entries.append(LedgerEntry(iri, outcome, cache_hit))

    @property
    def distinct_ok(self) -> int:
        return len(self.ok_documents)

    @property
    def ok_documents(self) -> set:
        return {e.iri for e in self.entries if e.outcome == OK}

    def requested_documents(self) -> set:
        return {e.iri for e in self.entries}

    def to_json_list(self) -> List[Dict]:
        return [
            {"iri": e.iri, "outcome": e.outcome, "cacheHit": e.cache_hit}
            for e in self.entries
        ]


@dataclass
class FetchResult:
    outcome: str  # ok | not-found
    body: str = ""
    final_iri: Optional[str] = None  # differs from the request after redirects


class FixtureSource:
    """In-process web of documents described by a JSON manifest.

    Manifest format: {"documents": {"<doc-iri>": "<file path>"}, "notes": ...}
    with file paths relative to the manifest's directory. Bodies are loaded
    eagerly so identical manifests always serve identical documents.
    """

    def __init__(self, bodies: Dict[str, str]):
        for iri in bodies:
            if strip_fragment(iri) != iri:
                raise FixtureError("fixture document IRI %r has a fragment" % iri)
        self._bodies = dict(bodies)

    @classmethod
    def from_manifest(cls, manifest_path) -> "FixtureSource":
        path = Path(manifest_path)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise FixtureError("cannot load manifest %s: %s" % (path, exc)) from exc
        documents = manifest.get("documents")
        if not isinstance(documents, dict):
            raise FixtureError("manifest %s lacks a 'documents' object" % path)
        bodies = {}
        missing = []
        for iri, rel in documents.items():
            body_path = path.parent / rel
            if not body_path.is_file():
                missing.append(str(body_path))
            else:
                bodies[iri] = body_path.read_text(encoding="utf-8")
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


class LiveHttpSource:
    """Fetch documents over HTTP with a timeout, size cap and redirect limit."""

    def __init__(self, timeout: float = 10.0, max_body_bytes: int = 1_000_000,
                 accept: str = "text/turtle", max_redirects: int = 5):
        import requests

        self.timeout = timeout
        self.max_body_bytes = max_body_bytes
        self.accept = accept
        self.session = requests.Session()
        self.session.max_redirects = max_redirects

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
            return FetchResult(OK, b"".join(chunks).decode("utf-8", "replace"), final)


class Dereferencer:
    """Cache + ledger around a source; parses bodies into Documents.

    Failed fetches are soft: the document comes back empty and traversal
    carries on. Repeat requests for the same document IRI (or for IRIs
    differing only in fragment) hit the cache and do not add to distinct_ok.
    """

    def __init__(self, source):
        self.source = source
        self.ledger = FetchLedger()
        self._cache: Dict[str, Tuple[Document, str]] = {}  # with the fetch outcome
        self._lock = threading.Lock()

    def dereference(self, entity_or_doc_iri: str) -> Document:
        [doc] = self.fetch_wave([entity_or_doc_iri]).values()
        return doc

    def _fetch_and_parse(self, doc_iri: str):
        result = self.source.fetch(doc_iri)
        if result.outcome != OK:
            return Document(doc_iri, doc_iri, Graph()), result.outcome
        final_iri = result.final_iri or doc_iri
        try:
            graph = parse_turtle(result.body, final_iri)
        except (TurtleParseError, IriError):
            return Document(final_iri, final_iri, Graph()), PARSE_ERROR
        return Document(final_iri, final_iri, graph), OK

    def fetch_wave(self, iris: Iterable[str], workers: int = 4) -> Dict[str, Document]:
        """Dereference a batch of IRIs, fetching uncached ones concurrently.

        Ledger entries are recorded in the given order, not completion order,
        so instrumented runs stay deterministic under parallel fetching.
        """
        order: List[str] = []
        for iri in iris:
            doc_iri = strip_fragment(iri)
            if doc_iri not in order:
                order.append(doc_iri)
        with self._lock:
            todo = [iri for iri in order if iri not in self._cache]
        if todo:
            if workers > 1 and len(todo) > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(self._fetch_and_parse, todo))
            else:
                results = [self._fetch_and_parse(iri) for iri in todo]
            with self._lock:
                self._cache.update(zip(todo, results))
        out: Dict[str, Document] = {}
        for doc_iri in order:
            out[doc_iri], outcome = self._cache[doc_iri]
            self.ledger.record(doc_iri, outcome, doc_iri not in todo)
        return out
