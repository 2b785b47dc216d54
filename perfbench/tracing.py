"""
In-memory tracing for the benchmark's traced run.

The tracer wraps public functions of linkquery where the calling module looks
them up (for example `linkquery.traversal.strip_fragment`, not
`linkquery.rdf.strip_fragment`), so only calls made from that module are
seen. `uninstall` puts the originals back. A wrap point that no longer exists
is recorded in `missing` and the metrics that depend on it are left out.

Three kinds of wrapper:
- span: records (id, name, query, parent, thread, start, end, busy) in memory.
  Spans opened in a fetch-pool thread take the enclosing fetch_wave span as
  their parent. Busy spans also measure the thread's CPU time, which is the
  parser's work without the time it spent waiting for the interpreter lock.
- leaf: hot functions; only call counts and times are accumulated.
- count: call counts (plus an optional weight such as the graph size); their
  time stays with the caller.

Every timed wrapper accumulates its inclusive time and its self time, which
excludes the time of wrapped calls it makes on the same thread.
"""
from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Optional, Tuple

SPAN = "span"
LEAF = "leaf"
COUNT = "count"


def _text_bytes(text, *args, **kwargs):
    return len(text.encode("utf-8"))


def _graph_size(graph, *args, **kwargs):
    return len(graph)


# (module, attribute, kind, name, weight)
WRAP_POINTS: List[Tuple[str, str, str, str, Optional[Callable]]] = [
    ("linkquery.webfetch", "parse_turtle", SPAN, "turtle.parse", _text_bytes),
    ("linkquery.webfetch", "Dereferencer.fetch_wave", SPAN, "webfetch.fetch_wave", None),
    ("linkquery.traversal", "strip_fragment", LEAF, "rdf.strip_fragment", None),
    ("linkquery.guidance", "strip_fragment", LEAF, "rdf.strip_fragment", None),
    ("linkquery.webfetch", "strip_fragment", LEAF, "rdf.strip_fragment", None),
    ("linkquery.turtle", "resolve_iri", LEAF, "rdf.resolve_iri", None),
    ("linkquery.rdf", "Graph.__iter__", COUNT, "rdf.graph_sort", _graph_size),
    ("linkquery.query", "graph_match", COUNT, "query.graph_match", _graph_size),
    ("linkquery.traversal", "match_triple", COUNT, "traversal.match", None),
    ("linkquery.traversal", "triple_relevant", LEAF, "guidance.policy", None),
    ("linkquery.traversal", "lambda_allows", LEAF, "guidance.lambda", None),
    ("linkquery.traversal", "apply_overrides", SPAN, "guidance.overrides", None),
]
BUSY_SPANS = frozenset({"turtle.parse"})
WAVE_SPAN = "webfetch.fetch_wave"


class _ThreadState:
    def __init__(self):
        self.stack: List[list] = []  # frames: [child time, enclosing span id]
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.weight: Dict[str, float] = defaultdict(float)


class Totals:
    """Merged accumulators of all threads."""

    def __init__(self, states):
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.weight: Dict[str, float] = defaultdict(float)
        for st in states:
            for mine, theirs in ((self.total, st.total), (self.self_time, st.self_time),
                                 (self.calls, st.calls), (self.weight, st.weight)):
                for key, value in theirs.items():
                    mine[key] += value


class NullTracer:
    """Stands in for Tracer when tracing is off."""

    def start_query(self, query_id: int) -> None:
        pass

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.query_id: Optional[int] = None
        self.missing: Dict[str, str] = {}  # wrap point that is gone -> its name
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._wave: Optional[int] = None  # open fetch_wave span: parent of pool-thread spans
        self._restore: List[tuple] = []

    def start_query(self, query_id: int) -> None:
        """Spans opened from now on belong to this query."""
        self.query_id = query_id

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _close(self, st: _ThreadState, name: str, frame: list, elapsed: float) -> None:
        st.stack.pop()
        if st.stack:
            st.stack[-1][0] += elapsed
        st.total[name] += elapsed
        st.self_time[name] += elapsed - frame[0]
        st.calls[name] += 1

    @contextmanager
    def span(self, name: str):
        st = self._state()
        if st.stack:
            parent = st.stack[-1][1]
        elif threading.current_thread() is not threading.main_thread():
            parent = self._wave
        else:
            parent = None
        span_id = next(self._ids)
        frame = [0.0, span_id]
        st.stack.append(frame)
        busy = name in BUSY_SPANS
        if name == WAVE_SPAN:
            self._wave = span_id
        cpu = thread_time() if busy else 0.0
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            cpu = thread_time() - cpu if busy else None
            if name == WAVE_SPAN:
                self._wave = None
            self._close(st, name, frame, end - start)
            if busy:
                st.weight[name + ".busy"] += cpu
            self.spans.append((span_id, name, self.query_id, parent,
                               threading.get_ident(), start, end, cpu))

    def _wrap_span(self, name, fn, weight):
        tracer = self

        def wrapper(*args, **kwargs):
            if weight is not None:
                tracer._state().weight[name] += weight(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_leaf(self, name, fn, weight):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(st, name, frame, perf_counter() - start)
        return wrapper

    def _wrap_count(self, name, fn, weight):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.calls[name] += 1
            if weight is not None:
                st.weight[name] += weight(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        makers = {SPAN: self._wrap_span, LEAF: self._wrap_leaf, COUNT: self._wrap_count}
        for module_name, attr, kind, name, weight in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None) if owner is not None else None
            if original is None:
                self.missing["%s.%s" % (module_name, attr)] = name
                continue
            setattr(owner, last, makers[kind](name, original, weight))
            self._restore.append((owner, last, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, last, original = self._restore.pop()
            setattr(owner, last, original)

    def totals(self) -> Totals:
        with self._lock:
            return Totals(list(self._states))

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "query", "parent", "thread", "start", "end", "busy")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
