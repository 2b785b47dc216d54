#!/usr/bin/env python3
"""
linkquery benchmark: a closed loop of queries over generated webs.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

One client sends each query after the previous one has returned. A query is
what `linkquery run` does after loading its inputs: parse_query, then
traverse_unguided (c-match) or traverse_guided over a FixtureSource, then
TriplePool.graph and evaluate, with the engine's default fetch pool of four
threads, all pinned to one CPU. Every answer is compared with the rows the
generator computed.

Query and set-up times are in seconds at the reference machine's undisturbed
CPU speed: clock.py scales the CPU part of each interval to cancel the host's
swings in speed. The unscaled wall times are printed alongside.

--trace 0 prints the end-to-end metrics. --trace 1 runs the loop untraced for
half of --seconds and traced for the other half, and prints the per-layer
metrics (means per traced query; their times are unscaled). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

The engine is imported from the src/ directory next to this one; the
benchmark exits with an error if it is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter

import webs
from clock import SpeedClock
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"

MAX_DOCUMENTS = 4096  # far above any workload's reach: no query hits the cap
# setup_s is the median of SETUP_SAMPLES timings, each the mean of SETUP_BATCH
# consecutive set-ups: one set-up (0.1-2 ms) is short enough for the clock's
# gauge, run just before it, to leave the caches cold and inflate it 4x.
SETUP_SAMPLES = 21
SETUP_BATCH = 10
WARMUP_QUERIES = 3
# The only workload whose source waits, as a web server would.
FETCH_DELAY_S = {"guided-latency": 0.020}

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "requests_per_query": "count",
    "peak_rss_mb": "MB",
}

# name: (unit, tracer names whose wrap point it needs)
PER_LAYER = {
    "turtle.parse_busy_s": ("s", {"turtle.parse"}),
    "turtle.mb_per_s": ("MB/s", {"turtle.parse"}),
    "turtle.bytes": ("bytes", {"turtle.parse"}),
    "rdf.strip_fragment_calls": ("count", {"rdf.strip_fragment"}),
    "rdf.iri_s": ("s", {"rdf.strip_fragment", "rdf.resolve_iri"}),
    "rdf.graph_sort_triples": ("count", {"rdf.graph_sort"}),
    "query.graph_match_calls": ("count", {"query.graph_match"}),
    "query.evaluate_s": ("s", set()),
    "query.rows": ("count", set()),
    "query.examined_per_row": ("count", {"query.graph_match"}),
    "traversal.s": ("s", set()),
    "traversal.self_s": ("s", set()),
    "traversal.match_calls": ("count", {"traversal.match"}),
    "traversal.useful_doc_share": ("share", set()),
    "webfetch.fetch_wave_s": ("s", {"webfetch.fetch_wave"}),
    "webfetch.source_wait_s": ("s", set()),
    "webfetch.inflight_mean": ("count", {"webfetch.fetch_wave"}),
    "webfetch.waves": ("count", {"webfetch.fetch_wave"}),
    "webfetch.not_ok_share": ("share", set()),
    "webfetch.cache_hits": ("count", set()),
    "guidance.policy_checks": ("count", {"guidance.policy"}),
    "guidance.policy_s": ("s", {"guidance.policy"}),
    "guidance.lambda_calls": ("count", {"guidance.lambda"}),
    "guidance.lambda_s": ("s", {"guidance.lambda"}),
    "guidance.overrides_s": ("s", {"guidance.overrides"}),
    "guidance.links_pruned": ("count", set()),
    "guidance.requests_saved_share": ("share", set()),
    "guidance.rows_removed": ("count", set()),
    "trace.overhead_share": ("share", set()),
}


def import_engine():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import linkquery
        import linkquery.fixtures
    except ImportError as exc:
        sys.exit("perfbench: cannot import linkquery from %s: %s" % (src, exc))
    if Path(linkquery.__file__).resolve().parent.parent != src:
        sys.exit("perfbench: imported linkquery from %s, not from %s" % (linkquery.__file__, src))
    return linkquery


class CountingSource:
    """Wraps a source: counts fetch calls and not-ok results, times fetch.

    Dereferencer.fetch_wave calls fetch from its pool threads, so the
    counters are updated under a lock. With a delay, each call first sleeps,
    standing in for a server's response time.
    """

    def __init__(self, inner, delay: float = 0.0, tracer=NullTracer()):
        self.inner = inner
        self.delay = delay
        self.tracer = tracer
        self._lock = threading.Lock()
        self.requests = 0
        self.not_ok = 0
        self.wait_s = 0.0

    def fetch(self, doc_iri):
        with self.tracer.span("webfetch.source_fetch"):
            start = perf_counter()
            if self.delay:
                time.sleep(self.delay)
            result = self.inner.fetch(doc_iri)
            waited = perf_counter() - start
        with self._lock:
            self.requests += 1
            self.not_ok += result.outcome != "ok"
            self.wait_s += waited
        return result

    def snapshot(self):
        with self._lock:
            return self.requests, self.not_ok, self.wait_s


def set_up(lq, web):
    """What `linkquery run` does before it traverses: load the web and guidance."""
    source = lq.FixtureSource.from_manifest(web.manifest)
    registry = policy = None
    if web.mode == webs.GUIDED:
        registry = lq.parse_structure_registry(web.structures.read_text(encoding="utf-8"))
        policy = lq.parse_policy(web.policy.read_text(encoding="utf-8"))
    return source, registry, policy


def run_query(lq, instance, mode, source, registry, policy, tracer=NullTracer()):
    with tracer.span("query.parse"):
        query = lq.parse_query(instance.query)
    with tracer.span("traversal.traverse"):
        if mode == webs.GUIDED:
            pool, trace = lq.traverse_guided(
                [instance.seed], registry, policy, query, source, max_documents=MAX_DOCUMENTS
            )
        else:
            config = lq.TraversalConfig(
                semantics=lq.traversal.C_MATCH, seeds=[instance.seed], max_documents=MAX_DOCUMENTS
            )
            pool, trace = lq.traverse_unguided(config, source, query)
    graph = pool.graph()
    with tracer.span("query.evaluate"):
        rows = lq.evaluate(query, graph)
    return query, pool, trace, rows


def rows_correct(rows, projection, expected) -> bool:
    got = webs.projection_rows(rows, projection)
    return len(got) == len(set(got)) and set(got) == expected


def useful_documents(lq, query, rows, pool) -> set:
    """Documents that supply a triple to some answer row."""
    provenance = pool.provenance()
    useful = set()
    for row in rows:
        groups = [query.required] + [
            g for g in query.optional_groups
            if all(row.get(v) is not None for p in g for v in p.variables())
        ]
        for pattern in (p for g in groups for p in g):
            terms = [row.get(t.value) if t.is_variable else t
                     for t in (pattern.subject, pattern.predicate, pattern.object)]
            if None not in terms:
                useful |= provenance.get(lq.Triple(*terms), set())
    return useful


class Runner:
    """The closed-loop client; instances rotate in the generator's order."""

    def __init__(self, lq, web, source, registry, policy, clock):
        self.lq = lq
        self.clock = clock
        self.web = web
        self.source = source
        self.registry = registry
        self.policy = policy
        self.attempted = 0
        self.failed = 0
        self.requests = {}  # instance index -> requests of its first run
        self._next = 0

    def one(self, tracer=NullTracer(), observe=None):
        """Send the next query; return its (scaled, wall) seconds."""
        index = self._next % len(self.web.instances)
        instance = self.web.instances[index]
        tracer.start_query(self._next)
        self._next += 1
        before = self.source.snapshot()
        self.clock.start()
        try:
            with tracer.span("query"):
                result = run_query(self.lq, instance, self.web.mode, self.source,
                                   self.registry, self.policy, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        latency = self.clock.stop()
        after = self.source.snapshot()
        self.attempted += 1
        if result is None or not rows_correct(result[3], result[0].projection, instance.expected):
            self.failed += 1
            print("perfbench: wrong answer for query %d (seed %s)" % (index, instance.seed),
                  file=sys.stderr)
        self.requests.setdefault(index, after[0] - before[0])
        if observe is not None and result is not None:
            observe(result, before, after)
        return latency

    def loop(self, seconds: float, tracer=NullTracer(), observe=None):
        """Query until `seconds` have passed and every instance has run once.

        Returns the scaled and the wall seconds of each query.
        """
        scaled, wall = [], []
        deadline = perf_counter() + seconds
        while len(scaled) < len(self.web.instances) or perf_counter() < deadline:
            s, w = self.one(tracer, observe)
            scaled.append(s)
            wall.append(w)
        return scaled, wall

    def requests_per_query(self) -> float:
        return statistics.mean(self.requests.values())


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


class LayerObserver:
    """Per-query facts the traced loop reads from each query's own results."""

    def __init__(self, lq):
        self.lq = lq
        self.queries = 0
        self.rows = 0
        self.pruned = 0
        self.cache_hits = 0
        self.useful = 0
        self.requests = 0
        self.not_ok = 0
        self.wait_s = 0.0

    def __call__(self, result, before, after):
        query, pool, trace, rows = result
        self.queries += 1
        self.rows += len(rows)
        self.pruned += sum(1 for a in trace.admissions if a.reason == "pruned")
        self.cache_hits += sum(1 for e in trace.ledger.entries if e.cache_hit)
        self.useful += len(useful_documents(self.lq, query, rows, pool))
        self.requests += after[0] - before[0]
        self.not_ok += after[1] - before[1]
        self.wait_s += after[2] - before[2]


def compare_guidance(lq, web, registry, policy):
    """The paper's comparison: guided vs unguided c-match on every instance.

    Returns (requests saved share, mean untrusted rows removed per query,
    number of comparisons, number that returned wrong rows).
    """
    inner = lq.FixtureSource.from_manifest(web.manifest)
    guided_requests = unguided_requests = removed = wrong = 0
    for instance in web.instances:
        counts = {}
        answers = {}
        for mode, expected in ((webs.GUIDED, instance.expected),
                               (webs.UNGUIDED, instance.expected_unguided)):
            source = CountingSource(inner)
            query, _, _, rows = run_query(lq, instance, mode, source, registry, policy)
            wrong += not rows_correct(rows, query.projection, expected)
            counts[mode] = source.requests
            answers[mode] = set(webs.projection_rows(rows, query.projection))
        guided_requests += counts[webs.GUIDED]
        unguided_requests += counts[webs.UNGUIDED]
        removed += len(answers[webs.UNGUIDED] - answers[webs.GUIDED])
    n = len(web.instances)
    return 1.0 - guided_requests / unguided_requests, removed / n, 2 * n, wrong


def demo_check(lq) -> bool:
    """The bundled demo through the counting source: 7 -> 4 documents, 5 -> 2 rows."""
    from linkquery import fixtures

    inner = lq.FixtureSource.from_manifest(fixtures.demo_manifest())
    query = lq.parse_query(fixtures.demo_query().read_text(encoding="utf-8"))
    registry = lq.parse_structure_registry(fixtures.demo_structures().read_text(encoding="utf-8"))
    policy = lq.parse_policy(fixtures.demo_policy().read_text(encoding="utf-8"))
    seeds = ["https://uma.ex/#me"]
    unguided = CountingSource(inner)
    pool, _ = lq.traverse_unguided(lq.TraversalConfig(seeds=seeds), unguided, query)
    unguided_rows = len(lq.evaluate(query, pool.graph()))
    guided = CountingSource(inner)
    pool, _ = lq.traverse_guided(seeds, registry, policy, query, guided)
    guided_rows = len(lq.evaluate(query, pool.graph()))
    documents = (unguided.requests - unguided.not_ok, guided.requests - guided.not_ok)
    return documents == (7, 4) and (unguided_rows, guided_rows) == (5, 2)


def layer_metrics(tracer, observer, base, traced, comparison):
    t = tracer.totals()
    n = observer.queries
    busy = t.weight["turtle.parse.busy"]
    wave = t.total["webfetch.fetch_wave"]
    saved, removed = comparison
    values = {
        "turtle.parse_busy_s": busy / n,
        "turtle.mb_per_s": t.weight["turtle.parse"] / busy / 1e6 if busy else 0.0,
        "turtle.bytes": t.weight["turtle.parse"] / n,
        "rdf.strip_fragment_calls": t.calls["rdf.strip_fragment"] / n,
        "rdf.iri_s": (t.self_time["rdf.strip_fragment"] + t.self_time["rdf.resolve_iri"]) / n,
        "rdf.graph_sort_triples": t.weight["rdf.graph_sort"] / n,
        "query.graph_match_calls": t.calls["query.graph_match"] / n,
        "query.evaluate_s": t.total["query.evaluate"] / n,
        "query.rows": observer.rows / n,
        "query.examined_per_row": t.weight["query.graph_match"] / max(observer.rows, 1),
        "traversal.s": t.total["traversal.traverse"] / n,
        "traversal.self_s": t.self_time["traversal.traverse"] / n,
        "traversal.match_calls": t.calls["traversal.match"] / n,
        "traversal.useful_doc_share": observer.useful / max(observer.requests, 1),
        "webfetch.fetch_wave_s": wave / n,
        "webfetch.source_wait_s": observer.wait_s / n,
        "webfetch.inflight_mean": observer.wait_s / wave if wave else 0.0,
        "webfetch.waves": t.calls["webfetch.fetch_wave"] / n,
        "webfetch.not_ok_share": observer.not_ok / max(observer.requests, 1),
        "webfetch.cache_hits": observer.cache_hits / n,
        "guidance.policy_checks": t.calls["guidance.policy"] / n,
        "guidance.policy_s": t.self_time["guidance.policy"] / n,
        "guidance.lambda_calls": t.calls["guidance.lambda"] / n,
        "guidance.lambda_s": t.self_time["guidance.lambda"] / n,
        "guidance.overrides_s": t.total["guidance.overrides"] / n,
        "guidance.links_pruned": observer.pruned / n,
        "guidance.requests_saved_share": saved,
        "guidance.rows_removed": removed,
        "trace.overhead_share": statistics.median(traced) / statistics.median(base) - 1.0,
    }
    # Where a query's time goes, by layer: self or busy time per query.
    shares = {
        "query.evaluate_s": values["query.evaluate_s"],
        "webfetch.source_wait_s": values["webfetch.source_wait_s"],
        "turtle.parse_busy_s": values["turtle.parse_busy_s"],
        "traversal.self_s+rdf.iri_s": values["traversal.self_s"] + values["rdf.iri_s"],
        "webfetch.fetch_wave_self_s": t.self_time["webfetch.fetch_wave"] / n,
        "guidance.policy_s+lambda_s+overrides_s": (
            values["guidance.policy_s"] + values["guidance.lambda_s"]
            + values["guidance.overrides_s"]),
    }
    missing = set(tracer.missing.values())
    kept = {k: v for k, v in values.items() if not PER_LAYER[k][1] & missing}
    return kept, shares


def measure(lq, workload: str, seed: int, seconds: int, trace: bool):
    directory = WORK / ("%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        web = webs.generate(workload, seed, directory)
        clock = SpeedClock()
        setups = []
        for _ in range(SETUP_SAMPLES):
            clock.start()
            for _ in range(SETUP_BATCH):
                inner, registry, policy = set_up(lq, web)
            setups.append(clock.stop()[0] / SETUP_BATCH)
        source = CountingSource(inner, FETCH_DELAY_S.get(workload, 0.0))
        runner = Runner(lq, web, source, registry, policy, clock)
        for _ in range(WARMUP_QUERIES):
            runner.one()
        lines = []
        if not trace:
            latencies, wall = runner.loop(seconds)
            metrics = {
                "setup_s": statistics.median(setups),
                "query_p50_s": statistics.median(latencies),
                "query_p90_s": p90(latencies),
                "requests_per_query": runner.requests_per_query(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            lines.append("queries timed: %d" % len(latencies))
            lines.append("wall time, unscaled: p50 %.4f s, p90 %.4f s" % (
                statistics.median(wall), p90(wall)))
        else:
            base, _ = runner.loop(seconds / 2)
            tracer = Tracer()
            observer = LayerObserver(lq)
            source.tracer = tracer
            tracer.install()
            try:
                traced, _ = runner.loop(seconds / 2, tracer, observer)
            finally:
                tracer.uninstall()
                source.tracer = NullTracer()
            for name in tracer.missing:
                print("perfbench: wrap point %s is gone; its metrics are left out" % name,
                      file=sys.stderr)
            comparison = (0.0, 0.0)
            if web.mode == webs.GUIDED:
                saved, removed, compared, wrong = compare_guidance(lq, web, registry, policy)
                comparison = (saved, removed)
                runner.attempted += compared
                runner.failed += wrong
            runner.attempted += 1
            if not demo_check(lq):
                runner.failed += 1
                print("perfbench: demo web check failed", file=sys.stderr)
            metrics, shares = layer_metrics(tracer, observer, base, traced, comparison)
            units = {k: v[0] for k, v in PER_LAYER.items()}
            tracer.write(OUT / ("spans-%s.jsonl" % workload))
            lines.append("queries timed: %d untraced, %d traced" % (len(base), len(traced)))
            lines.append("time per query by layer: " + ", ".join(
                "%s %.4f" % kv for kv in sorted(shares.items(), key=lambda kv: -kv[1])))
            lines.append("largest: %s" % max(shares, key=shares.get))
        error_rate = runner.failed / runner.attempted
        lines.append("error_rate = %.4f share (%d of %d)" % (error_rate, runner.failed, runner.attempted))
        return runner, metrics, units, lines
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    status = 0
    for workload in webs.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(child.stdout, end="")
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=webs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    lq = import_engine()
    # One CPU for the process and the engine's fetch threads. On a small VM
    # shared with other tenants, thread wake-ups across CPUs made per-query
    # latency swing by up to 2x from minute to minute; on one CPU it holds
    # within a few per cent.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    runner, metrics, units, lines = measure(lq, args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print("  " + line)
    for name, value in metrics.items():
        print("  %s = %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
