"""
Checks on the benchmark itself, at tiny sizes:

    python3 -m pytest perfbench -q
"""
import dataclasses

import pytest

import run
import webs
from clock import SpeedClock
from tracing import WRAP_POINTS, Tracer

lq = run.import_engine()


@pytest.mark.parametrize("workload", webs.WORKLOADS)
def test_same_seed_gives_byte_identical_web(workload, tmp_path):
    webs.generate(workload, 7, tmp_path / "a", "tiny")
    webs.generate(workload, 7, tmp_path / "b", "tiny")
    webs.generate(workload, 8, tmp_path / "c", "tiny")
    first = webs.web_files(tmp_path / "a")
    assert first and first == webs.web_files(tmp_path / "b")
    assert first != webs.web_files(tmp_path / "c")


@pytest.mark.parametrize("workload", webs.WORKLOADS)
def test_ground_truth_equals_engine_answer(workload, tmp_path):
    web = webs.generate(workload, 3, tmp_path, "tiny")
    source, registry, policy = run.set_up(lq, web)
    for instance in web.instances:
        query, _, _, rows = run.run_query(lq, instance, web.mode, source, registry, policy)
        assert rows, instance.seed
        assert run.rows_correct(rows, query.projection, instance.expected), instance.seed
    if web.mode == webs.GUIDED:
        saved, removed, compared, wrong = run.compare_guidance(lq, web, registry, policy)
        assert wrong == 0 and compared == 2 * len(web.instances)
        assert 0 < saved < 1 and removed > 0


def test_tampered_rows_count_as_errors(tmp_path):
    web = webs.generate("crawl", 3, tmp_path, "tiny")
    first = web.instances[0]
    tampered = dataclasses.replace(first, expected=frozenset(list(first.expected)[1:]))
    web = dataclasses.replace(web, instances=[tampered] + web.instances[1:])
    source, registry, policy = run.set_up(lq, web)
    runner = run.Runner(lq, web, run.CountingSource(source), registry, policy, SpeedClock())
    for _ in web.instances:
        runner.one()
    assert (runner.failed, runner.attempted) == (1, len(web.instances))


def test_counting_source_counts_concurrent_fetches():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    class Inner:
        def fetch(self, doc_iri):
            return lq.webfetch.FetchResult("ok" if doc_iri.endswith("0") else "not-found")

    source = run.CountingSource(Inner())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(source.fetch, "https://x.example/%d" % i) for i in range(4000)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert source.snapshot()[:2] == (4000, 3600)


def test_demo_web_request_and_row_counts():
    assert run.demo_check(lq)


def test_tracer_restores_wrapped_functions(tmp_path):
    import importlib

    def lookup(module, attr):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    originals = [lookup(m, a) for m, a, *_ in WRAP_POINTS]
    web = webs.generate("guided-latency", 3, tmp_path, "tiny")
    source, registry, policy = run.set_up(lq, web)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(lookup(m, a) is not o for (m, a, *_), o in zip(WRAP_POINTS, originals))
        run.run_query(lq, web.instances[0], web.mode, run.CountingSource(source, tracer=tracer),
                      registry, policy, tracer)
    finally:
        tracer.uninstall()
    assert all(lookup(m, a) is o for (m, a, *_), o in zip(WRAP_POINTS, originals))
    assert not tracer.missing
    names = {span[1] for span in tracer.spans}
    assert {"turtle.parse", "webfetch.fetch_wave", "webfetch.source_fetch",
            "traversal.traverse", "query.evaluate"} <= names
    # Every span in a pool thread hangs under the fetch_wave that started it.
    waves = {span[0] for span in tracer.spans if span[1] == "webfetch.fetch_wave"}
    assert all(span[3] in waves for span in tracer.spans if span[1] == "turtle.parse")


def test_metric_tables_match_benchmark_json():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(webs.WORKLOADS)
