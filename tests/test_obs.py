"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import threading

import pytest

from repro.backends import make_backend
from repro.errors import TransientStorageError
from repro.obs import (
    METRICS,
    current_tracer,
    disable_slow_log,
    enable_slow_log,
    span,
    tracing,
)
from repro.obs.tracer import _NULL_SPAN
from repro.robust import (
    FaultInjectingBackend,
    FaultPlan,
    RetryPolicy,
    TransientInjectedError,
)
from repro.store import XmlStore


@pytest.fixture
def metrics():
    """The process registry, enabled and zeroed for one test."""
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    yield METRICS
    METRICS.enabled = was_enabled
    METRICS.reset()


@pytest.fixture(autouse=True)
def _no_leaked_slow_log():
    yield
    disable_slow_log()


class TestSpans:
    def test_disabled_path_returns_shared_noop(self):
        assert current_tracer() is None
        assert not METRICS.enabled
        assert span("anything") is _NULL_SPAN
        assert span("other", attr=1) is _NULL_SPAN
        with span("still-noop"):
            pass

    def test_nesting_builds_a_tree(self):
        with tracing() as tracer:
            with span("root", xpath="//a"):
                with span("child-1"):
                    with span("grandchild"):
                        pass
                with span("child-2"):
                    pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "root"
        assert root.attrs == {"xpath": "//a"}
        assert [c.name for c in root.children] == ["child-1", "child-2"]
        assert root.children[0].children[0].name == "grandchild"
        assert all(s.closed for s in tracer.iter_spans())
        assert all(s.status == "ok" for s in tracer.iter_spans())
        assert tracer.open_span_count() == 0
        # Children nest inside the parent's timing.
        assert root.duration_seconds >= max(
            c.duration_seconds for c in root.children
        )

    def test_exception_closes_and_marks_spans(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("boom")
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.closed and inner.closed
        assert outer.status == "error"
        assert inner.status == "error"
        assert "boom" in inner.error
        assert tracer.open_span_count() == 0
        # A later span starts a fresh root, not a child of the dead one.
        with tracing(tracer):
            with span("after"):
                pass
        assert [r.name for r in tracer.roots] == ["outer", "after"]

    def test_span_metrics_and_collect(self, metrics):
        phases: dict[str, float] = {}
        with span("phase-a", collect=phases):
            pass
        with span("phase-a", collect=phases):
            pass
        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["span.phase-a"]["count"] == 2
        assert list(phases) == ["phase-a"]
        assert phases["phase-a"] >= 0.0

    def test_tracer_json_and_aggregate(self):
        with tracing() as tracer:
            with span("q"):
                with span("translate"):
                    pass
                with span("execute"):
                    pass
        tree = tracer.to_dict()["spans"][0]
        assert tree["name"] == "q"
        assert [c["name"] for c in tree["children"]] == [
            "translate", "execute",
        ]
        aggregate = tracer.aggregate()
        assert aggregate["q"]["count"] == 1
        assert aggregate["translate"]["count"] == 1
        assert "{" in tracer.to_json()


class TestMetricsRegistry:
    def test_disabled_increments_are_dropped(self):
        assert not METRICS.enabled
        METRICS.inc("nope")
        METRICS.observe("nope.hist", 1.0)
        assert METRICS.counter("nope") == 0

    def test_eight_threads_hammering_counters(self, metrics):
        threads = 8
        per_thread = 5000
        barrier = threading.Barrier(threads)

        def hammer(k: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                metrics.inc("hammer.total")
                metrics.inc(f"hammer.thread-{k}")
                metrics.observe("hammer.values", float(i))

        workers = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["hammer.total"] == threads * per_thread
        for k in range(threads):
            assert counters[f"hammer.thread-{k}"] == per_thread
        hist = snapshot["histograms"]["hammer.values"]
        assert hist["count"] == threads * per_thread
        assert hist["min"] == 0.0
        assert hist["max"] == float(per_thread - 1)
        assert hist["total"] == pytest.approx(
            threads * per_thread * (per_thread - 1) / 2
        )

    def test_reset_zeroes_all_threads(self, metrics):
        metrics.inc("a", 3)
        worker = threading.Thread(target=lambda: metrics.inc("b", 2))
        worker.start()
        worker.join()
        assert metrics.counter("a") == 3
        assert metrics.counter("b") == 2
        metrics.reset()
        assert metrics.snapshot()["counters"] == {}


class TestInstrumentedStore:
    def test_query_counters_and_spans(self, metrics):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load("<a><b>1</b><b>2</b></a>")
        with tracing() as tracer:
            items = store.query("//b", doc)
        assert len(items) == 2
        counters = metrics.snapshot()["counters"]
        assert counters["query.executed"] == 1
        assert counters["query.rows"] == 2
        assert counters["translate.queries"] == 1
        assert counters["load.documents"] == 1
        assert counters["load.nodes"] == 5
        assert counters["backend.statements"] >= 1
        names = {s.name for s in tracer.iter_spans()}
        assert {"query", "translate", "execute"} <= names
        assert tracer.open_span_count() == 0

    def test_faulted_runs_leave_no_open_spans(self):
        """Property: spans balance even when the backend faults.

        Runs a query/update stream against a fault-injecting backend
        three ways — retried transients, unretried transients, and an
        exhausted retry budget — and asserts every span opened under
        the tracer was closed.
        """
        retry = RetryPolicy(attempts=6, base_delay=0.0,
                            max_delay=0.0, seed=5,
                            sleep=lambda _d: None)
        injected = FaultInjectingBackend(make_backend("sqlite"))
        store = XmlStore(backend=injected, encoding="dewey",
                         retry=retry)
        # Unindexed on purpose: the three fault scenarios are tuned to
        # the unindexed statement counts (index maintenance multiplies
        # the statements each faulted operation replays).
        doc = store.load("<list><i>1</i><i>2</i><i>3</i></list>")

        with tracing() as tracer:
            injected.arm(FaultPlan(seed=13, transient_rate=0.05,
                                   max_consecutive_transients=2))
            for n in range(4):
                store.updates.insert(doc, 1, 0, f"<i>{n}</i>")
                store.query("//i", doc)
            injected.arm(None)
        assert tracer.open_span_count() == 0
        assert all(s.closed for s in tracer.iter_spans())

        # Without a retry policy the transient surfaces — spans still
        # balance on the error path.
        bare = XmlStore(backend=FaultInjectingBackend(
            make_backend("sqlite")), encoding="dewey")
        bare_doc = bare.load("<a/>")
        bare.backend.arm(FaultPlan(transient_rate=0.99,
                                   max_consecutive_transients=1))
        with tracing() as bare_tracer:
            with pytest.raises(TransientInjectedError):
                bare.query("/a", bare_doc)
        bare.backend.arm(None)
        assert bare_tracer.open_span_count() == 0
        assert all(s.closed for s in bare_tracer.iter_spans())

        # Exhausted budget: the typed error propagates through every
        # span layer; all of them must still close.
        tired = XmlStore(
            backend=FaultInjectingBackend(make_backend("sqlite")),
            encoding="dewey",
            retry=RetryPolicy(attempts=2, sleep=lambda _d: None),
        )
        tired_doc = tired.load("<a/>")
        tired.backend.arm(FaultPlan(transient_rate=0.99,
                                    max_consecutive_transients=99))
        with tracing() as tired_tracer:
            with pytest.raises(TransientStorageError):
                tired.query("/a", tired_doc)
        tired.backend.arm(None)
        assert tired_tracer.open_span_count() == 0
        assert all(s.closed for s in tired_tracer.iter_spans())


class TestSlowQueryLog:
    def test_threshold_and_breakdown(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load("<a><b>x</b></a>")
        log = enable_slow_log(threshold_ms=0.0, capacity=10)
        store.query("//b", doc)
        entries = log.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.xpath == "//b"
        assert "SELECT" in entry.sql
        assert entry.elapsed_ms > 0
        assert {"translate", "execute"} <= set(entry.breakdown_ms)
        assert sum(entry.breakdown_ms.values()) <= entry.elapsed_ms
        assert "slow query" in entry.render()

    def test_fast_queries_not_recorded(self):
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load("<a/>")
        log = enable_slow_log(threshold_ms=10_000.0)
        store.query("/a", doc)
        assert log.entries() == []
        assert log.recorded == 0

    def test_ring_buffer_evicts_oldest(self):
        log = enable_slow_log(threshold_ms=0.0, capacity=2)
        for n in range(4):
            log.maybe_record(f"//q{n}", "SELECT 1", (), 5.0)
        assert [e.xpath for e in log.entries()] == ["//q2", "//q3"]
        assert log.recorded == 4

    def test_updates_counters_through_store(self, metrics):
        store = XmlStore(backend="sqlite", encoding="global")
        doc = store.load("<list><i>a</i><i>b</i></list>")
        store.updates.insert(doc, 1, 0, "<i>new</i>")
        store.updates.delete(doc, store.fetch_children(doc, 1)[0]["id"])
        counters = metrics.snapshot()["counters"]
        assert counters["updates.inserts"] == 1
        assert counters["updates.deletes"] == 1
        # A dense global-encoding head insert must relabel followers.
        assert counters["updates.renumber_ops"] >= 1
        assert counters["updates.relabeled"] >= 1
        assert counters["updates.rows_touched"] >= 2
