"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import threading

import pytest

from repro.backends import make_backend
from repro.errors import StorageError
from repro.obs import (
    METRICS,
    current_tracer,
    span,
    tracing,
)
from repro.obs.tracer import _NULL_SPAN
from repro.robust import FaultInjectingBackend, FaultPlan, SimulatedCrash
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
        # Metrics count; only a tracer or a ``collect`` dict makes a
        # span read the clock.
        assert current_tracer() is None
        assert span("phase-a") is _NULL_SPAN
        phases: dict[str, float] = {}
        with span("phase-a", collect=phases):
            pass
        with span("phase-a", collect=phases):
            pass
        # With metrics on, a span still records no histogram of its own.
        assert metrics.snapshot()["histograms"] == {}
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
        # The query span names the plan that ran.
        (root,) = tracer.roots
        assert root.attrs["xpath"] == "//b"
        assert root.attrs["sql"].startswith("SELECT ")
        assert "node_dewey" in root.attrs["sql"]
        assert root.attrs["params"] == (doc, "b")

    def test_updates_counters_through_store(self, metrics):
        store = XmlStore(backend="sqlite", encoding="global", gap=1)
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

    @pytest.mark.skip_audit  # the crashed store has no engine left
    def test_faulted_runs_leave_no_open_spans(self):
        """Property: spans balance even when the backend faults.

        Fails a query and an update stream two ways — a statement
        sqlite refuses, which surfaces unretried as a typed error, and
        a simulated crash mid-stream — and asserts every span opened
        under the tracer was closed.
        """
        store = XmlStore(backend="sqlite", encoding="dewey")
        doc = store.load("<a><b/></a>")
        with tracing() as tracer:
            with pytest.raises(StorageError, match="too many FROM"):
                store.query("/a" + "/b" * 300, doc)
        assert {s.name for s in tracer.iter_spans()} >= {"query", "execute"}
        assert tracer.open_span_count() == 0
        assert all(s.closed for s in tracer.iter_spans())

        # A process death propagates through every span layer as a
        # BaseException; all of them must still close.
        injected = FaultInjectingBackend(make_backend("sqlite"))
        crashing = XmlStore(backend=injected, encoding="dewey")
        crash_doc = crashing.load("<list><i>1</i><i>2</i><i>3</i></list>")
        injected.arm(FaultPlan(crash_at_statement=6))
        with tracing() as crash_tracer:
            with pytest.raises(SimulatedCrash):
                for n in range(4):
                    crashing.updates.insert(crash_doc, 1, 0, f"<i>{n}</i>")
                    crashing.query("//i", crash_doc)
        assert injected.crashed
        assert "update.insert" in {s.name for s in crash_tracer.iter_spans()}
        assert crash_tracer.open_span_count() == 0
        assert all(s.closed for s in crash_tracer.iter_spans())


class TestSlowQueryLog:
    """``repro stats --slow-ms`` lists the traced ``query`` roots at or
    over the threshold."""

    @staticmethod
    def _stats(tmp_path, capsys, xml: str, xpath: str,
               slow_ms: str) -> list[str]:
        from repro.cli import main

        source = tmp_path / "doc.xml"
        source.write_text(xml)
        db = str(tmp_path / "store.db")
        assert main(["load", str(source), "--db", db,
                     "--encoding", "dewey"]) == 0
        capsys.readouterr()
        assert main(["stats", xpath, "--db", db, "--repeat", "1",
                     "--slow-ms", slow_ms]) == 0
        return capsys.readouterr().out.splitlines()

    def test_threshold_and_breakdown(self, tmp_path, capsys):
        out = self._stats(tmp_path, capsys, "<a><b>x</b></a>", "//b", "0")
        (head,) = [line for line in out if line.startswith("slow query (")]
        elapsed_ms, xpath = head[len("slow query ("):].split(" ms) ")
        assert xpath == "//b"
        assert float(elapsed_ms) > 0
        phases, sql = out[out.index(head) + 1:out.index(head) + 3]
        breakdown = {
            name: float(ms.removesuffix("ms"))
            for name, ms in (
                part.split("=")
                for part in phases[len("  phases: "):].split(", ")
            )
        }
        assert {"translate", "execute"} <= set(breakdown)
        # Rounded to 0.01 ms per phase, so allow that much per phase.
        assert sum(breakdown.values()) <= (
            float(elapsed_ms) + 0.01 * len(breakdown)
        )
        assert sql.startswith("  sql: ") and "SELECT" in sql

    def test_fast_queries_not_recorded(self, tmp_path, capsys):
        out = self._stats(tmp_path, capsys, "<a/>", "/a", "10000")
        assert "slow queries (>= 10000 ms): none" in out
        assert not [line for line in out if line.startswith("slow query (")]
