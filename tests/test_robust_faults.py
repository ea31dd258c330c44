"""Tests for the fault-injection and retry layers (repro.robust)."""

import sqlite3

import pytest

from repro.backends import make_backend
from repro.errors import TransientStorageError
from repro.obs import METRICS
from repro.robust import (
    FaultInjectingBackend,
    FaultPlan,
    RetryPolicy,
    SimulatedCrash,
    TransientInjectedError,
    is_transient_error,
)
from repro.store import XmlStore

BACKENDS = ("sqlite", "minidb")


def _counting_store(backend_name, plan=None, retry=None):
    injected = FaultInjectingBackend(make_backend(backend_name))
    store = XmlStore(backend=injected, encoding="dewey", retry=retry)
    injected.arm(plan)
    return store, injected


@pytest.fixture
def metrics():
    """The process metrics registry, enabled and zeroed for one test."""
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    yield METRICS
    METRICS.enabled = was_enabled
    METRICS.reset()


class TestFaultPlan:
    def test_crash_at_statement_is_exact(self):
        plan = FaultPlan(crash_at_statement=3)
        assert plan.next_fault(0) == "ok"
        assert plan.next_fault(1) == "ok"
        assert plan.next_fault(2) == "crash"

    def test_transient_rate_is_seeded_and_bounded(self):
        plan_a = FaultPlan(seed=7, transient_rate=0.5,
                           max_consecutive_transients=2)
        plan_b = FaultPlan(seed=7, transient_rate=0.5,
                           max_consecutive_transients=2)
        fates_a = [plan_a.next_fault(0) for _ in range(50)]
        fates_b = [plan_b.next_fault(0) for _ in range(50)]
        assert fates_a == fates_b  # deterministic replay
        assert "transient" in fates_a
        # Never more than the cap in a row.
        run = 0
        for fate in fates_a:
            run = run + 1 if fate == "transient" else 0
            assert run <= 2

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=1.5)


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestFaultInjectingBackend:
    def test_inert_without_plan(self, backend_name):
        store, injected = _counting_store(backend_name)
        doc = store.load("<a><b>x</b></a>")
        assert store.query_values("/a/b/text()", doc) == ["x"]
        assert injected.statements_executed > 0
        assert not injected.crashed

    def test_transient_fault_surfaces_without_retry(self, backend_name):
        store, injected = _counting_store(backend_name)
        doc = store.load("<a/>")
        injected.arm(FaultPlan(transient_rate=0.99,
                               max_consecutive_transients=1))
        with pytest.raises(TransientInjectedError):
            store.query("/a", doc)
        injected.arm(None)

    @pytest.mark.skip_audit
    def test_crash_discards_engine(self, backend_name):
        store, injected = _counting_store(backend_name)
        doc = store.load("<a><b/><b/></a>")
        injected.arm(FaultPlan(crash_at_statement=2))
        with pytest.raises(SimulatedCrash):
            store.updates.insert(doc, 1, 0, "<c/>")
        assert injected.crashed
        # A dead backend stays dead: every further statement raises.
        with pytest.raises(SimulatedCrash):
            store.query("/a", doc)
        # ... but rollback/close are silent no-ops (nobody is left to
        # run them after a real process death).
        injected.rollback()
        injected.close()

    @pytest.mark.skip_audit
    def test_crash_pierces_broad_except_clauses(self, backend_name):
        store, injected = _counting_store(backend_name)
        doc = store.load("<a/>")
        injected.arm(FaultPlan(crash_at_statement=1))
        with pytest.raises(SimulatedCrash):
            try:
                store.query("/a", doc)
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash was caught as an Exception")


class TestRetryPolicy:
    def test_classification(self):
        assert is_transient_error(TransientInjectedError("busy"))
        assert is_transient_error(
            sqlite3.OperationalError("database is locked")
        )
        assert is_transient_error(
            sqlite3.OperationalError("database table is busy")
        )
        assert not is_transient_error(ValueError("nope"))
        assert not is_transient_error(
            sqlite3.OperationalError("no such table: t")
        )

    def test_retries_until_success(self, metrics):
        sleeps = []
        policy = RetryPolicy(attempts=5, base_delay=0.01, seed=0,
                             sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientInjectedError("busy")
            return "done"

        assert policy.run(flaky) == "done"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0] * 0.5  # backoff grows (with jitter)
        # Two faults were classified transient, both were retried, and
        # the third attempt recovered.
        counters = metrics.snapshot()["counters"]
        assert counters.get("retry.transient_faults") == 2
        assert counters.get("retry.retries") == 2
        assert counters.get("retry.recoveries") == 1
        assert "retry.exhausted" not in counters

    def test_exhaustion_raises_typed_error(self, metrics):
        policy = RetryPolicy(attempts=3, sleep=lambda _d: None)

        def always_busy():
            raise TransientInjectedError("busy")

        with pytest.raises(TransientStorageError) as excinfo:
            policy.run(always_busy)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error,
                          TransientInjectedError)
        assert isinstance(excinfo.value.__cause__,
                          TransientInjectedError)
        # Three faults, two re-attempts after the first, no recovery,
        # one exhausted budget.
        counters = metrics.snapshot()["counters"]
        assert counters.get("retry.transient_faults") == 3
        assert counters.get("retry.retries") == 2
        assert "retry.recoveries" not in counters
        assert counters.get("retry.exhausted") == 1

    def test_permanent_errors_propagate_immediately(self):
        policy = RetryPolicy(attempts=5, sleep=lambda _d: None)
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            policy.run(broken)
        assert calls["n"] == 1

    def test_delays_bounded_by_max(self):
        policy = RetryPolicy(attempts=10, base_delay=0.1, max_delay=0.3,
                             jitter=0.0, seed=1, sleep=lambda _d: None)
        assert policy.backoff_delay(9) == 0.3


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestRetryThroughStore:
    def test_update_stream_survives_transients(self, backend_name,
                                               metrics):
        self._stream_survives(backend_name, metrics, rate=0.05,
                              indexed=False)

    def test_indexed_update_stream_survives_transients(self, backend_name,
                                                       metrics):
        """Index maintenance multiplies the statements per commit, and
        one fault anywhere in a transaction replays all of it: at 5%
        six attempts do not get this stream's longer transactions
        through (seed 11 exhausts), at 2% they do."""
        self._stream_survives(backend_name, metrics, rate=0.02,
                              indexed=True)

    def _stream_survives(self, backend_name, metrics, rate, indexed):
        retry = RetryPolicy(attempts=6, base_delay=0.0001,
                            max_delay=0.001, seed=3,
                            sleep=lambda _d: None)
        store, injected = _counting_store(backend_name, retry=retry)
        doc = store.load("<list><i>1</i><i>2</i></list>")
        if indexed:
            store.indexes.create(doc)
        injected.arm(FaultPlan(seed=11, transient_rate=rate,
                               max_consecutive_transients=2))
        root = 1
        for n in range(6):
            store.updates.insert(doc, root, 0, f"<i>{n}</i>")
        store.updates.set_text(doc, root, "t")
        store.updates.delete(doc, store.fetch_children(doc, root)[0]["id"])
        injected.arm(None)
        assert store.node_count(doc) >= 1
        # The whole stream succeeded, so every injected fault was both
        # retried and eventually recovered from: faults == retries,
        # each faulted operation recovered, and nothing exhausted.
        counters = metrics.snapshot()["counters"]
        faults = counters.get("retry.transient_faults", 0)
        assert faults >= 1  # the seeded plan injects at least one
        assert counters.get("retry.retries", 0) == faults
        assert 1 <= counters.get("retry.recoveries", 0) <= faults
        assert "retry.exhausted" not in counters
        if indexed:  # every committed op maintained the index
            assert counters["index.maintained"] >= 8

    def test_exhausted_retry_surfaces_typed_error(self, backend_name):
        retry = RetryPolicy(attempts=2, sleep=lambda _d: None)
        store, injected = _counting_store(backend_name, retry=retry)
        doc = store.load("<a/>")
        injected.arm(FaultPlan(transient_rate=0.99,
                               max_consecutive_transients=99))
        with pytest.raises(TransientStorageError):
            store.query("/a", doc)
        injected.arm(None)
