"""Tests for the fault-injection layer (repro.robust.faults)."""

import pytest

from repro.backends import make_backend
from repro.robust import FaultInjectingBackend, FaultPlan, SimulatedCrash
from repro.store import XmlStore

BACKENDS = ("sqlite", "minidb")


def _counting_store(backend_name, plan=None):
    injected = FaultInjectingBackend(make_backend(backend_name))
    store = XmlStore(backend=injected, encoding="dewey")
    injected.arm(plan)
    return store, injected


class TestFaultPlan:
    def test_crash_at_statement_is_exact(self):
        plan = FaultPlan(crash_at_statement=3)
        assert plan.next_fault(0) == "ok"
        assert plan.next_fault(1) == "ok"
        assert plan.next_fault(2) == "crash"


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestFaultInjectingBackend:
    def test_inert_without_plan(self, backend_name):
        store, injected = _counting_store(backend_name)
        doc = store.load("<a><b>x</b></a>")
        assert store.query_values("/a/b/text()", doc) == ["x"]
        assert injected.statements_executed > 0
        assert not injected.crashed

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
