"""Rollback sweep: a write that fails at any statement changes nothing.

``repro crashtest`` proves atomicity by crashing a file-backed sqlite
store, whose open transaction dies with the connection.  minidb keeps
no files, so its atomicity is its undo journal, and an ordinary error
is what exercises that: the store's transaction scope must roll back
every statement the write already ran.

Per ``(backend, encoding, seed)`` cell the document is a seeded one
after two seeded updates; each action is counted on a twin store, then
for every statement k a freshly built store raises before statement k.
The store must audit clean, hold exactly the pre-action state, and
still apply the action for real, landing on the twin's post state.
"""

import random
from functools import partial

import pytest

from repro.backends import make_backend
from repro.check.fuzz import DEFAULT_ENCODINGS, apply_operation, plan_operation
from repro.check.invariants import audit_store, summarize_violations
from repro.migrate import migrate_document
from repro.robust.faults import FaultInjectingBackend
from repro.store import XmlStore
from repro.workload.docgen import random_document
from repro.xmldom import serialize


class InjectedFailure(Exception):
    """The ordinary error raised in place of a statement."""


class FailingBackend(FaultInjectingBackend):
    """Counts statements as the crash injector does, and raises
    :class:`InjectedFailure` — once — in place of statement
    ``fail_at`` (1-based)."""

    fail_at = None

    def _fail(self) -> None:
        if self.fail_at == self.statements_executed + 1:
            self.fail_at = None
            raise InjectedFailure(
                f"injected before statement {self.statements_executed + 1}"
            )

    def execute(self, sql, params=()):
        self._fail()
        return super().execute(sql, params)

    def executemany(self, sql, param_rows):
        self._fail()
        return super().executemany(sql, param_rows)


def build(backend: str, encoding: str, seed: int):
    """A store holding the seeded document after two seeded updates,
    its injector and the planner's rng."""
    injector = FailingBackend(make_backend(backend))
    store = XmlStore(backend=injector, encoding=encoding)
    doc = store.load(random_document(seed))
    rng = random.Random(seed * 6389 + 11)
    for _ in range(2):
        apply_operation(store, doc, plan_operation(rng, store, doc))
    injector.arm(None)
    return store, injector, doc, rng


def state(store: XmlStore, doc: int) -> tuple:
    info = store.document_info(doc, fresh=True)
    return (
        serialize(store.reconstruct(doc)),
        info.node_count, info.next_id, info.encoding, info.indexed,
    )


def migrate_to_next(store, doc, op, encoding):
    order = DEFAULT_ENCODINGS
    target = order[(order.index(encoding) + 1) % len(order)]
    migrate_document(store, doc, target)


ACTIONS = {
    "update": lambda store, doc, op, encoding: apply_operation(store, doc, op),
    "migrate": migrate_to_next,
    "index": lambda store, doc, op, encoding: store.indexes.create(doc),
}


@pytest.mark.skip_audit  # every store is audited below
@pytest.mark.parametrize("action", sorted(ACTIONS))
@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("encoding", DEFAULT_ENCODINGS)
@pytest.mark.parametrize("backend", ("sqlite", "minidb"))
def test_every_statement_boundary_rolls_back(backend, encoding, seed, action):
    twin, counter, doc, rng = build(backend, encoding, seed)
    act = partial(
        ACTIONS[action], doc=doc, op=plan_operation(rng, twin, doc),
        encoding=encoding,
    )
    pre = state(twin, doc)
    counter.arm(None)
    act(twin)
    statements = counter.statements_executed
    post = state(twin, doc)
    assert statements > 0
    assert summarize_violations(audit_store(twin)) is None

    for k in range(1, statements + 1):
        store, injector, _, _ = build(backend, encoding, seed)
        injector.fail_at = k
        with pytest.raises(Exception):
            act(store)
        where = f"failure before statement {k} of {statements}"
        assert injector.fail_at is None, f"{where} never fired"
        assert summarize_violations(audit_store(store)) is None, where
        assert state(store, doc) == pre, where
        act(store)
        assert state(store, doc) == post, f"{where}, then a clean run"
