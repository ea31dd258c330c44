"""A single-writer queue with group commit.

All update transactions of a store funnel through one writer thread.
Adjacent submissions are drained into a *batch* and executed inside one
``BEGIN ... COMMIT`` — group commit — so N concurrent small updates pay
one commit (and, on a file-backed sqlite store, one WAL append) instead
of N.  Each submission gets a :class:`concurrent.futures.Future`;
results and typed errors propagate to the submitting thread.

Semantics preserved from the single-threaded store:

* **Atomicity** — a batch either commits wholly or rolls back wholly.
  When one operation of a multi-operation batch fails, the batch rolls
  back and every operation is retried *individually* in its own
  transaction, so an unrelated submitter never sees a neighbour's
  error.
* **Retry** — the store's :class:`~repro.robust.retry.RetryPolicy` (if
  any) wraps whole batch attempts, exactly like it wraps whole update
  transactions: a batch *is* one ``XmlStore._commit``, so a transient
  fault rolls the batch back and replays it from scratch.
* **Invalidation** — each operation's write set is collected on the
  writer thread; the commit invalidates their union before any
  submitter's future resolves.
* **Crash** — a :class:`~repro.robust.faults.SimulatedCrash` (or any
  ``BaseException`` outside ``Exception``) marks the queue dead: every
  in-flight and queued future is failed with the crash, and later
  submissions raise :class:`~repro.errors.WriteQueueClosedError`.  The
  rolled-back batch leaves the durable state exactly pre-batch.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.errors import WriteQueueClosedError
from repro.obs import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore

T = TypeVar("T")

_SENTINEL = object()


class WriteQueue:
    """Funnels a store's update transactions through one writer thread."""

    def __init__(
        self,
        store: "XmlStore",
        max_batch: int = 16,
        autostart: bool = True,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.store = store
        self.max_batch = max_batch
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._death: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-writer", daemon=True
        )
        self._started = False
        #: Group-commit statistics.
        self.batches = 0
        self.operations = 0
        self.grouped_operations = 0
        if autostart:
            self.start()

    # -- submission side ---------------------------------------------------

    def start(self) -> None:
        """Start the writer thread (idempotent).

        ``autostart=False`` plus a late :meth:`start` lets callers (the
        crash harness, the group-commit tests) stage a whole batch
        before the writer drains it.
        """
        if not self._started:
            self._started = True
            self._thread.start()

    def accepting(self) -> bool:
        return not self._closed and self._death is None

    def on_writer_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def submit(self, operation: Callable[[], T]) -> "Future[T]":
        """Enqueue *operation*; returns its future."""
        if self._closed:
            raise WriteQueueClosedError("write queue is closed")
        if self._death is not None:
            raise WriteQueueClosedError(
                f"writer thread died: {self._death!r}"
            )
        future: "Future[T]" = Future()
        self._queue.put((operation, future))
        return future

    def call(
        self, operation: Callable[[], T], timeout: Optional[float] = None
    ) -> T:
        """Enqueue *operation* and block for its result."""
        return self.submit(operation).result(timeout)

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting work, drain what was queued, join the writer."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_SENTINEL)
        if self._started:
            self._thread.join(timeout)

    # -- writer side -------------------------------------------------------

    def _run(self) -> None:
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _SENTINEL:
                stopping = True
                batch = []
            else:
                batch = [item]
            # Group commit: drain adjacent submissions into this batch.
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SENTINEL:
                    stopping = True
                    continue
                batch.append(extra)
            if batch and not self._execute_batch(batch):
                return  # the backend crashed; futures already failed
        # Fail anything that raced in after the sentinel.
        self._fail_pending(WriteQueueClosedError("write queue is closed"))

    def _execute_batch(self, batch: list) -> bool:
        """Run one batch; returns False when the writer must die."""
        try:
            # One transaction for the whole batch, committed through
            # the store's own commit path: whole-attempt retry, and —
            # before any submitter's future resolves — invalidation of
            # the union of the operations' write sets, so a submitter
            # that queries right after its ``call()`` returns can never
            # see a pre-batch result.
            results = self.store._commit(
                [operation for operation, _future in batch]
            )
        except Exception as exc:
            if len(batch) == 1:
                batch[0][1].set_exception(exc)
                return True
            # The group rolled back; isolate the failure by replaying
            # each operation in its own transaction.
            return self._replay_individually(batch)
        except BaseException as death:  # SimulatedCrash, KeyboardInterrupt
            self._die(batch, death)
            return False
        for (_operation, future), result in zip(batch, results):
            future.set_result(result)
        self._count_batch(len(batch))
        return True

    def _replay_individually(self, batch: list) -> bool:
        for operation, future in batch:
            try:
                # Per-op commit: same retry and
                # invalidate-before-resolve rule as the group's.
                result = self.store._commit([operation])[0]
            except Exception as exc:
                future.set_exception(exc)
            except BaseException as death:
                remaining = [
                    (op, f)
                    for op, f in batch
                    if not f.done() and f is not future
                ]
                future.set_exception(death)
                self._die(remaining, death)
                return False
            else:
                future.set_result(result)
                self._count_batch(1)
        return True

    def _count_batch(self, size: int) -> None:
        self.batches += 1
        self.operations += size
        if size > 1:
            self.grouped_operations += size
        METRICS.inc("writequeue.batches")
        METRICS.inc("writequeue.operations", size)
        METRICS.observe("writequeue.batch_size", size)

    def _die(self, in_flight: list, death: BaseException) -> None:
        """The 'process' died mid-batch: fail everything, go dark."""
        self._death = death
        for _operation, future in in_flight:
            if not future.done():
                future.set_exception(death)
        self._fail_pending(death)

    def _fail_pending(self, error: BaseException) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SENTINEL:
                continue
            _operation, future = item
            if not future.done():
                future.set_exception(error)
