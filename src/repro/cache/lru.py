"""LRU caching for one :class:`~repro.store.XmlStore`, invalidated by
exactly what each commit wrote.

A :class:`StoreCache` holds four LRU layers:

* **plan** — :class:`~repro.core.relalg.CompiledPlan` objects, keyed
  on ``(encoding, xpath-shape, indexed)``.  The shape is the XPath
  with predicate literals lifted into parameter slots, so one plan
  serves every document, however deep, and every literal value; the
  doc id, context node, and literals bind per request via
  ``plan.bind()``.  *indexed* says whether the plan's eligible
  fragments probe the index tables.  The key therefore *determines*
  the plan: no committed write can make a cached plan wrong for its
  key, so plans carry **no epoch** and no write ever drops one — a
  write changes which key the next read asks for (an index created or
  dropped), never what a key means.
* **catalog** — per-document catalogue state, keyed on the doc id:
  the :class:`~repro.store.DocumentInfo` row, which says whether the
  document is indexed.
* **result** — materialized query results, keyed on
  ``(doc, xpath, context_id)``.
* **keys** — what Local's order keys are built from, keyed on the doc
  id: one dict per document of its parent pointers, ``node id ->
  (parent id, sibling order value)``, to which every client-order walk
  that fetched adds its rows' and its fetched nodes' (see
  ``XmlStore._order_keys``).  A put merges into the document's dict
  rather than replacing it, so a read pays for the pointers it adds,
  not for the ones already kept.

Catalog, result and keys entries belong to one document each, and are
invalidated **per document** under this protocol:

1. A reader calls :meth:`StoreCache.epoch` for its document *before*
   touching any backend state, computes its value, then calls
   ``put_*`` with that observed epoch.
2. Every commit hands :meth:`StoreCache.bump` its **write set** — the
   documents its transaction wrote — before and after its COMMIT.  The
   bump advances those documents' epochs and drops their catalog,
   result and keys entries;
   every other document's entries stay.  A commit that cannot name
   its write set passes none, and the bump falls back to dropping the
   per-document entries of *every* document.
3. A ``put_*`` whose observed epoch no longer matches its document's
   is refused, so a value computed from pre-commit state can never
   outlive the writer's bump — the classic read-during-write race
   stores nothing instead of storing a stale entry.

Epochs are drawn from one monotonic per-store clock, and a document
without an entry reads as the clock itself.  Document ids are reused
after a delete, and this is what makes that safe: whatever a reader
captured for the old document — an entry or the clock — every later
write advances the clock past it, so neither dropping a deleted
document's entry (:meth:`StoreCache.forget`) nor re-creating the id
can ever make a stale capture match again.  Bookkeeping is one integer
per document written since it was last forgotten.

Across threads: the clock, the per-document epochs and the layers sit
behind one lock, shared by every thread of the store.  Why a commit
bumps twice, and what a reader may see in between, is
:meth:`~repro.store.XmlStore._commit`'s to say.

Threads inside their own transaction bypass the cache entirely (the
store checks ``_in_own_transaction()`` before every lookup/insert), so
uncommitted state is never cached and update-internal catalogue reads
stay fresh.  The keys layer is also bypassed by a read scope that lets
writers commit beside it (a file): its snapshot may be older than the
kept pointers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.obs import METRICS


class _LruLayer:
    """One LRU layer.  Not self-locking: StoreCache holds the lock.

    A per-document layer is built with *doc_of* (key -> doc id) and
    keeps ``keys_of`` — each document's live keys — in step with every
    insert and eviction, so dropping a document costs its own entries,
    not a scan of the layer.
    """

    __slots__ = ("name", "capacity", "doc_of", "entries", "keys_of",
                 "hits", "misses", "evictions", "invalidations")

    def __init__(
        self,
        name: str,
        capacity: int,
        doc_of: Optional[Callable[[Any], int]] = None,
    ) -> None:
        self.name = name
        self.capacity = capacity
        self.doc_of = doc_of
        self.entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.keys_of: dict[int, set] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def put(self, key: Hashable, value: Any) -> int:
        """Insert as most recent; returns how many entries it evicted."""
        self.entries[key] = value
        self.entries.move_to_end(key)
        doc_of = self.doc_of
        if doc_of is not None:
            self.keys_of.setdefault(doc_of(key), set()).add(key)
        evicted = 0
        while len(self.entries) > self.capacity:
            old, _value = self.entries.popitem(last=False)
            if doc_of is not None:
                doc = doc_of(old)
                keys = self.keys_of[doc]
                keys.discard(old)
                if not keys:
                    del self.keys_of[doc]
            evicted += 1
        self.evictions += evicted
        return evicted

    def drop(self, doc: int) -> int:
        """Invalidate every entry of *doc*; returns how many."""
        keys = self.keys_of.pop(doc, ())
        for key in keys:
            del self.entries[key]
        self.invalidations += len(keys)
        return len(keys)

    def clear(self) -> int:
        """Invalidate every entry; returns how many."""
        count = len(self.entries)
        self.entries.clear()
        self.keys_of.clear()
        self.invalidations += count
        return count


#: Per-document keys lead with their doc id.
_DOC_FIRST = itemgetter(0)


class StoreCache:
    """Plan/catalog/result/keys caches of one store (see the module
    doc)."""

    def __init__(
        self,
        enabled: bool = True,
        plan_capacity: int = 256,
        catalog_capacity: int = 128,
        result_capacity: int = 512,
    ) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        #: Monotonic source of every epoch; ticks once per bump.
        self._clock = 0
        #: doc -> epoch of its last write (absent: reads as the clock).
        self._doc_epochs: dict[int, int] = {}
        self._plan = _LruLayer("plan", plan_capacity)
        self._catalog = _LruLayer("catalog", catalog_capacity, _DOC_FIRST)
        self._result = _LruLayer("result", result_capacity, _DOC_FIRST)
        # A document's keys live as long as its catalogue entry would.
        self._keys = _LruLayer("keys", catalog_capacity, _DOC_FIRST)
        self._layers = (self._plan, self._catalog, self._result, self._keys)
        self._doc_layers = (self._catalog, self._result, self._keys)

    # -- epoch protocol ---------------------------------------------------

    def epoch(self, doc: int) -> int:
        """The epoch a reader of *doc* must capture before reading
        backend state, and hand back with its ``put_*``."""
        with self._lock:
            return self._doc_epochs.get(doc, self._clock)

    def bump(self, docs: Iterable[int] = ()) -> None:
        """A write committed: invalidate what it can have changed.

        *docs* is the commit's write set.  Those documents' epochs
        advance and their catalog, result and keys entries go; with an empty
        (unknown) write set, every document's do.  Plans are never
        touched — their key is their validity.
        """
        if not self.enabled:
            return
        docs = tuple(docs)
        dropped: list[tuple[str, int]] = []
        with self._lock:
            self._clock += 1
            if docs:
                for doc in docs:
                    self._doc_epochs[doc] = self._clock
                for layer in self._doc_layers:
                    count = sum(layer.drop(doc) for doc in docs)
                    dropped.append((layer.name, count))
            else:
                # Every document now reads as the new clock value.
                self._doc_epochs.clear()
                for layer in self._doc_layers:
                    dropped.append((layer.name, layer.clear()))
        self._count_invalidations(dropped)

    def forget(self, doc: int) -> None:
        """*doc* was deleted (its delete already bumped): drop its
        epoch bookkeeping.  Safe at any time — see the module doc."""
        with self._lock:
            self._doc_epochs.pop(doc, None)

    def clear(self) -> None:
        """Empty every layer, plans included — for experiments and
        tests that need a cold cache; no commit path calls this."""
        with self._lock:
            self._clock += 1
            self._doc_epochs.clear()
            dropped = [(layer.name, layer.clear()) for layer in self._layers]
        self._count_invalidations(dropped)

    @staticmethod
    def _count_invalidations(dropped: list[tuple[str, int]]) -> None:
        for name, count in dropped:
            if count:
                METRICS.inc("cache.invalidate", count)
                METRICS.inc(f"cache.{name}.invalidate", count)

    # -- generic get/put --------------------------------------------------

    def _get(self, layer: _LruLayer, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in layer.entries:
                layer.entries.move_to_end(key)
                layer.hits += 1
                value = layer.entries[key]
                hit = True
            else:
                layer.misses += 1
                value = None
                hit = False
        if hit:
            METRICS.inc("cache.hit")
            METRICS.inc(f"cache.{layer.name}.hit")
        else:
            METRICS.inc("cache.miss")
            METRICS.inc(f"cache.{layer.name}.miss")
        return value

    def _stale(
        self, layer: _LruLayer, key: Hashable,
        observed_epoch: Optional[int],
    ) -> bool:
        """Whether a value for *key* was computed from state a writer of
        its document has since superseded (or raced past).  Only
        per-document layers carry an epoch (plans: none).  The caller
        holds the lock."""
        return layer.doc_of is not None and observed_epoch != (
            self._doc_epochs.get(layer.doc_of(key), self._clock)
        )

    @staticmethod
    def _count_evictions(layer: _LruLayer, evicted: int) -> None:
        if evicted:
            METRICS.inc("cache.evict", evicted)
            METRICS.inc(f"cache.{layer.name}.evict", evicted)

    def _put(
        self, layer: _LruLayer, key: Hashable, value: Any,
        observed_epoch: Optional[int] = None,
    ) -> bool:
        with self._lock:
            if self._stale(layer, key, observed_epoch):
                return False
            evicted = layer.put(key, value)
        self._count_evictions(layer, evicted)
        return True

    # -- per-layer fronts -------------------------------------------------

    def get_plan(self, key: Hashable) -> Optional[Any]:
        return self._get(self._plan, key)

    def put_plan(self, key: Hashable, value: Any) -> bool:
        return self._put(self._plan, key, value)

    def get_catalog(self, doc: int) -> Optional[Any]:
        return self._get(self._catalog, (doc, "info"))

    def put_catalog(self, doc: int, value: Any, observed_epoch: int
                    ) -> bool:
        return self._put(self._catalog, (doc, "info"), value,
                         observed_epoch)

    def get_result(self, key: tuple) -> Optional[Any]:
        return self._get(self._result, key)

    def put_result(self, key: tuple, value: Any, observed_epoch: int
                   ) -> bool:
        """*key* is ``(doc, xpath, context_id)``."""
        return self._put(self._result, key, value, observed_epoch)

    def get_keys(self, doc: int) -> Optional[dict]:
        """*doc*'s kept parent pointers: the live dict, which later
        puts extend in place.  Read it, never write it, inside a read
        scope that holds writers off (in memory one scope runs at a
        time)."""
        return self._get(self._keys, (doc, "keys"))

    def put_keys(self, doc: int, keys: dict, observed_epoch: int) -> bool:
        """Add *keys* (``node id -> (parent id, sibling order
        value)``) to *doc*'s kept parent pointers; *keys* becomes the
        kept dict if there is none."""
        layer, key = self._keys, (doc, "keys")
        evicted = 0
        with self._lock:
            if self._stale(layer, key, observed_epoch):
                return False
            kept = layer.entries.get(key)
            if kept is None:
                evicted = layer.put(key, keys)
            else:
                kept.update(keys)
        self._count_evictions(layer, evicted)
        return True

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        """A JSON-serializable snapshot (for ``repro stats``)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "epoch": self._clock,
                "doc_epochs": len(self._doc_epochs),
                "layers": {
                    layer.name: {
                        "size": len(layer.entries),
                        "capacity": layer.capacity,
                        "hits": layer.hits,
                        "misses": layer.misses,
                        "evictions": layer.evictions,
                        "invalidations": layer.invalidations,
                    }
                    for layer in self._layers
                },
            }

    def hit_rate(self) -> float:
        """Aggregate hit fraction across all layers (0.0 when unused)."""
        with self._lock:
            hits = sum(layer.hits for layer in self._layers)
            misses = sum(layer.misses for layer in self._layers)
        total = hits + misses
        return hits / total if total else 0.0
