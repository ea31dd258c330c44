"""Doc→shard routing, scatter-gather, and shard-failure isolation.

Global document ids encode their placement: a document stored as
shard-local id ``k`` on shard ``s`` of an ``n``-shard cluster is
``k * n + s`` globally, so routing is one divmod, the mapping survives
restarts without a directory table, and sorting by global id recovers
load order (round-robin loads interleave shards exactly as documents
arrived).

Cross-document queries scatter to every shard in parallel threads (one
``query_all`` round trip each) and merge per-document result groups in
global document order.  A shard that cannot be reached after the
router's reconnect attempts contributes a typed ``shard_unavailable``
error entry — never an exception — so a dead worker degrades exactly
its own documents while the rest of the corpus keeps serving; the
supervisor's respawn loop brings it back and the next retry
reconnects.

Retry semantics on the client→shard hop: connection failures where the
request never went out are always retried; failures after the request
was sent are retried only for idempotent reads (an update might have
committed before the socket died — blind retry could double-apply).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional

from repro.errors import ReproError
from repro.obs import METRICS, span
from repro.serve.client import ConnectionFailed, ShardClient
from repro.serve.supervisor import Supervisor

#: The shard hop's reconnect schedule: this many tries in all, the
#: first wait this long, doubling up to the cap, each wait scaled by a
#: random factor in ``[0.5, 1]`` so contending router threads
#: decorrelate.
_ATTEMPTS = 4
_FIRST_DELAY = 0.05
_MAX_DELAY = 1.0


class ShardUnavailable(ReproError):
    """A shard stayed unreachable through every retry, or dropped the
    connection after an update was sent (its outcome is unknown)."""

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(message)
        self.shard = shard


class ShardRouter:
    """Routes wire requests across a cluster's shard workers."""

    def __init__(
        self,
        supervisor: Supervisor,
        timeout: float = 30.0,
    ) -> None:
        self.supervisor = supervisor
        self.clients = [
            ShardClient(spec.socket_path, timeout=timeout)
            for spec in supervisor.specs
        ]
        self._load_lock = threading.Lock()
        self._next_shard = 0
        self._jitter = random.Random()

    @property
    def shards(self) -> int:
        return len(self.clients)

    # -- id mapping -------------------------------------------------------

    def global_doc(self, shard: int, local_doc: int) -> int:
        return local_doc * self.shards + shard

    def locate(self, doc: int) -> tuple[int, int]:
        """Global doc id → (shard index, shard-local doc id)."""
        local, shard = divmod(int(doc), self.shards)
        if local < 1:
            raise ReproError(f"no such document: {doc}")
        return shard, local

    # -- the shard hop ----------------------------------------------------

    def _call_shard(
        self, shard: int, message: dict, idempotent: bool
    ) -> dict:
        """Send *message* to *shard*, reconnecting on the schedule
        above; a request that was already sent is retried only when
        *idempotent* (see the module docstring)."""
        attempt, delay = 1, _FIRST_DELAY
        while True:
            try:
                return self.clients[shard].request(message)
            except ConnectionFailed as exc:
                ambiguous = exc.request_sent and not idempotent
                if ambiguous or attempt == _ATTEMPTS:
                    METRICS.inc("serve.shard_errors")
                    raise ShardUnavailable(shard, (
                        f"shard {shard}: connection lost mid-update ({exc})"
                        if ambiguous else f"shard {shard} unreachable: {exc}"
                    )) from exc
            METRICS.inc("serve.retries")
            time.sleep(delay * (1.0 - 0.5 * self._jitter.random()))
            attempt, delay = attempt + 1, min(2 * delay, _MAX_DELAY)

    # -- public API -------------------------------------------------------

    def ping(self) -> list[dict]:
        return [
            self._call_shard(s, {"op": "ping"}, idempotent=True)
            for s in range(self.shards)
        ]

    def load(self, xml: str, name: str = "serve") -> int:
        """Store a document on the least-loaded shard; global doc id."""
        with self._load_lock:
            shard = self._next_shard
            self._next_shard = (self._next_shard + 1) % self.shards
        with span("serve.load", shard=shard):
            response = self._call_shard(
                shard,
                {"op": "load", "xml": xml, "name": name},
                idempotent=False,
            )
        _raise_shard_error(shard, response)
        METRICS.inc("serve.loads")
        return self.global_doc(shard, int(response["doc"]))

    def query(self, xpath: str, doc: int) -> dict:
        """One document's results (items carry global doc ids)."""
        shard, local = self.locate(doc)
        with span("serve.query", shard=shard):
            METRICS.inc("serve.queries")
            response = self._call_shard(
                shard,
                {"op": "query", "xpath": xpath, "doc": local},
                idempotent=True,
            )
        _raise_shard_error(shard, response)
        return {"doc": doc, "items": response["items"]}

    def query_scatter(self, xpath: str) -> dict:
        """Every document's results, merged in document order.

        Returns ``{"groups": [{doc, items}...], "errors": [...]}`` —
        a dead shard adds one typed error entry instead of failing the
        whole query.
        """
        METRICS.inc("serve.scatter_queries")
        results: list[Optional[dict]] = [None] * self.shards
        errors: list[dict] = []
        errors_lock = threading.Lock()

        def fetch(shard: int) -> None:
            try:
                response = self._call_shard(
                    shard,
                    {"op": "query_all", "xpath": xpath},
                    idempotent=True,
                )
                _raise_shard_error(shard, response)
                results[shard] = response
            except ReproError as exc:
                with errors_lock:
                    errors.append({
                        "shard": shard,
                        "type": "shard_unavailable"
                        if isinstance(exc, ShardUnavailable)
                        else "store_error",
                        "message": str(exc),
                    })

        with span("serve.scatter", shards=self.shards):
            threads = [
                threading.Thread(target=fetch, args=(s,), daemon=True)
                for s in range(self.shards)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        groups = []
        for shard, response in enumerate(results):
            if response is None:
                continue
            for local_doc, items in response["results"]:
                groups.append({
                    "doc": self.global_doc(shard, int(local_doc)),
                    "items": items,
                })
        groups.sort(key=lambda g: g["doc"])
        return {"groups": groups, "errors": errors}

    def update(self, doc: int, change: dict) -> dict:
        shard, local = self.locate(doc)
        with span("serve.update", shard=shard):
            METRICS.inc("serve.updates")
            response = self._call_shard(
                shard,
                {"op": "update", "doc": local, "change": change},
                idempotent=False,
            )
        _raise_shard_error(shard, response)
        return response

    def trace(self, xpath: str, doc: int) -> dict:
        shard, local = self.locate(doc)
        response = self._call_shard(
            shard,
            {"op": "trace", "xpath": xpath, "doc": local},
            idempotent=True,
        )
        _raise_shard_error(shard, response)
        return response

    def stats(self) -> dict:
        """Aggregate router + per-shard counters (dead shards noted)."""
        shards = []
        for shard in range(self.shards):
            try:
                response = self._call_shard(
                    shard, {"op": "stats"}, idempotent=True
                )
                shards.append({
                    "shard": shard,
                    "pid": response.get("pid"),
                    "docs": response.get("docs"),
                    "counters": response.get("counters", {}),
                })
            except ShardUnavailable as exc:
                shards.append({
                    "shard": shard,
                    "error": str(exc),
                })
        return {
            "shards": shards,
            "router": METRICS.snapshot(),
            "generations": list(self.supervisor.generations),
        }

    def documents(self) -> list[dict]:
        """Catalogue across the cluster, in global document order."""
        docs = []
        for shard in range(self.shards):
            response = self._call_shard(
                shard, {"op": "docs"}, idempotent=True
            )
            _raise_shard_error(shard, response)
            for info in response["docs"]:
                entry = dict(info)
                entry["doc"] = self.global_doc(shard, int(info["doc"]))
                entry["shard"] = shard
                docs.append(entry)
        docs.sort(key=lambda d: d["doc"])
        return docs

    # -- front-door dispatch ----------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one front-door request; always returns a response."""
        from repro.serve.protocol import error_response, ok_response

        op = request.get("op")
        METRICS.inc("serve.requests")
        try:
            if op == "ping":
                return ok_response(
                    request, pong=True, shards=self.shards
                )
            if op == "load":
                doc = self.load(
                    request["xml"], request.get("name", "serve")
                )
                return ok_response(request, doc=doc)
            if op == "query":
                if request.get("doc") is None:
                    scattered = self.query_scatter(request["xpath"])
                    return ok_response(
                        request,
                        groups=scattered["groups"],
                        errors=scattered["errors"],
                    )
                result = self.query(
                    request["xpath"], int(request["doc"])
                )
                return ok_response(
                    request, doc=result["doc"], items=result["items"]
                )
            if op == "update":
                response = self.update(
                    int(request["doc"]), request["change"]
                )
                return ok_response(
                    request,
                    rows_touched=response.get("rows_touched"),
                    relabeled=response.get("relabeled"),
                )
            if op == "trace":
                response = self.trace(
                    request["xpath"], int(request["doc"])
                )
                return ok_response(
                    request,
                    items=response["items"],
                    trace=response["trace"],
                )
            if op == "stats":
                return ok_response(request, **self.stats())
            if op == "docs":
                return ok_response(request, docs=self.documents())
            return error_response(
                request, "bad_request", f"unknown op {op!r}"
            )
        except ShardUnavailable as exc:
            return error_response(
                request, "shard_unavailable", str(exc), shard=exc.shard
            )
        except (KeyError, TypeError, ValueError) as exc:
            return error_response(
                request, "bad_request", f"malformed request: {exc!r}"
            )
        except ReproError as exc:
            return error_response(request, "store_error", str(exc))

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _raise_shard_error(shard: int, response: dict) -> None:
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ReproError(
            f"shard {shard} [{error.get('type', 'unknown')}]: "
            f"{error.get('message', '')}"
        )
