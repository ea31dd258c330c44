"""Serve subsystem tests: worker dispatch, routing math, loadgen
statistics (fast, in-process) and full-cluster integration including
shard-kill recovery (marked slow — real processes).
"""

import tempfile

import pytest

from repro.serve.loadgen import percentile
from repro.serve.worker import ShardWorker
from repro.store import XmlStore
from repro.xmldom.parser import parse
from repro.xmldom.serializer import serialize

SMALL_XML = "<r><a>1</a><b>two</b><a>3</a></r>"


@pytest.fixture()
def worker():
    store = XmlStore(backend="sqlite", encoding="dewey", gap=1)
    try:
        yield ShardWorker(store, shard_index=0)
    finally:
        store.close()


class TestShardWorkerDispatch:
    def test_ping(self, worker):
        response = worker.handle({"op": "ping"})
        assert response["ok"] and response["pong"]
        assert response["shard"] == 0

    def test_unknown_op(self, worker):
        response = worker.handle({"op": "nope"})
        assert not response["ok"]
        assert response["error"]["type"] == "bad_request"

    def test_missing_op(self, worker):
        assert not worker.handle({})["ok"]

    def test_load_query_roundtrip(self, worker):
        doc = worker.handle({"op": "load", "xml": SMALL_XML})["doc"]
        response = worker.handle(
            {"op": "query", "xpath": "//a", "doc": doc}
        )
        assert response["ok"]
        assert len(response["items"]) == 2
        kinds = {item[0] for item in response["items"]}
        assert kinds == {"elem"}

    def test_query_all_covers_every_document(self, worker):
        docs = [
            worker.handle({"op": "load", "xml": SMALL_XML})["doc"]
            for _ in range(3)
        ]
        response = worker.handle({"op": "query_all", "xpath": "//a"})
        assert response["ok"]
        assert [r[0] for r in response["results"]] == docs
        assert all(len(r[1]) == 2 for r in response["results"])

    def test_update_and_state(self, worker):
        doc = worker.handle({"op": "load", "xml": SMALL_XML})["doc"]
        state = worker.handle({"op": "state", "doc": doc})
        root = worker.handle(
            {"op": "query", "xpath": "/*", "doc": doc}
        )["items"][0][1]
        response = worker.handle({
            "op": "update",
            "doc": doc,
            "change": {"kind": "set_attr", "target": root,
                       "name": "k", "value": "v"},
        })
        assert response["ok"] and response["rows_touched"] >= 1
        after = worker.handle({"op": "state", "doc": doc})
        assert after["xml"] != state["xml"]
        assert 'k="v"' in after["xml"]

    def test_update_batch_is_atomic_on_error(self, worker):
        doc = worker.handle({"op": "load", "xml": SMALL_XML})["doc"]
        before = worker.handle({"op": "state", "doc": doc})["xml"]
        root = worker.handle(
            {"op": "query", "xpath": "/*", "doc": doc}
        )["items"][0][1]
        response = worker.handle({
            "op": "update_batch",
            "doc": doc,
            "changes": [
                {"kind": "set_attr", "target": root,
                 "name": "k", "value": "v"},
                {"kind": "delete", "target": 999999},  # no such node
            ],
        })
        assert not response["ok"]
        after = worker.handle({"op": "state", "doc": doc})["xml"]
        assert after == before  # first change rolled back too

    def test_check_clean(self, worker):
        doc = worker.handle({"op": "load", "xml": SMALL_XML})["doc"]
        response = worker.handle({"op": "check", "doc": doc})
        assert response["ok"] and response["violations"] == []

    def test_docs_and_stats(self, worker):
        worker.handle({"op": "load", "xml": SMALL_XML, "name": "x"})
        docs = worker.handle({"op": "docs"})
        assert docs["ok"] and docs["docs"][0]["name"] == "x"
        stats = worker.handle({"op": "stats"})
        assert stats["ok"] and stats["docs"] == 1

    def test_store_error_is_typed(self, worker):
        response = worker.handle(
            {"op": "query", "xpath": "//a", "doc": 42}
        )
        assert not response["ok"]
        assert response["error"]["type"] == "store_error"

    def test_internal_error_carries_traceback(self, worker):
        response = worker.handle({"op": "query", "xpath": "//a"})
        assert not response["ok"]
        assert response["error"]["type"] == "internal"

    def test_shutdown_sets_flag(self, worker):
        assert not worker.shutdown_requested()
        response = worker.handle({"op": "shutdown"})
        assert response["ok"] and response["stopping"]
        assert worker.shutdown_requested()

    def test_malformed_load_is_a_typed_store_error(self, worker):
        response = worker.handle({"op": "load", "xml": "<r><a></r>"})
        assert not response["ok"]
        assert response["error"]["type"] == "store_error"
        assert response["error"]["message"] == (
            "mismatched closing tag </r>, expected </a> "
            "(line 1, column 7)"
        )
        assert worker.handle({"op": "docs"})["docs"] == []

    def test_load_over_the_wire_takes_the_text(self, worker):
        """Frames in, frames out: a document deeper than the recursion
        limit loads (it answered ``internal`` while the worker parsed a
        DOM first) and comes back byte-equal; a malformed one answers
        ``store_error``."""
        import socket
        import threading

        from repro.serve import worker as worker_module
        from repro.serve.protocol import recv_frame, send_frame

        deep = "<a>" * 2999 + "<a/>" + "</a>" * 2999
        ours, theirs = socket.socketpair()
        thread = threading.Thread(
            target=worker_module._serve_connection, args=(worker, theirs)
        )
        thread.start()
        try:
            send_frame(ours, {"op": "load", "xml": deep, "id": 1})
            loaded = recv_frame(ours)
            assert loaded["ok"], loaded
            send_frame(ours, {"op": "state", "doc": loaded["doc"], "id": 2})
            assert recv_frame(ours)["xml"] == deep
            send_frame(ours, {"op": "load", "xml": deep[:-1], "id": 3})
            refused = recv_frame(ours)
            assert refused["error"]["type"] == "store_error"
            assert "expected '>'" in refused["error"]["message"]
        finally:
            ours.close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_state_round_trips_through_parser(self, worker):
        doc = worker.handle({"op": "load", "xml": SMALL_XML})["doc"]
        xml = worker.handle({"op": "state", "doc": doc})["xml"]
        assert serialize(parse(xml)) == xml


class TestRoutingMath:
    def _router(self, shards):
        from repro.serve.router import ShardRouter
        from repro.serve.supervisor import Supervisor

        with tempfile.TemporaryDirectory() as tmp:
            supervisor = Supervisor(tmp, shards)
            # Never started: only the id mapping is exercised.
            return ShardRouter(supervisor)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_global_local_round_trip(self, shards):
        router = self._router(shards)
        for shard in range(shards):
            for local in range(1, 6):
                doc = router.global_doc(shard, local)
                assert router.locate(doc) == (shard, local)

    def test_round_robin_load_order_is_global_order(self):
        router = self._router(4)
        order = [
            router.global_doc(i % 4, i // 4 + 1) for i in range(8)
        ]
        assert order == sorted(order)

    def test_locate_rejects_unmapped_ids(self):
        from repro.errors import ReproError

        router = self._router(4)
        for bad in (0, 1, 2, 3):  # local id would be 0
            with pytest.raises(ReproError):
                router.locate(bad)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_ranks(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert abs(percentile(values, 0.5) - 50.0) <= 1.0
        assert percentile(values, 0.99) >= 98.0


@pytest.mark.slow
class TestClusterIntegration:
    def test_cluster_round_trip_and_kill_isolation(self):
        from repro.serve.client import TcpClient
        from repro.serve.frontdoor import ServeConfig, ServeDaemon

        with tempfile.TemporaryDirectory() as tmp:
            daemon = ServeDaemon(
                ServeConfig(directory=tmp, shards=2,
                            respawn_interval=0.2)
            )
            port = daemon.start_in_background()
            client = TcpClient("127.0.0.1", port)
            try:
                docs = [
                    client.load(SMALL_XML, name=f"d{i}")
                    for i in range(4)
                ]
                assert docs == sorted(docs)
                # per-doc query routes to the right shard
                for doc in docs:
                    result = client.query("//a", doc=doc)
                    assert len(result["items"]) == 2
                # scatter merges every document in global order
                scattered = client.query("//a")
                assert [g["doc"] for g in scattered["groups"]] == docs
                assert scattered["errors"] == []

                # SIGKILL one shard: scatter degrades to a typed error
                # for exactly that shard's documents
                daemon.supervisor.kill(1)
                degraded = client.query("//a")
                assert len(degraded["groups"]) == 2
                assert len(degraded["errors"]) == 1
                assert degraded["errors"][0]["shard"] == 1
                assert degraded["errors"][0]["type"] == "shard_unavailable"

                # the respawn loop brings it back
                import time

                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    healed = client.query("//a")
                    if not healed["errors"]:
                        break
                    time.sleep(0.2)
                assert healed["errors"] == []
                assert [g["doc"] for g in healed["groups"]] == docs

                stats = client.stats()
                generations = stats["generations"]
                assert generations[1] == 2  # respawned exactly once
                response = client.shutdown()
                assert response["ok"]
            finally:
                client.close()
                daemon.stop()

    def test_shard_kill_crashtest_quick(self):
        from repro.serve.crashtest import run_shard_kill_crashtest

        report = run_shard_kill_crashtest(
            seeds=1, rounds=2, ops_per_round=3, pause_ms=20
        )
        assert report.ok(), [str(f) for f in report.failures]
        assert report.crashes == 2
        assert report.recoveries == 2
