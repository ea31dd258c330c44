"""Names, units, directions and bounds of every metric the runner prints.

``BENCHMARK.json`` holds the subset its fixed schema can express (see the
README, "What the driver sees"); this module is the full record: the
sixteen end-to-end metrics with per-workload bounds, and for each layer
metric its layer and the (end-to-end metric, workload) it should move.
``test_perf.py`` keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple

from schedule import ENCODINGS

WORKLOADS = {
    "ordered_read": "read-only ordered XPath mix over 3.6k result keys, so "
                    "the result cache is defeated and the plan cache is warm",
    "minidb_read": "the same reads on the minidb backend, so the same "
                   "translator runs over a different executor",
    "hot_mixed": "a 200-key hot set that fits every cache plus 5% writes, so "
                 "the only misses are the ones writes cause",
    "update_heavy": "70% ordered inserts and deletes on one document "
                    "growing from 0.9k to 3k nodes, so renumbering cost "
                    "dominates",
    "ingest": "bulk load and byte-equal reconstruct of 19k-node documents, "
              "so only parse, shred, bulk insert and rebuild run",
    "serve_wire": "cached reads, scatter reads and writes through a 2-shard "
                  "cluster over TCP, so latency is protocol, router and hops",
}

#: serve_wire runs the default encoding only: no serve layer looks at it.
PASSES = {
    name: ("dewey",) if name == "serve_wire" else ENCODINGS
    for name in WORKLOADS
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    #: Workloads whose bound differs from ``bound``.
    bound_on: dict
    definition: str


def _per_encoding(stem, unit, bound, bound_on, definition):
    return [
        EndToEnd(f"{stem}.{enc}", unit, "lower", bound, bound_on, definition)
        for enc in ENCODINGS
    ]


END_TO_END: list[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, {},
             "everything before round 1"),
    EndToEnd("ops_s", "ops/s", "higher", 0.10, {"serve_wire": 0.20},
             "per round: completed ops of all passes / their summed "
             "latencies (serve_wire: / round wall time); median of rounds"),
    *_per_encoding("read_p50_ms", "ms", 0.10, {"serve_wire": 0.20},
                   "median read latency in that encoding's pass"),
    *_per_encoding("read_p99_ms", "ms", 0.20, {"serve_wire": 0.30},
                   "99th percentile read latency (percentile rule)"),
    *_per_encoding("write_p50_ms", "ms", 0.10, {"serve_wire": 0.20},
                   "median write latency"),
    *_per_encoding("write_p99_ms", "ms", 0.20, {},
                   "99th percentile write latency (percentile rule)"),
    EndToEnd("fail_share", "ratio", "lower", 0.0, {},
             "ops that raised, timed out or returned ok:false / attempted"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, {},
             "ru_maxrss of the workload process (serve_wire: plus the "
             "largest shard's)"),
]

E2E_BY_NAME = {m.name: m for m in END_TO_END}


def bound_for(metric: str, workload: str) -> float:
    entry = E2E_BY_NAME[metric]
    return entry.bound_on.get(workload, entry.bound)


def declared(workload: str) -> list[str]:
    """End-to-end metrics *workload* reports at full size.

    A metric is reported only where its operation class and encoding
    occur and the percentile rule allows: absent is absent, never 0.
    """
    names = ["setup_s", "ops_s", "fail_share", "peak_rss_mb"]
    stems = {
        "ordered_read": ("read_p50_ms", "read_p99_ms"),
        "minidb_read": ("read_p50_ms", "read_p99_ms"),
        "hot_mixed": ("read_p50_ms", "read_p99_ms", "write_p50_ms"),
        "update_heavy": ("read_p50_ms", "write_p50_ms", "write_p99_ms"),
        "ingest": ("read_p50_ms", "write_p50_ms"),
        "serve_wire": ("read_p50_ms", "read_p99_ms", "write_p50_ms"),
    }[workload]
    names += [f"{s}.{enc}" for s in stems for enc in PASSES[workload]]
    return names


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: Workloads that report it.
    on: tuple
    moves: str  # the end-to-end metric(s) it should move, and where


_READS = ("ordered_read", "minidb_read", "hot_mixed", "update_heavy")
_WRITES = ("hot_mixed", "update_heavy")
_ALL = tuple(WORKLOADS)

LAYERS: list[Layer] = [
    Layer("xmldom.parse_ms", "ms", "lower", "xmldom", ("ingest",),
          "write_p50_ms.* on ingest"),
    Layer("xmldom.serialize_ms", "ms", "lower", "xmldom", ("ingest",),
          "read_p50_ms.* on ingest"),
    Layer("core.shred_ms", "ms", "lower", "core.shredder", ("ingest",),
          "write_p50_ms.* on ingest"),
    Layer("store.bulk_insert_self_ms", "ms", "lower", "store", ("ingest",),
          "write_p50_ms.*, setup_s on ingest"),
    Layer("core.reconstruct_ms", "ms", "lower", "core.reconstruct",
          ("ingest",), "read_p50_ms.* on ingest"),
    Layer("store.delete_document_ms", "ms", "lower", "store", ("ingest",),
          "none: guard only"),
    Layer("backends.bytes_per_xml_byte", "ratio", "lower", "backends",
          ("ingest",), "none: the space side of the trade"),
    Layer("xpath.parse_us", "us", "lower", "xpath", _READS,
          "read_p50_ms.* on ordered_read, minidb_read"),
    Layer("core.translate_warm_us", "us", "lower", "core.translator", _READS,
          "read_p50_ms.* on ordered_read"),
    Layer("core.translate_cold_us", "us", "lower", "core.translator", _READS,
          "read_p50_ms.* on hot_mixed, update_heavy"),
    Layer("core.translate.compiles_per_read", "ratio", "lower",
          "core.translator", (*_READS, "serve_wire"),
          "read_p50_ms.* on hot_mixed, update_heavy, serve_wire"),
    Layer("core.translate.joins_per_query", "count", "lower",
          "core.translator", _READS, "read_p99_ms.local on ordered_read"),
    Layer("backends.execute_us", "us", "lower", "backends", _READS,
          "read_p50_ms.*, read_p99_ms.local on ordered_read, minidb_read"),
    Layer("backends.statements_per_read", "ratio", "lower", "backends",
          _READS, "read_p99_ms.local on ordered_read"),
    Layer("backends.rows_read_per_result", "ratio", "lower", "backends",
          _READS, "read_p99_ms.local on ordered_read"),
    Layer("minidb.selects_per_read", "ratio", "lower", "minidb",
          ("minidb_read",), "read_p50_ms.*, ops_s on minidb_read"),
    Layer("minidb.rows_returned_per_select", "ratio", "lower", "minidb",
          ("minidb_read",), "read_p50_ms.*, ops_s on minidb_read"),
    Layer("store.query_self_us", "us", "lower", "store", _READS,
          "read_p50_ms.*, read_p99_ms.local on ordered_read"),
    Layer("store.query_hit_us", "us", "lower", "store",
          ("hot_mixed", "serve_wire"),
          "read_p50_ms.* on serve_wire, hot_mixed"),
    Layer("store.client_order_share", "ratio", "lower", "store", _READS,
          "read_p99_ms.local on ordered_read"),
    Layer("cache.result.hit_rate", "ratio", "higher", "cache",
          (*_READS, "serve_wire"),
          "read_p50_ms.*, ops_s on hot_mixed, serve_wire"),
    Layer("cache.plan.hit_rate", "ratio", "higher", "cache",
          (*_READS, "serve_wire"),
          "read_p50_ms.*, ops_s on hot_mixed, serve_wire"),
    Layer("cache.catalog.hit_rate", "ratio", "higher", "cache",
          (*_READS, "serve_wire"),
          "read_p50_ms.*, ops_s on hot_mixed, serve_wire"),
    Layer("cache.invalidated_per_write", "ratio", "lower", "cache", _WRITES,
          "read_p50_ms.* on hot_mixed"),
    Layer("cache.result.evictions", "count", "lower", "cache", _READS,
          "read_p50_ms.* on hot_mixed"),
    Layer("index.create_ms", "ms", "lower", "index", ("hot_mixed",),
          "setup_s on hot_mixed"),
    Layer("index.access_share", "ratio", "higher", "index", _READS,
          "read_p50_ms.* on hot_mixed"),
    Layer("index.maintained_per_write", "ratio", "lower", "index", _WRITES,
          "write_p50_ms.* on hot_mixed"),
    Layer("index.fallback_rebuilds", "count", "lower", "index", _WRITES,
          "write_p50_ms.* on hot_mixed"),
    Layer("core.updates.write_ms", "ms", "lower", "core.updates", _WRITES,
          "write_p50_ms.*, write_p99_ms.* on update_heavy"),
    Layer("core.updates.write_ms.fragment", "ms", "lower", "core.updates",
          _WRITES, "write_p50_ms.* on update_heavy"),
    Layer("core.updates.write_ms.subtree", "ms", "lower", "core.updates",
          _WRITES, "write_p99_ms.* on update_heavy"),
    Layer("core.updates.write_ms.delete", "ms", "lower", "core.updates",
          _WRITES, "write_p50_ms.* on update_heavy"),
    Layer("core.updates.relabeled_per_write", "ratio", "lower",
          "core.updates", _WRITES,
          "write_p50_ms.global, write_p99_ms.dewey on update_heavy"),
    Layer("core.updates.rows_touched_per_write", "ratio", "lower",
          "core.updates", _WRITES,
          "write_p50_ms.global, write_p99_ms.dewey on update_heavy"),
    Layer("core.updates.renumber_ops", "count", "lower", "core.updates",
          _WRITES, "write_p50_ms.global on update_heavy"),
    Layer("backends.statements_per_write", "ratio", "lower", "backends",
          _WRITES, "write_p50_ms.* on update_heavy, hot_mixed"),
    Layer("backends.rows_written_per_write", "ratio", "lower", "backends",
          _WRITES, "write_p50_ms.* on update_heavy, hot_mixed"),
    Layer("serve.protocol.encode_us", "us", "lower", "serve.protocol",
          ("serve_wire",), "read_p50_ms.dewey on serve_wire"),
    Layer("serve.protocol.decode_us", "us", "lower", "serve.protocol",
          ("serve_wire",), "read_p50_ms.dewey on serve_wire"),
    Layer("serve.protocol.response_bytes", "bytes", "lower",
          "serve.protocol", ("serve_wire",),
          "read_p50_ms.dewey on serve_wire"),
    Layer("serve.worker.handle_self_us", "us", "lower", "serve.worker",
          ("serve_wire",), "read_p50_ms.dewey on serve_wire"),
    Layer("serve.shard_hop_self_us", "us", "lower", "serve.client",
          ("serve_wire",), "read_p50_ms.dewey, ops_s on serve_wire"),
    Layer("serve.frontdoor_router_self_us", "us", "lower",
          "serve.frontdoor", ("serve_wire",),
          "read_p50_ms.dewey, ops_s on serve_wire"),
    Layer("serve.scatter_ms", "ms", "lower", "serve.router",
          ("serve_wire",), "read_p99_ms.dewey on serve_wire"),
    *[
        Layer(f"serve.{name}", "count", "lower", "serve.router",
              ("serve_wire",), "fail_share on serve_wire")
        for name in ("retries", "timeouts", "shard_errors", "respawns")
    ],
    Layer("serve.requests", "count", "higher", "serve.router",
          ("serve_wire",), "fail_share on serve_wire"),
    Layer("concurrent.writequeue.ops_per_batch", "ratio", "higher",
          "concurrent", ("serve_wire",),
          "write_p50_ms.dewey, ops_s on serve_wire"),
    Layer("concurrent.pool.wait_share", "ratio", "lower", "concurrent",
          ("serve_wire",), "write_p50_ms.dewey, ops_s on serve_wire"),
    Layer("obs.trace_overhead_share", "ratio", "lower", "obs", _ALL,
          "none: the price of the traced run"),
    Layer("trace.coverage", "ratio", "higher", "benchmark", _ALL,
          "none: a low value means the waterfall is missing a layer"),
]
