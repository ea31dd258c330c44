"""Sharded multi-process serving.

The paper's schema is per-document, so documents partition cleanly:
each shard is one sqlite file holding a slice of the corpus, served by
its own worker process (WAL connections + writer lock + caches — the
whole single-process stack, GIL and all), and a router in the front
door maps document ids to shards, scatter-gathers cross-document
queries, and merges results in document order.  ``repro serve`` runs
the asyncio front door; ``repro serve-smoke`` drives one scripted round
trip through it, and ``benchmarks/perf``'s ``serve_wire`` workload
measures it.

Layers (bottom up):

* :mod:`repro.serve.protocol` — length-prefixed JSON framing.
* :mod:`repro.serve.worker`   — one shard process (``python -m
  repro.serve.worker``), a thread-per-connection unix-socket server
  around one :class:`~repro.store.XmlStore`.
* :mod:`repro.serve.client`   — blocking wire clients (shard + TCP).
* :mod:`repro.serve.supervisor` — spawns workers, respawns the dead.
* :mod:`repro.serve.router`   — doc→shard mapping, scatter-gather,
  shard-failure isolation.
* :mod:`repro.serve.frontdoor` — the asyncio TCP daemon.
* :mod:`repro.serve.crashtest` — the shard-kill harness
  (``repro crashtest --shard-kill``).
"""

from repro.serve.client import ShardClient, TcpClient
from repro.serve.frontdoor import ServeConfig, ServeDaemon
from repro.serve.protocol import ProtocolError, recv_frame, send_frame
from repro.serve.router import ShardRouter, ShardUnavailable
from repro.serve.supervisor import ShardSpec, Supervisor

__all__ = [
    "ProtocolError",
    "ServeConfig",
    "ServeDaemon",
    "ShardClient",
    "ShardRouter",
    "ShardSpec",
    "ShardUnavailable",
    "Supervisor",
    "TcpClient",
    "recv_frame",
    "send_frame",
]
