"""Command-line interface: ``python -m repro``.

Persists stores as SQLite files, so shredded documents survive between
invocations::

    python -m repro load bib.xml --db bib.db --encoding dewey
    python -m repro query '/bib/book[2]/author[1]' --db bib.db
    python -m repro query '//book[@year < 2000]/title' --db bib.db --show-sql
    python -m repro insert '<book><title>New</title></book>' \
        --db bib.db --parent '/bib' --index 0
    python -m repro delete '/bib/book[3]' --db bib.db
    python -m repro dump --db bib.db --pretty
    python -m repro info --db bib.db
    python -m repro sql 'SELECT COUNT(*) FROM node_dewey' --db bib.db
    python -m repro experiments --fast
    python -m repro bench --fast --output BENCH_results.json
    python -m repro serve-bench --db bib.db --readers 8 --duration 2

The store's encoding and gap are recorded in a ``repro_meta`` table on
first load, so later commands need no flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.backends.base import Backend
from repro.backends.sqlite_backend import SqliteBackend
from repro.core.encodings import ENCODINGS
from repro.errors import ReproError
from repro.store import XmlStore
from repro.xmldom import parse_fragment, serialize
from repro.xmldom.chars import escape_attribute


def _open_backend(db: str, pooled: bool = False) -> Backend:
    if pooled:
        if db == ":memory:":
            raise ReproError(
                "pooled mode needs a file-backed --db (connections in "
                "a pool must share one database file)"
            )
        from repro.backends.pooled_sqlite import PooledSqliteBackend

        return PooledSqliteBackend(db)
    return SqliteBackend(db if db != ":memory:" else None)


def _read_meta(backend: Backend) -> Optional[dict[str, str]]:
    try:
        rows = backend.execute(
            "SELECT key, value FROM repro_meta"
        ).rows
    except Exception:
        return None
    return {key: value for key, value in rows}


def _write_meta(backend: Backend, encoding: str, gap: int) -> None:
    backend.execute(
        "CREATE TABLE IF NOT EXISTS repro_meta (key TEXT, value TEXT)"
    )
    backend.execute("DELETE FROM repro_meta")
    backend.executemany(
        "INSERT INTO repro_meta VALUES (?, ?)",
        [("encoding", encoding), ("gap", str(gap))],
    )


def open_store(
    db: str,
    encoding: Optional[str] = None,
    gap: Optional[int] = None,
    pooled: bool = False,
) -> XmlStore:
    """Open (or initialise) the store in SQLite file *db*.

    ``pooled`` opens it through a :class:`~repro.backends.
    pooled_sqlite.PooledSqliteBackend` (one WAL connection per worker
    thread) instead of the single shared connection.
    """
    backend = _open_backend(db, pooled)
    meta = _read_meta(backend)
    if meta is not None:
        if encoding is not None and encoding != meta.get("encoding"):
            raise ReproError(
                f"store {db!r} uses encoding {meta.get('encoding')!r}; "
                f"cannot reopen it as {encoding!r}"
            )
        encoding = meta.get("encoding", "dewey")
        gap = int(meta.get("gap", "1")) if gap is None else gap
    else:
        encoding = encoding or "dewey"
        gap = gap or 1
        try:
            _write_meta(backend, encoding, gap)
        except Exception as exc:
            raise ReproError(f"cannot initialise store {db!r}: {exc}")
    return XmlStore(backend=backend, encoding=encoding, gap=gap)


def _resolve_doc(store: XmlStore, doc: Optional[int]) -> int:
    if doc is not None:
        return doc
    documents = store.documents()
    if not documents:
        raise ReproError("the store holds no documents; run 'load' first")
    return documents[-1].doc


# -- commands ---------------------------------------------------------------


def cmd_load(args: argparse.Namespace) -> int:
    store = open_store(args.db, args.encoding, args.gap)
    text = Path(args.file).read_text()
    doc = store.load(
        text,
        name=args.name or Path(args.file).stem,
        strip_whitespace=args.strip_whitespace,
    )
    info = store.document_info(doc)
    print(
        f"loaded document {doc} ({info.name!r}): {info.node_count} "
        f"nodes, depth {info.max_depth}, encoding "
        f"{store.encoding.name}, gap {store.gap}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    doc = _resolve_doc(store, args.doc)
    if args.show_sql:
        translated = store.translate(args.xpath, doc)
        print(f"-- {translated.encoding} translation "
              f"({translated.stats.total_relational_operations()} "
              "relational ops)")
        print(translated.sql)
        print(f"-- params: {translated.params}")
        print()
    items = store.query(args.xpath, doc)
    if args.xml:
        for item in items:
            if item.kind == "attribute":
                print(f'{item.label}="{escape_attribute(item.value)}"')
            else:
                node = store.reconstruct_subtree(doc, item.node_id)
                print(serialize(node))
    else:
        for item in items:
            label = item.label or item.kind
            print(f"{item.node_id}\t{item.kind}\t{label}\t"
                  f"{item.value if item.value is not None else ''}")
    print(f"-- {len(items)} result(s)", file=sys.stderr)
    return 0


def cmd_insert(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    doc = _resolve_doc(store, args.doc)
    parents = store.query(args.parent, doc)
    if not parents:
        raise ReproError(f"no node matches parent path {args.parent!r}")
    fragment = parse_fragment(args.fragment)
    index = args.index
    if index is None:
        children = store.fetch_children(doc, parents[0].node_id)
        index = len(children)
    report = store.updates.insert(doc, parents[0].node_id, index, fragment)
    print(
        f"inserted {report.inserted} node(s) at index {index}; "
        f"relabeled {report.relabeled} existing row(s)"
    )
    return 0


def cmd_delete(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    doc = _resolve_doc(store, args.doc)
    targets = store.query(args.xpath, doc)
    if not targets:
        raise ReproError(f"no node matches {args.xpath!r}")
    if len(targets) > 1 and not args.all:
        raise ReproError(
            f"{args.xpath!r} matches {len(targets)} nodes; pass --all "
            "to delete every match"
        )
    if not args.all:
        targets = targets[:1]
    # One transaction for the whole command.  Targets arrive in document
    # order, an ancestor before its descendants; reversed, no delete
    # takes a later target with it.
    deleted = store.transactionally(lambda: sum(
        store.updates.delete(doc, item.node_id).deleted
        for item in reversed(targets)
    ))
    print(f"deleted {deleted} node(s)")
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    doc = _resolve_doc(store, args.doc)
    document = store.reconstruct(doc)
    print(serialize(document, pretty=args.pretty), end="")
    if not args.pretty:
        print()
    return 0


def cmd_drop(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    removed = store.delete_document(args.doc)
    print(f"dropped document {args.doc} ({removed} rows)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    print(f"encoding: {store.encoding.name}   gap: {store.gap}")
    print(f"{'doc':>4}  {'name':20} {'nodes':>8} {'depth':>6} "
          f"{'next id':>8} {'encoding':>8}")
    for info in store.documents():
        encoding = info.encoding or store.encoding.name
        print(f"{info.doc:>4}  {info.name:20} {info.node_count:>8} "
              f"{info.max_depth:>6} {info.next_id:>8} {encoding:>8}")
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    from repro.migrate import MigrationAdvisor, migrate_document

    if args.to is None and not (args.advise or args.auto):
        raise ReproError(
            "pass --to ENCODING, or --advise/--auto to consult the "
            "workload advisor"
        )
    if args.to is not None and (args.advise or args.auto):
        raise ReproError("--to conflicts with --advise/--auto")
    store = open_store(args.db)
    doc = _resolve_doc(store, args.doc)
    target = args.to
    if target is None:
        import json as json_module

        from repro.obs import METRICS

        if args.counters:
            counters = json_module.loads(Path(args.counters).read_text())
        else:
            counters = METRICS.snapshot()
        advisor = MigrationAdvisor()
        current = store.encoding_for(doc).name
        recommendation = advisor.decide(counters, current)
        arrow = (
            f" -> {recommendation.target}" if recommendation.target else ""
        )
        print(f"advisor: {recommendation.action}{arrow} "
              f"({recommendation.reason})")
        if not args.auto or not recommendation.migrate:
            return 0
        target = recommendation.target
    report = migrate_document(store, doc, target)
    if report.outcome == "noop":
        print(f"document {doc} already uses {report.target}; nothing "
              "to do")
    else:
        print(
            f"migrated document {doc}: {report.source} -> "
            f"{report.target}, {report.rows_copied} node row(s) + "
            f"{report.attrs_copied} attribute row(s), writers blocked "
            f"{report.blocked_ms:.1f} ms"
        )
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.index import IndexAdvisor

    if sum((args.create, args.drop, args.advise or args.auto)) > 1:
        raise ReproError(
            "--create, --drop and --advise/--auto are mutually exclusive"
        )
    store = open_store(args.db)

    def report_created(doc: int) -> None:
        report = store.indexes.create(doc)
        print(
            f"indexed document {doc}: {report['elements']} element "
            f"value(s), {report['paths']} distinct path(s)"
        )

    if args.create:
        report_created(_resolve_doc(store, args.doc))
        return 0

    if args.drop:
        doc = _resolve_doc(store, args.doc)
        present = store.indexes.drop(doc)
        if present:
            print(f"dropped the index of document {doc}")
        else:
            print(f"document {doc} had no index; nothing to do")
        return 0

    if args.advise or args.auto:
        from repro.obs import METRICS

        if args.counters:
            counters = json_module.loads(Path(args.counters).read_text())
        else:
            counters = METRICS.snapshot()
        unindexed = [
            d.doc for d in store.documents()
            if not store.indexes.exists(d.doc)
        ]
        recommendation = IndexAdvisor().decide(counters, unindexed)
        targets = (
            " " + ",".join(str(d) for d in recommendation.documents)
            if recommendation.documents else ""
        )
        print(f"advisor: {recommendation.action}{targets} "
              f"({recommendation.reason})")
        if not args.auto or not recommendation.act:
            return 0
        for doc in recommendation.documents:
            report_created(doc)
        return 0

    # Default (and --stats): describe the stored documents' indexes.
    documents = store.documents()
    if args.doc is not None:
        documents = [d for d in documents if d.doc == args.doc]
        if not documents:
            raise ReproError(f"no document {args.doc} in the store")
    summaries = [store.indexes.describe(d.doc) for d in documents]
    if args.json:
        print(json_module.dumps(summaries, indent=2))
        return 0
    if not summaries:
        print("the store holds no documents")
        return 0
    for summary in summaries:
        if not summary["present"]:
            print(f"document {summary['doc']}: no index")
            continue
        print(
            f"document {summary['doc']}: indexed, "
            f"{summary['element_count']} element value(s), "
            f"{summary['path_count']} distinct path(s)"
        )
        if summary["tags"]:
            tags = ", ".join(
                f"{tag}={count}" for tag, count in summary["tags"].items()
            )
            print(f"  top tags: {tags}")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    store = open_store(args.db)
    result = store.backend.execute(args.statement)
    for row in result.rows:
        print("\t".join("" if v is None else str(v) for v in row))
    if result.rowcount >= 0:
        print(f"-- {result.rowcount} row(s) affected", file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check import audit_store

    store = open_store(args.db)
    violations = audit_store(store)
    docs = len(store.documents())
    if violations:
        for violation in violations:
            print(violation)
        print(
            f"-- {len(violations)} violation(s) across {docs} "
            f"document(s) [{store.encoding.name}/{store.backend.name}]",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: {docs} document(s) audited, 0 violations "
        f"[{store.encoding.name}/{store.backend.name}, gap {store.gap}]"
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check import FuzzConfig, run_fuzz

    encodings, backends, gaps = _parse_matrix(args)
    config = FuzzConfig(
        seeds=args.seeds,
        ops=args.ops,
        encodings=encodings,
        backends=backends,
        gaps=gaps,
        base_seed=args.base_seed,
        check_every=args.check_every,
        queries_per_check=args.queries_per_check,
        cache_twin=args.cache_twin,
        index_twin=args.index_twin,
        update_heavy=args.update_heavy,
        migrate_during=args.migrate_during,
    )
    try:
        report = run_fuzz(config)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    return _print_report(report)


def _print_report(report) -> int:
    """Print a fuzz/crashtest report — each failure with its repro
    line, then the summary; the exit status."""
    for failure in report.failures:
        print(failure)
        print()
    print(report.summary())
    return 0 if report.ok() else 1


def _parse_matrix(args) -> tuple[tuple[str, ...], tuple[str, ...],
                                 tuple[int, ...]]:
    """Validate the shared --encodings/--backends/--gaps flags."""
    encodings = tuple(args.encodings.split(","))
    backends = tuple(args.backends.split(","))
    for encoding in encodings:
        if encoding not in ENCODINGS:
            raise ReproError(
                f"unknown encoding {encoding!r}; expected one of "
                f"{sorted(ENCODINGS)}"
            )
    for backend in backends:
        if backend not in ("sqlite", "minidb"):
            raise ReproError(
                f"unknown backend {backend!r}; expected 'sqlite' or "
                "'minidb'"
            )
    try:
        gaps = tuple(int(g) for g in args.gaps.split(","))
    except ValueError:
        raise ReproError(
            f"--gaps expects comma-separated integers, got {args.gaps!r}"
        ) from None
    return encodings, backends, gaps


def cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.robust import crashtest
    from repro.serve.crashtest import run_shard_kill_crashtest

    encodings, backends, gaps = _parse_matrix(args)
    config = crashtest.CrashTestConfig(
        seeds=args.seeds,
        ops=args.ops,
        encodings=encodings,
        backends=backends,
        gaps=gaps,
        base_seed=args.base_seed,
        crashes_per_op=0 if args.sweep else args.crashes_per_op,
        transient_rate=args.transient_rate,
        snapshot_fault_rate=args.snapshot_fault_rate,
    )
    runners = {
        "shard_kill": lambda: run_shard_kill_crashtest(
            seeds=args.seeds, rounds=args.shard_rounds,
            ops_per_round=max(args.ops, 2), base_seed=args.base_seed,
            encoding=encodings[0], gap=gaps[0],
        ),
        "index": lambda: crashtest.run_index_crashtest(config),
        "migrate": lambda: crashtest.run_migration_crashtest(config),
        "ops": lambda: crashtest.run_crashtest(config),
        "writer": lambda: crashtest.run_writer_crashtest(
            config, batches=args.writer_batches
        ),
    }
    # The first mode flag set wins; without one the statement-level
    # ops and writer harnesses both run (each unless its count is 0).
    flags = ("shard_kill", "index", "migrate")
    flagged = [mode for mode in flags if getattr(args, mode)]
    writer = args.writer_batches > 0 and "sqlite" in backends
    wanted = (("ops", args.ops > 0), ("writer", writer))
    default = [mode for mode, on in wanted if on]
    report = crashtest.CrashTestReport()
    for mode in flagged[:1] or default:
        report.merge(runners[mode]())
    return _print_report(report)


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.experiments import run_all

    for table in run_all(fast=args.fast):
        print(table.render())
        print()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.bench.experiments import run_all
    from repro.bench.report import (
        compute_verdicts,
        render_verdicts,
        results_payload,
        write_results_json,
    )

    started = time.time()
    tables = run_all(fast=args.fast)
    elapsed = time.time() - started
    verdicts = compute_verdicts(tables)
    if args.json:
        import json as json_module

        payload = results_payload(
            tables, verdicts, elapsed_seconds=elapsed
        )
        print(json_module.dumps(payload, indent=2))
    else:
        for table in tables:
            print(table.render())
            print()
        for line in render_verdicts(verdicts):
            print(line)
    written = write_results_json(
        args.output, tables, verdicts, elapsed_seconds=elapsed
    )
    if not args.json:
        print(f"wrote {written} ({len(tables)} experiments, "
              f"{elapsed:.1f}s)")
    if args.strict and not all(v.ok for v in verdicts):
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sharded serving daemon until SIGTERM/SIGINT (or a wire
    ``shutdown`` request)."""
    import signal as _signal

    from repro.serve.frontdoor import ServeConfig, ServeDaemon

    config = ServeConfig(
        directory=args.dir,
        shards=args.shards,
        host=args.host,
        port=args.port,
        encoding=args.encoding,
        gap=args.gap,
        request_timeout=args.request_timeout,
    )
    daemon = ServeDaemon(config)

    def stop(_signum, _frame) -> None:
        daemon._request_stop()

    _signal.signal(_signal.SIGTERM, stop)
    _signal.signal(_signal.SIGINT, stop)

    # Report the bound port as soon as the listener is up (port 0 is
    # ephemeral) so scripts can scrape it from the first output line.
    def report_started() -> None:
        daemon._started.wait(config.shards * 20.0)
        if daemon.bound_port is not None:
            print(
                f"serving {args.shards} shard(s) from {args.dir} "
                f"on {args.host}:{daemon.bound_port}",
                flush=True,
            )

    import threading as _threading

    _threading.Thread(target=report_started, daemon=True).start()
    daemon.run()
    print("serve: stopped")
    return 0


def cmd_serve_smoke(args: argparse.Namespace) -> int:
    """Scripted round trip against a serve daemon (the CI smoke).

    With ``--port``, talks to an already-running daemon; without it,
    spins up its own 2-shard cluster in a temporary directory, runs the
    round trip, and shuts it down — one command, no plumbing.
    """
    import tempfile

    from repro.serve.client import TcpClient
    from repro.serve.frontdoor import ServeConfig, ServeDaemon
    from repro.workload.docgen import random_document
    from repro.xmldom import serialize

    daemon = None
    port = args.port
    tmp = None
    try:
        if port is None:
            tmp = tempfile.TemporaryDirectory(prefix="serve-smoke-")
            daemon = ServeDaemon(
                ServeConfig(directory=tmp.name, shards=args.shards)
            )
            port = daemon.start_in_background()
            print(f"spawned {args.shards}-shard cluster on port {port}")
        client = TcpClient(args.host, port)
        try:
            response = client.ping()
            if not response.get("ok"):
                print(f"ping failed: {response}", file=sys.stderr)
                return 1
            print(f"ping: ok ({response.get('shards')} shard(s))")
            docs = [
                client.load(serialize(random_document(seed)))
                for seed in range(4)
            ]
            print(f"loaded documents: {docs}")
            result = client.query("//a", doc=docs[0])
            print(f"query doc {docs[0]}: {len(result['items'])} item(s)")
            scattered = client.query("/*")
            groups = scattered["groups"]
            order = [g["doc"] for g in groups]
            if order != sorted(order) or len(groups) != len(docs):
                print(f"scatter order broken: {order}", file=sys.stderr)
                return 1
            print(f"scatter query: {len(groups)} group(s), "
                  f"document order {order}")
            root = int(groups[0]["items"][0][1])
            update = client.update(
                docs[0],
                {"kind": "set_attr", "target": root,
                 "name": "smoke", "value": "1"},
            )
            print(f"update: rows_touched={update.get('rows_touched')}")
            stats = client.stats()
            alive = [s for s in stats["shards"] if "error" not in s]
            print(f"stats: {len(alive)} live shard(s), "
                  f"generations {stats.get('generations')}")
            if len(alive) != args.shards:
                print("stats reported a dead shard", file=sys.stderr)
                return 1
            response = client.shutdown()
            if not response.get("ok"):
                print(f"shutdown failed: {response}", file=sys.stderr)
                return 1
            print("shutdown: acknowledged")
        finally:
            client.close()
        if daemon is not None:
            daemon.stop()
            daemon = None
        print("serve-smoke: OK")
        return 0
    finally:
        if daemon is not None:
            daemon.stop()
        if tmp is not None:
            tmp.cleanup()


def _serve_bench_sharded(args: argparse.Namespace) -> int:
    """serve-bench --shards: cluster + multi-process load generator."""
    import tempfile

    from repro.serve.client import TcpClient
    from repro.serve.frontdoor import ServeConfig, ServeDaemon
    from repro.serve.loadgen import run_load
    from repro.workload.docgen import random_document
    from repro.xmldom import serialize

    queries = [
        "//a[b/c]//d",
        "//b[text() < 3]",
        "//*[b][c]//a",
        "//d[a/b]",
    ]
    with tempfile.TemporaryDirectory(prefix="serve-bench-") as tmp:
        daemon = ServeDaemon(
            ServeConfig(
                directory=tmp,
                shards=args.shards,
                encoding=args.encoding,
            )
        )
        try:
            port = daemon.start_in_background()
            setup = TcpClient("127.0.0.1", port)
            try:
                docs = [
                    setup.load(
                        serialize(
                            random_document(
                                seed, max_depth=10, max_children=6
                            )
                        )
                    )
                    for seed in range(args.docs)
                ]
            finally:
                setup.close()
            report = run_load(
                "127.0.0.1",
                port,
                docs,
                queries,
                clients=args.readers,
                duration=args.duration,
                write_rate_hz=args.write_rate,
            )
        finally:
            daemon.stop()
    print(
        f"shards={args.shards} clients={report.clients} "
        f"duration={report.duration_s:.2f}s"
    )
    print(f"read throughput:  {report.read_ops_s:,.1f} ops/s "
          f"({report.read_ops} ops, {report.read_errors} error(s))")
    print(f"read latency:     p50 {report.p50_ms:.3f} ms, "
          f"p99 {report.p99_ms:.3f} ms")
    print(f"paced writes:     {report.writes} "
          f"({report.write_errors} error(s))")
    return 1 if report.read_errors or report.write_errors else 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.shards is not None:
        return _serve_bench_sharded(args)
    if args.db is None:
        print("error: serve-bench needs --db (thread mode) or "
              "--shards (cluster mode)", file=sys.stderr)
        return 2
    from repro.check import audit_store
    from repro.obs import METRICS
    from repro.workload import (
        ORDERED_QUERIES,
        UNORDERED_QUERIES,
        article_corpus,
    )
    from repro.workload.mixer import ConcurrentWorkload

    pooled = args.mode == "pooled"
    store = open_store(args.db, args.encoding, None, pooled=pooled)
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    try:
        documents = store.documents()
        if documents:
            doc = documents[-1].doc
        else:
            doc = store.load(
                article_corpus(articles=args.articles),
                name="serve-corpus",
            )
        if pooled:
            store.enable_write_queue(max_batch=args.max_batch)
        workload = ConcurrentWorkload(
            store, doc, ORDERED_QUERIES + UNORDERED_QUERIES
        )
        result = workload.run(
            args.readers, args.duration, writer=not args.no_writer
        )
        print(
            f"mode={args.mode} readers={result.readers} "
            f"writer={'on' if result.writer else 'off'} "
            f"duration={result.duration_seconds:.2f}s"
        )
        print(f"read throughput:  {result.read_ops_per_second:,.1f} ops/s "
              f"({result.read_operations} ops)")
        print(f"write throughput: {result.write_ops_per_second:,.1f} ops/s "
              f"({result.write_operations} ops)")
        queue = store.write_queue
        if queue is not None:
            print(
                f"group commit: {queue.operations} op(s) in "
                f"{queue.batches} batch(es), "
                f"{queue.grouped_operations} grouped"
            )
        METRICS.enabled = was_enabled
        _print_metrics_snapshot(METRICS.snapshot())
        failed = False
        for error in result.read_errors:
            print(f"reader error: {error}", file=sys.stderr)
            failed = True
        if result.write_error:
            print(f"writer error: {result.write_error}", file=sys.stderr)
            failed = True
        violations = audit_store(store)
        if violations:
            for violation in violations:
                print(violation, file=sys.stderr)
            print(f"-- {len(violations)} invariant violation(s)",
                  file=sys.stderr)
            failed = True
        else:
            print("audit: clean")
        return 1 if failed else 0
    finally:
        METRICS.enabled = was_enabled
        store.close()


def _seed_demo_document(store: XmlStore) -> int:
    """Load a small <items> document so trace/stats work on a fresh db."""
    parts = ["<items>"]
    for i in range(1, 101):
        parts.append(
            f"<item><name>item-{i}</name><qty>{i % 7 + 1}</qty>"
            f"<price>{i}.50</price></item>"
        )
    parts.append("</items>")
    doc = store.load("".join(parts), name="demo")
    print("(empty store: seeded a 100-item demo document)",
          file=sys.stderr)
    return doc


def _trace_doc(store: XmlStore, requested: Optional[int]) -> int:
    if store.documents():
        return _resolve_doc(store, requested)
    return _seed_demo_document(store)


def _print_span_tree(span, depth: int = 0) -> None:
    pad = "  " * depth
    attrs = "".join(
        f" {key}={value!r}" for key, value in span.attrs.items()
    )
    marker = "" if span.status == "ok" else f" [{span.status}]"
    print(f"{pad}{span.name:<{24 - len(pad)}} "
          f"{span.duration_ms:9.3f} ms{marker}{attrs}")
    for child in span.children:
        _print_span_tree(child, depth + 1)


def _print_metrics_snapshot(snapshot: dict) -> None:
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        print("counters:")
        for name, value in counters.items():
            print(f"  {name:<32} {value}")
    if histograms:
        print("histograms:")
        for name, hist in histograms.items():
            print(
                f"  {name:<32} count={hist['count']} "
                f"mean={hist['mean']:.6f} min={hist['min']:.6f} "
                f"max={hist['max']:.6f}"
            )


def _print_cache_stats(cache: dict) -> None:
    state = "on" if cache["enabled"] else "off"
    print(
        f"cache: {state}, store epoch {cache['epoch']}, "
        f"{cache['doc_epochs']} live document epoch(s)"
    )
    for name, layer in cache["layers"].items():
        total = layer["hits"] + layer["misses"]
        rate = 100.0 * layer["hits"] / total if total else 0.0
        print(
            f"  {name:<8} size={layer['size']}/{layer['capacity']} "
            f"hits={layer['hits']} misses={layer['misses']} "
            f"evictions={layer['evictions']} "
            f"invalidations={layer['invalidations']} "
            f"hit-rate={rate:.1f}%"
        )


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import METRICS, Tracer, tracing

    store = open_store(args.db, args.encoding, None)
    # Tracing documents the translate/execute/materialize pipeline; a
    # result-cache hit would short-circuit it into a single empty span.
    store.cache.enabled = False
    doc = _trace_doc(store, args.doc)
    if not args.cold:
        # A warm-up run keeps one-time costs (sqlite statement
        # preparation, page cache) out of the traced timings.
        store.query(args.xpath, doc)
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    tracer = Tracer()
    try:
        with tracing(tracer):
            items = store.query(args.xpath, doc)
    finally:
        METRICS.enabled = was_enabled
    if args.json:
        print(tracer.to_json())
    else:
        for root in tracer.roots:
            _print_span_tree(root)
        total = tracer.total_ms()
        leaf = sum(
            s.duration_ms
            for root in tracer.roots
            for s in root.leaves()
        )
        if total > 0:
            print(f"-- total {total:.3f} ms, leaf spans cover "
                  f"{leaf:.3f} ms ({100.0 * leaf / total:.1f}%)")
        _print_metrics_snapshot(METRICS.snapshot())
    print(f"-- {len(items)} result(s)", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs import METRICS, disable_slow_log, enable_slow_log

    store = open_store(args.db, args.encoding, None)
    doc = _trace_doc(store, args.doc)
    xpaths = args.xpath or ["/*", "//*"]
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    log = enable_slow_log(threshold_ms=args.slow_ms)
    try:
        for _ in range(args.repeat):
            for xpath in xpaths:
                store.query(xpath, doc)
    finally:
        METRICS.enabled = was_enabled
        disable_slow_log()
    snapshot = METRICS.snapshot()
    # The migration counters always appear (zero-defaulted), so
    # monitoring that greps `repro stats` output sees them before the
    # first migration ever runs.
    for name in (
        "migrate.started", "migrate.completed", "migrate.aborted",
        "migrate.rows_copied",
    ):
        snapshot["counters"].setdefault(name, 0)
    snapshot["cache"] = store.cache.stats()
    if args.json:
        print(json_module.dumps(snapshot, indent=2))
    else:
        print(f"ran {args.repeat} round(s) of {len(xpaths)} "
              f"quer{'y' if len(xpaths) == 1 else 'ies'} against "
              f"document {doc}")
        _print_metrics_snapshot(snapshot)
        _print_cache_stats(snapshot["cache"])
        entries = log.entries()
        if entries:
            print(f"slow queries (>= {log.threshold_ms:g} ms):")
            for entry in entries:
                print(entry.render())
        else:
            print(f"slow queries (>= {log.threshold_ms:g} ms): none")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ordered XML in a relational database "
                    "(SIGMOD 2002 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_db(p: argparse.ArgumentParser) -> None:
        p.add_argument("--db", default=":memory:",
                       help="SQLite store file (default: in-memory)")

    p = sub.add_parser("load", help="shred an XML file into the store")
    p.add_argument("file")
    add_db(p)
    p.add_argument("--encoding", choices=sorted(ENCODINGS),
                   default=None, help="order encoding (first load only)")
    p.add_argument("--gap", type=int, default=None,
                   help="sparse-numbering gap (default 1 = dense)")
    p.add_argument("--name", default=None)
    p.add_argument("--strip-whitespace", action="store_true")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("query", help="run an XPath query")
    p.add_argument("xpath")
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--show-sql", action="store_true",
                   help="print the generated SQL first")
    p.add_argument("--xml", action="store_true",
                   help="print matching subtrees as XML")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("insert", help="insert an XML fragment")
    p.add_argument("fragment", help="XML text of the fragment")
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--parent", required=True,
                   help="XPath selecting the parent element")
    p.add_argument("--index", type=int, default=None,
                   help="child index (default: append)")
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("delete", help="delete matching subtrees")
    p.add_argument("xpath")
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--all", action="store_true",
                   help="delete every match, not just the first")
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("dump", help="reconstruct a document as XML")
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("drop", help="drop a whole document")
    p.add_argument("doc", type=int)
    add_db(p)
    p.set_defaults(func=cmd_drop)

    p = sub.add_parser("info", help="list stored documents")
    add_db(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sql", help="run raw SQL against the store")
    p.add_argument("statement")
    add_db(p)
    p.set_defaults(func=cmd_sql)

    p = sub.add_parser(
        "check",
        help="audit a store's structural and encoding invariants",
    )
    add_db(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "index",
        help="create, drop, describe or advise on per-document "
             "secondary indexes",
    )
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--create", action="store_true",
                   help="(re)build the document's value/path indexes")
    p.add_argument("--drop", action="store_true",
                   help="remove the document's index rows")
    p.add_argument("--stats", action="store_true",
                   help="print index state and live row counts "
                        "(default action)")
    p.add_argument("--advise", action="store_true",
                   help="print the index advisor's recommendation and "
                        "stop")
    p.add_argument("--auto", action="store_true",
                   help="create indexes when the advisor recommends "
                        "it")
    p.add_argument("--counters", default=None,
                   help="JSON metrics snapshot for the advisor (as "
                        "written by 'repro stats --json'); default: "
                        "this process's live counters")
    p.add_argument("--json", action="store_true",
                   help="machine-readable --stats output")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser(
        "migrate",
        help="re-encode a stored document between order encodings "
             "(one transaction)",
    )
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--to", choices=sorted(ENCODINGS), default=None,
                   help="target order encoding")
    p.add_argument("--advise", action="store_true",
                   help="print the workload advisor's recommendation "
                        "and stop")
    p.add_argument("--auto", action="store_true",
                   help="migrate when the advisor recommends it")
    p.add_argument("--counters", default=None,
                   help="JSON metrics snapshot for the advisor (as "
                        "written by 'repro stats --json'); default: "
                        "this process's live counters")
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzz: random updates vs the native evaluator",
    )
    p.add_argument("--seeds", type=int, default=5,
                   help="number of random documents (default 5)")
    p.add_argument("--ops", type=int, default=25,
                   help="update operations per document (default 25)")
    p.add_argument("--encodings", default="global,local,dewey,ordpath",
                   help="comma-separated encodings to cross-check")
    p.add_argument("--backends", default="sqlite",
                   help="comma-separated backends (sqlite,minidb)")
    p.add_argument("--gaps", default="1",
                   help="comma-separated gap factors (default 1)")
    p.add_argument("--base-seed", type=int, default=0,
                   help="first document seed (default 0)")
    p.add_argument("--check-every", type=int, default=1,
                   help="run the check battery every N ops (default 1)")
    p.add_argument("--queries-per-check", type=int, default=5,
                   help="oracle queries per store per check (default 5)")
    p.add_argument("--cache-twin", action="store_true",
                   help="pair every store with a caching-off twin and "
                        "require byte-identical query results")
    p.add_argument("--index-twin", action="store_true",
                   help="pair every store, indexed after load, with "
                        "a twin that never is and require "
                        "byte-identical query results")
    p.add_argument("--update-heavy", action="store_true",
                   help="bias the op mix toward structural churn "
                        "(subtree inserts, deletes, text rewrites) — "
                        "the rounds that stress incremental index "
                        "maintenance")
    p.add_argument("--migrate-during", action="store_true",
                   help="run a live encoding migration in the "
                        "background while fuzzing; every query must "
                        "match a non-migrating twin byte for byte "
                        "(sqlite backend only)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "crashtest",
        help="crash-recovery check: seeded update streams with "
             "simulated crashes at statement boundaries",
    )
    p.add_argument("--seeds", type=int, default=2,
                   help="number of random documents (default 2)")
    p.add_argument("--ops", type=int, default=6,
                   help="update operations per cell (default 6)")
    p.add_argument("--encodings", default="global,local,dewey,ordpath",
                   help="comma-separated encodings to test")
    p.add_argument("--backends", default="sqlite,minidb",
                   help="comma-separated backends (sqlite,minidb)")
    p.add_argument("--gaps", default="1",
                   help="comma-separated gap factors (default 1)")
    p.add_argument("--base-seed", type=int, default=0,
                   help="first document seed (default 0)")
    p.add_argument("--crashes-per-op", type=int, default=2,
                   help="crash points sampled per operation (default 2)")
    p.add_argument("--sweep", action="store_true",
                   help="crash at every statement boundary of every op")
    p.add_argument("--transient-rate", type=float, default=0.05,
                   help="also replay each stream with this transient-"
                        "fault rate under the retry policy (0 disables; "
                        "default 0.05)")
    p.add_argument("--snapshot-fault-rate", type=float, default=0.25,
                   help="fraction of minidb checkpoints interrupted "
                        "mid-save (default 0.25)")
    p.add_argument("--writer-batches", type=int, default=2,
                   help="also crash the group-commit writer mid-batch "
                        "this many times per cell on the pooled sqlite "
                        "backend (0 disables; default 2)")
    p.add_argument("--migrate", action="store_true",
                   help="crash encoding migrations instead: every "
                        "ordered pair of --encodings on every backend, "
                        "recovery must land exactly pre- or post-"
                        "migration")
    p.add_argument("--index", action="store_true",
                   help="crash index creates and drops instead: the "
                        "recovered index must be either absent or "
                        "byte-identical to the complete one, never "
                        "partial")
    p.add_argument("--shard-kill", action="store_true",
                   help="kill a live serve shard worker (SIGKILL) in "
                        "the middle of an update batch instead: the "
                        "supervisor must respawn it and the recovered "
                        "state must be exactly pre- or post-batch")
    p.add_argument("--shard-rounds", type=int, default=3,
                   help="kill/respawn rounds per seed with "
                        "--shard-kill (default 3)")
    p.set_defaults(func=cmd_crashtest)

    p = sub.add_parser("experiments",
                       help="run the E1-E18 experiment suite")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "bench",
        help="run the experiment suite and write machine-readable "
             "results (tables + shape verdicts) as JSON",
    )
    p.add_argument("--fast", action="store_true",
                   help="reduced sizes (quick smoke run)")
    p.add_argument("--output", default="BENCH_results.json",
                   help="results file (default BENCH_results.json)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any shape verdict fails")
    p.add_argument("--json", action="store_true",
                   help="print the results JSON to stdout instead of "
                        "the rendered tables")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the sharded serving daemon: N shard worker "
             "processes behind one asyncio front door",
    )
    p.add_argument("--dir", required=True,
                   help="cluster directory (shard db + socket files)")
    p.add_argument("--shards", type=int, default=2,
                   help="shard worker processes (default 2)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral, printed on "
                        "startup)")
    p.add_argument("--encoding", choices=sorted(ENCODINGS), default=None,
                   help="order encoding for fresh shard stores")
    p.add_argument("--gap", type=int, default=None,
                   help="gap factor for fresh shard stores")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="per-request budget in seconds (default 30)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "serve-smoke",
        help="scripted load/query/update/stats round trip against a "
             "serve daemon (spawns its own 2-shard cluster unless "
             "--port is given)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="talk to an already-running daemon instead of "
                        "spawning one")
    p.add_argument("--shards", type=int, default=2,
                   help="shard count when spawning (default 2)")
    p.set_defaults(func=cmd_serve_smoke)

    p = sub.add_parser(
        "serve-bench",
        help="concurrent-serving throughput: N reader threads plus one "
             "writer against a file-backed store, or (with --shards) a "
             "closed-loop multi-process load against a live cluster",
    )
    p.add_argument("--db", default=None,
                   help="SQLite store file for thread mode (created "
                        "and seeded with an article corpus when empty)")
    p.add_argument("--shards", type=int, default=None,
                   help="cluster mode: spin up this many shard workers "
                        "in a temp directory and drive them with the "
                        "multi-process load generator")
    p.add_argument("--docs", type=int, default=8,
                   help="cluster mode: documents to load (default 8)")
    p.add_argument("--write-rate", type=float, default=20.0,
                   help="cluster mode: paced writer rate in Hz "
                        "(default 20)")
    p.add_argument("--mode", choices=("pooled", "serialized"),
                   default="pooled",
                   help="pooled WAL connections + write queue, or the "
                        "serialized shared connection (default pooled)")
    p.add_argument("--readers", type=int, default=4,
                   help="reader threads (default 4)")
    p.add_argument("--duration", type=float, default=1.0,
                   help="seconds to run (default 1.0)")
    p.add_argument("--articles", type=int, default=12,
                   help="corpus size when seeding an empty store "
                        "(default 12)")
    p.add_argument("--encoding", choices=sorted(ENCODINGS), default=None,
                   help="order encoding when seeding an empty store")
    p.add_argument("--max-batch", type=int, default=16,
                   help="group-commit batch cap (default 16)")
    p.add_argument("--no-writer", action="store_true",
                   help="readers only, no background writer")
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "trace",
        help="run one query under the tracer and print its span tree",
    )
    p.add_argument("xpath")
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--encoding", choices=sorted(ENCODINGS), default=None,
                   help="order encoding when seeding an empty store")
    p.add_argument("--cold", action="store_true",
                   help="skip the warm-up run (trace first execution)")
    p.add_argument("--json", action="store_true",
                   help="print the span tree as JSON")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stats",
        help="run queries with metrics + slow-query log enabled and "
             "print the counter/histogram snapshot",
    )
    p.add_argument("xpath", nargs="*",
                   help="XPath queries to run (default: /* and //*)")
    add_db(p)
    p.add_argument("--doc", type=int, default=None)
    p.add_argument("--encoding", choices=sorted(ENCODINGS), default=None,
                   help="order encoding when seeding an empty store")
    p.add_argument("--repeat", type=int, default=5,
                   help="rounds over the query list (default 5)")
    p.add_argument("--slow-ms", type=float, default=1.0,
                   help="slow-query threshold in ms (default 1.0)")
    p.add_argument("--json", action="store_true",
                   help="print the metrics snapshot as JSON")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
