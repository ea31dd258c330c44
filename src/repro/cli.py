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
    python -m repro experiments

The store's encoding is recorded in a ``repro_meta`` table on first
load, so later commands need no flags.  Each document's gap is recorded
in its catalogue row when it is loaded: ``--gap`` sets the gap of the
documents that ``load`` creates, and inserts into a document always use
its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.backends.base import Backend
from repro.backends.sqlite_backend import SqliteBackend
from repro.core.encodings import ENCODINGS
from repro.errors import ReproError, StorageError
from repro.store import XmlStore
from repro.xmldom import parse_fragment, serialize
from repro.xmldom.chars import escape_attribute


def _read_meta(backend: Backend, db: str) -> Optional[dict[str, str]]:
    """The store's recorded settings; None before its first load."""
    try:
        rows = backend.execute(
            "SELECT key, value FROM repro_meta"
        ).rows
    except StorageError as exc:
        if str(exc) == "no such table: repro_meta":
            return None
        raise StorageError(f"cannot read store {db!r}: {exc}") from exc
    return {key: value for key, value in rows}


def _write_meta(backend: Backend, encoding: str) -> None:
    backend.execute(
        "CREATE TABLE IF NOT EXISTS repro_meta (key TEXT, value TEXT)"
    )
    backend.execute("DELETE FROM repro_meta")
    backend.execute(
        "INSERT INTO repro_meta VALUES (?, ?)", ("encoding", encoding)
    )


def open_store(
    db: str,
    encoding: Optional[str] = None,
    gap: Optional[int] = None,
) -> XmlStore:
    """Open (or initialise) the store in SQLite file *db*.

    *gap* is the gap of the documents the store loads (``None``: the
    encoding's declared one); a document already stored keeps the gap
    it was loaded with.
    """
    backend = SqliteBackend(db if db != ":memory:" else None)
    meta = _read_meta(backend, db)
    if meta is not None:
        if encoding is not None and encoding != meta.get("encoding"):
            raise ReproError(
                f"store {db!r} uses encoding {meta.get('encoding')!r}; "
                f"cannot reopen it as {encoding!r}"
            )
        encoding = meta.get("encoding", "dewey")
    else:
        encoding = encoding or "dewey"
        try:
            _write_meta(backend, encoding)
        except Exception as exc:
            raise ReproError(f"cannot initialise store {db!r}: {exc}")
    try:
        return XmlStore(backend=backend, encoding=encoding, gap=gap)
    except StorageError as exc:
        backend.close()
        raise StorageError(f"cannot open {db!r}: {exc}") from exc


def _resolve_doc(store: XmlStore, doc: Optional[int]) -> int:
    if doc is not None:
        return doc
    documents = store.documents()
    if not documents:
        raise ReproError("the store holds no documents; run 'load' first")
    return documents[-1].doc


def _read_counters(path: Optional[str]) -> dict:
    """The counters an advisor decides from: the JSON metrics snapshot
    at *path* (as ``repro stats --json`` writes it), or without one
    this process's own, which a fresh ``repro`` process has none of."""
    if path is None:
        from repro.obs import METRICS

        return METRICS.snapshot()
    import json

    try:
        counters = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(
            f"cannot read counters from '{path}': {exc}"
        ) from exc
    if not isinstance(counters, dict):
        raise ReproError(
            f"cannot read counters from '{path}': expected a JSON "
            f"object, found {type(counters).__name__}"
        )
    # Unwrapped as the advisors do: a snapshot's counters, or the file.
    inner = counters.get("counters")
    if isinstance(inner, dict):
        counters = inner
    for name, value in counters.items():
        if type(value) is not int:
            raise ReproError(
                f"cannot read counters from '{path}': counter "
                f"'{name}' is not an integer"
            )
    return counters


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
        f"nodes, encoding {info.encoding}, gap {info.gap}"
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
    print(f"encoding: {store.encoding.name}")
    print(f"{'doc':>4}  {'name':20} {'nodes':>8} "
          f"{'next id':>8} {'encoding':>8} {'gap':>6}")
    for info in store.documents():
        print(f"{info.doc:>4}  {info.name:20} {info.node_count:>8} "
              f"{info.next_id:>8} {info.encoding:>8} {info.gap:>6}")
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
        recommendation = MigrationAdvisor().decide(
            _read_counters(args.counters), store.encoding_for(doc).name
        )
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
        counters = _read_counters(args.counters)
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
        f"[{store.encoding.name}/{store.backend.name}]"
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check import FuzzConfig, run_fuzz

    encodings, gaps = _parse_matrix(args)
    backends = tuple(args.backends.split(","))
    for backend in backends:
        if backend not in ("sqlite", "minidb"):
            raise ReproError(
                f"unknown backend {backend!r}; expected 'sqlite' or "
                "'minidb'"
            )
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


def _parse_matrix(args) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Validate the shared --encodings/--gaps flags."""
    encodings = tuple(args.encodings.split(","))
    for encoding in encodings:
        if encoding not in ENCODINGS:
            raise ReproError(
                f"unknown encoding {encoding!r}; expected one of "
                f"{sorted(ENCODINGS)}"
            )
    try:
        gaps = tuple(int(g) for g in args.gaps.split(","))
    except ValueError:
        raise ReproError(
            f"--gaps expects comma-separated integers, got {args.gaps!r}"
        ) from None
    return encodings, gaps


def cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.robust import crashtest
    from repro.serve.crashtest import run_shard_kill_crashtest

    encodings, gaps = _parse_matrix(args)
    config = crashtest.CrashTestConfig(
        seeds=args.seeds,
        ops=args.ops,
        encodings=encodings,
        gaps=gaps,
        base_seed=args.base_seed,
        crashes_per_op=0 if args.sweep else args.crashes_per_op,
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
    wanted = (("ops", args.ops > 0), ("writer", args.writer_batches > 0))
    default = [mode for mode, on in wanted if on]
    report = crashtest.CrashTestReport()
    for mode in flagged[:1] or default:
        report.merge(runners[mode]())
    return _print_report(report)


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.experiments import run_all
    from repro.bench.report import experiments_page

    page, passed = experiments_page(run_all())
    print(page, end="")
    return 0 if passed else 1


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


def _print_counters(counters: dict) -> None:
    if counters:
        print("counters:")
        for name, value in counters.items():
            print(f"  {name:<32} {value}")


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


def _run_traced(store: XmlStore, doc: int, xpaths: list[str],
                rounds: int = 1):
    """Run *xpaths* against *doc*, *rounds* times over, under a fresh
    tracer and with the metrics counting: the tracer, the counters that
    grew and the last query's items."""
    from repro.obs import counting, tracing

    items: list = []
    with counting() as grew, tracing() as tracer:
        for _ in range(rounds):
            for xpath in xpaths:
                items = store.query(xpath, doc)
    return tracer, dict(sorted(grew.items())), items


def _render_slow_query(root) -> str:
    """A traced ``query`` span as the lines ``repro stats`` lists it
    with: elapsed time, phases (slowest first), SQL and parameters."""
    phases = ", ".join(
        f"{child.name}={child.duration_ms:.2f}ms"
        for child in sorted(root.children, key=lambda c: -c.duration_ms)
    )
    return "\n".join((
        f"slow query ({root.duration_ms:.2f} ms) {root.attrs['xpath']}",
        f"  phases: {phases}",
        f"  sql: {root.attrs['sql']}",
        f"  params: {root.attrs['params']!r}",
    ))


def cmd_trace(args: argparse.Namespace) -> int:
    store = open_store(args.db, args.encoding, None)
    # Tracing documents the translate/execute/materialize pipeline; a
    # result-cache hit would short-circuit it into a single empty span.
    store.cache.enabled = False
    doc = _trace_doc(store, args.doc)
    if not args.cold:
        # A warm-up run keeps one-time costs (sqlite statement
        # preparation, page cache) out of the traced timings.
        store.query(args.xpath, doc)
    tracer, counters, items = _run_traced(store, doc, [args.xpath])
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
        _print_counters(counters)
    print(f"-- {len(items)} result(s)", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json as json_module

    store = open_store(args.db, args.encoding, None)
    doc = _trace_doc(store, args.doc)
    xpaths = args.xpath or ["/*", "//*"]
    tracer, counters, _ = _run_traced(store, doc, xpaths, args.repeat)
    # The migration counters always appear (zero-defaulted), so
    # monitoring that greps `repro stats` output sees them before the
    # first migration ever runs.
    for name in (
        "migrate.started", "migrate.completed", "migrate.aborted",
        "migrate.rows_copied",
    ):
        counters.setdefault(name, 0)
    snapshot = {
        "counters": counters,
        "spans": tracer.aggregate(),
        "cache": store.cache.stats(),
    }
    if args.json:
        print(json_module.dumps(snapshot, indent=2))
        return 0
    print(f"ran {args.repeat} round(s) of {len(xpaths)} "
          f"quer{'y' if len(xpaths) == 1 else 'ies'} against "
          f"document {doc}")
    _print_counters(counters)
    print("spans:")
    for name, entry in snapshot["spans"].items():
        print(f"  {name:<32} count={entry['count']} "
              f"total={entry['total_ms']:.3f}ms")
    _print_cache_stats(snapshot["cache"])
    # A result-cache hit returns before the query span opens, so only
    # the queries that ran are listed, as they are timed.
    slow = [
        root for root in tracer.roots
        if root.name == "query" and root.duration_ms >= args.slow_ms
    ]
    print(f"slow queries (>= {args.slow_ms:g} ms):"
          f"{'' if slow else ' none'}")
    for root in slow:
        print(_render_slow_query(root))
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
                   help="sparse-numbering gap of the loaded document, "
                        "recorded with it (default: the encoding's: "
                        + ", ".join(f"{name} {enc.load_gap}"
                                    for name, enc in ENCODINGS.items())
                        + "; 1 = dense)")
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
                        "written by 'repro stats --json'); without "
                        "it the advisor sees only this process's own "
                        "counters, and a fresh repro process has "
                        "none, so it holds")
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
                        "written by 'repro stats --json'); without "
                        "it the advisor sees only this process's own "
                        "counters, and a fresh repro process has "
                        "none, so it holds")
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
                        "a twin that never is, require "
                        "byte-identical query results and fail on any "
                        "update that rebuilds the index")
    p.add_argument("--update-heavy", action="store_true",
                   help="bias the op mix toward structural churn "
                        "(subtree inserts, deletes, text rewrites) — "
                        "the rounds that stress incremental index "
                        "maintenance")
    p.add_argument("--migrate-during", action="store_true",
                   help="run a live encoding migration of every "
                        "store in the background while fuzzing; every "
                        "query must match a non-migrating twin byte "
                        "for byte (not with --cache-twin or "
                        "--index-twin)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "crashtest",
        help="crash-recovery check: seeded update streams with "
             "simulated crashes at statement boundaries of a "
             "file-backed sqlite store",
    )
    p.add_argument("--seeds", type=int, default=2,
                   help="number of random documents (default 2)")
    p.add_argument("--ops", type=int, default=6,
                   help="update operations per cell (default 6)")
    p.add_argument("--encodings", default="global,local,dewey,ordpath",
                   help="comma-separated encodings to test")
    p.add_argument("--gaps", default="1",
                   help="comma-separated gap factors (default 1)")
    p.add_argument("--base-seed", type=int, default=0,
                   help="first document seed (default 0)")
    p.add_argument("--crashes-per-op", type=int, default=2,
                   help="crash points sampled per operation (default 2)")
    p.add_argument("--sweep", action="store_true",
                   help="crash at every statement boundary of every op")
    p.add_argument("--writer-batches", type=int, default=2,
                   help="also crash a one-transaction batch of inserts "
                        "mid-batch this many times per cell (0 disables; "
                        "default 2)")
    p.add_argument("--migrate", action="store_true",
                   help="crash encoding migrations instead: every "
                        "ordered pair of --encodings; "
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

    p = sub.add_parser(
        "experiments",
        help="run the E1-E18 experiment suite: print EXPERIMENTS.md, "
             "its shape verdicts and counted tables, exit 1 on any FAIL",
    )
    p.set_defaults(func=cmd_experiments)

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
                   help="sparse-numbering gap of the documents the shards "
                        "load (default: the encoding's)")
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
        help="run queries under the tracer with metrics counting and "
             "print the counters, span totals and slow queries",
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
                   help="print the counters, span totals and cache "
                        "statistics as JSON")
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
