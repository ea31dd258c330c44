"""Keep the backend seam shut.

SQL text plus a parameter tuple is all that crosses from the store to an
engine (see "One SQL text" in DESIGN.md): sqlite prepares the text,
minidb parses it once behind its statement cache.  The static scans here
fail when code outside ``repro/minidb/`` reaches for the engine's
internals again, when a ``Backend`` grows a dialect or capability flag,
or when something starts using the two shims the frozen benchmark probe
still needs.  The two run-time guards pin what the seam buys: a warm
minidb read parses and plans nothing, and a fault-injecting wrapper
hands the engine exactly what a bare backend does.

The same scan keeps a second seam shut: ``core/`` imports nothing from
``repro.index`` (the translator is told *indexed* or not, and that is
all), and no ``cost`` module chooses between scan and index behind it
(see "Indexing" in DESIGN.md).
"""

import ast
from functools import lru_cache
from pathlib import Path

from repro.backends import MiniDbBackend
from repro.robust.faults import FaultInjectingBackend
from repro.store import XmlStore
from tests.conftest import ALL_ENCODINGS, BIB_XML

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: minidb modules nothing outside the engine may import.
ENGINE_INTERNALS = {"sql_ast", "sql_parser", "planner", "executor"}
#: Where any import from ``repro.minidb`` is a leak.
ENGINE_FREE = ("core", "index", "cache", "store.py")
#: The frozen caller both shims exist for.
PROBE = "benchmarks/perf/workloads.py"


def _files(*entries: str) -> list[Path]:
    files: list[Path] = []
    for entry in entries:
        path = SRC / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


@lru_cache(maxsize=None)
def _nodes(path: Path) -> tuple:
    return tuple(ast.walk(ast.parse(path.read_text())))


def package_imports(nodes, package: str) -> set:
    """Dotted names under *package* imported among *nodes*."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(
            n for n in names if f"{n}.".startswith(f"{package}.")
        )
    return found


def minidb_imports(nodes) -> set:
    return package_imports(nodes, "repro.minidb")


def test_scanner_sees_each_import_form():
    assert minidb_imports(ast.walk(ast.parse(
        "import repro.minidb.planner\n"
        "from repro.minidb import sql_ast as m, MiniDb\n"
        "def f():\n    from repro.minidb.sql_parser import parse_sql\n"
        "from repro.core import relalg\n"
    ))) == {
        "repro.minidb.planner", "repro.minidb.sql_ast",
        "repro.minidb.MiniDb", "repro.minidb.sql_parser.parse_sql",
    }


def test_engine_internals_are_imported_only_inside_minidb():
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in _files(".")
        if "minidb" not in path.relative_to(SRC).parts
        and (names := {
            n for n in minidb_imports(_nodes(path))
            if ENGINE_INTERNALS & set(n.split("."))
        })
    }
    assert not leaks, (
        f"{leaks}: hand the engine SQL text (Backend.execute) instead"
    )


def test_core_index_cache_and_store_import_nothing_from_minidb():
    files = _files(*ENGINE_FREE)
    assert len(files) > 20
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in files
        if (names := minidb_imports(_nodes(path)))
    }
    assert not leaks, leaks


def test_core_imports_nothing_from_the_index_package():
    assert package_imports(ast.walk(ast.parse(
        "def f():\n    from repro.index import cost as _cost\n"
        "import repro.index.manager\n"
        "from repro import index\n"
        "from repro.indexing import other\n"
    )), "repro.index") == {
        "repro.index.cost", "repro.index.manager", "repro.index",
    }
    files = _files("core")
    assert len(files) > 15
    leaks = {
        str(path.relative_to(SRC)): sorted(names)
        for path in files
        if (names := package_imports(_nodes(path), "repro.index"))
    }
    assert not leaks, (
        f"{leaks}: compile(shaped, indexed) is the whole interface"
    )


def test_no_cost_module_under_the_index_package():
    modules = {path.stem for path in (SRC / "index").iterdir()}
    assert "manager" in modules
    assert "cost" not in modules, (
        "an index is used when it exists; nothing chooses"
    )


def _backend_classes() -> list[tuple[Path, ast.ClassDef]]:
    """``Backend`` and every class under src that names it as a base."""
    return [
        (path, node)
        for path in _files(".")
        for node in _nodes(path)
        if isinstance(node, ast.ClassDef)
        and (node.name == "Backend" or any(
            isinstance(b, ast.Name) and b.id == "Backend"
            for b in node.bases
        ))
    ]


def test_no_backend_has_a_dialect_or_capability_flag():
    classes = _backend_classes()
    assert {c.name for _p, c in classes} >= {
        "Backend", "SqliteBackend", "PooledSqliteBackend",
        "MiniDbBackend", "FaultInjectingBackend",
    }
    flags = [
        f"{path.relative_to(SRC)}:{node.lineno} {name}"
        for path, cls in classes
        for node in ast.walk(cls)
        # class attributes are Name stores, ``self.x = ...`` Attributes
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Store)
        and (
            (name := getattr(node, "id", None) or node.attr)
            in ("dialect", "pooled")
            or name.startswith("supports_")
        )
    ]
    assert not flags, (
        f"{flags}: both engines take the same SQL text; emit text they "
        "both accept instead of branching on the backend"
    )
    # Connections are autocommit and transaction() is the only scope: a
    # bare commit() has nothing to commit.
    commits = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, cls in classes
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "commit"
    ]
    assert not commits, commits


def test_the_probe_shims_are_single_labelled_and_unused():
    """``Backend.execute_plan`` and ``TranslatedQuery.statement`` exist
    for benchmarks/perf only (ROADMAP, "One benchmark system")."""
    base = (SRC / "backends" / "base.py").read_text()
    relalg = (SRC / "core" / "relalg.py").read_text()
    for source, marker in ((base, "def execute_plan("),
                           (relalg, "    statement = None\n")):
        assert source.count(marker) == 1
        at = source.index(marker)
        assert PROBE in source[at - 300:at + 300], marker
    defined, used = [], []
    for path in [*_files("."), *sorted((ROOT / "tests").glob("*.py"))]:
        for node in _nodes(path):
            if isinstance(node, ast.FunctionDef):
                found = defined if node.name == "execute_plan" else None
            elif isinstance(node, ast.Attribute) and (
                node.attr == "execute_plan"
                # ``args.statement`` is the CLI's ``repro sql`` argument.
                or node.attr == "statement"
                and ast.unparse(node) != "args.statement"
            ):
                found = used
            else:
                continue
            if found is not None:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert len(defined) == 1 and defined[0].startswith(
        "src/repro/backends/base.py"
    ), defined
    assert not used, used


#: Reads for the run-time guards: child/descendant steps, a positional
#: and a value predicate, a document-order axis, a union, attributes.
READS = (
    "/bib/book/title",
    "//author",
    "/bib/book[2]/author[1]",
    "//book[@year < 2000]/title",
    "/bib/book[1]/following::author",
    "//title | //price",
    "//@year",
    "//book[author = 'Smith']/title",
)


def test_warm_minidb_reads_parse_and_plan_nothing(minidb_work):
    """The no-stopwatch guard against per-read parsing: once each text
    has been seen, 200 reads make 0 ``parse_sql`` calls and 0 top-level
    ``compile_select`` calls, every encoding.  ``cache=False`` so every
    read reaches the engine (and re-renders its SQL: the engine's caches
    key on the text's value, not on one string object)."""
    for encoding in ALL_ENCODINGS:
        store = XmlStore(backend="minidb", encoding=encoding, cache=False)
        doc = store.load(BIB_XML)
        for xpath in READS:
            store.query(xpath, doc)
        minidb_work.clear()
        selects = store.backend.db.stats.statements
        for _ in range(25):
            for xpath in READS:
                store.query(xpath, doc)
        assert store.backend.db.stats.statements - selects >= 200
        assert minidb_work == {}, encoding


def _engine_traffic(backend, minidb_backend) -> list:
    """Drive one fixed session through *backend*; return every
    ``(sql, params)`` the minidb engine under it was handed."""
    seen: list = []
    db = minidb_backend.db
    execute, executemany = db.execute, db.executemany

    def record_execute(sql, params=()):
        seen.append((sql, tuple(params)))
        return execute(sql, params)

    def record_executemany(sql, param_rows):
        rows = [tuple(row) for row in param_rows]
        seen.append((sql, rows))
        return executemany(sql, rows)

    db.execute, db.executemany = record_execute, record_executemany
    store = XmlStore(backend=backend, encoding="dewey")
    doc = store.load(BIB_XML)
    for xpath in READS:
        store.query(xpath, doc)
    store.updates.insert(doc, 2, 0, "<note>new</note>")
    store.indexes.create(doc)
    for xpath in READS:
        store.query(xpath, doc)
    store.updates.delete(doc, store.query("//book[3]", doc)[0].node_id)
    return seen


def test_wrapped_and_bare_minidb_hand_the_engine_the_same_text():
    """The crash sweeps wrap the backend in ``FaultInjectingBackend``;
    what they exercise is production's path only if the wrapper changes
    nothing the engine sees."""
    bare = MiniDbBackend()
    inner = MiniDbBackend()
    plain = _engine_traffic(bare, bare)
    wrapped = _engine_traffic(FaultInjectingBackend(inner), inner)
    assert len(plain) > 60
    assert all(isinstance(sql, str) for sql, _params in plain)
    assert wrapped == plain
