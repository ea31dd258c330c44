"""Keep the encoding seam shut.

Everything that differs between the order encodings lives behind
:class:`repro.core.encodings.OrderEncoding` (see "Encoding seam" in
DESIGN.md).  This scan fails when code outside ``core/encodings.py``
starts deciding by encoding *name* again — the ``if name == "global" /
"dewey" / ...`` ladders the seam replaced — when one of the helpers
the seam made single grows a second copy, or when something besides the
auditor goes back to deriving the tree from parent pointers itself.  Name-keyed registries (a
dict from encoding name to a class or routine) are fine: they hold no
comparison.
"""

import ast
from pathlib import Path

import pytest

from repro.core.encodings import ENCODINGS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Where an encoding-name comparison is a seam leak.
SCANNED = ("core", "store.py", "migrate", "index", "check")
#: The one module allowed to know the encodings by name.
SEAM = SRC / "core" / "encodings.py"


def _scanned_files() -> list[Path]:
    files: list[Path] = []
    for entry in SCANNED:
        path = SRC / entry
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return [f for f in files if f != SEAM]


def _literals(node: ast.expr) -> set:
    """String constants in *node*, looking inside ``in (...)`` tuples."""
    return {
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def encoding_comparisons(source: str) -> list[int]:
    """Line numbers of comparisons against an encoding-name literal."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(
            _literals(operand) & ENCODINGS.keys()
            for operand in (node.left, *node.comparators)
        )
    ]


def _definitions(name: str) -> list[str]:
    """``file:line`` of every def / assignment of *name* under src."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
            else:
                continue
            if name in bound:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_scan_covers_the_seam_modules():
    names = {str(f.relative_to(SRC)) for f in _scanned_files()}
    assert {"store.py", "core/updates.py", "core/reconstruct.py",
            "core/translator/__init__.py", "migrate/engine.py",
            "index/manager.py", "check/invariants.py"} <= names
    assert "core/encodings.py" not in names


def test_scanner_catches_a_ladder_and_allows_a_registry():
    ladder = (
        "def f(enc):\n"
        "    if enc.name == 'global':\n        return 1\n"
        "    elif enc.name in ('dewey', 'ordpath'):\n        return 2\n"
        "    return 3 if 'local' != enc.name else 4\n"
    )
    assert encoding_comparisons(ladder) == [2, 4, 6]
    registry = "ROUTINES = {'global': int, 'dewey': str}\nf = ROUTINES[n]\n"
    assert encoding_comparisons(registry) == []


def test_no_encoding_name_ladder():
    leaks = {
        str(path.relative_to(SRC)): lines
        for path in _scanned_files()
        if (lines := encoding_comparisons(path.read_text()))
    }
    assert not leaks, (
        f"comparison against an encoding name at {leaks}; put the "
        "decision behind OrderEncoding (core/encodings.py) instead"
    )


@pytest.mark.parametrize(
    "name",
    ["_document_axis", "_ID_BATCH", "relabel", "group_siblings",
     "ordered_rows", "row_events"],
)
def test_defined_once(name):
    assert len(_definitions(name)) == 1, _definitions(name)


def test_only_the_auditor_derives_the_tree_from_parent_pointers():
    """``group_siblings`` is the auditor's independent reference;
    everything else reads stored structure through ``ordered_rows``."""
    assert _definitions("group_siblings")[0].startswith(
        "check/invariants.py:"
    )
    users = sorted({
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "group_siblings"
        or isinstance(node, ast.Attribute) and node.attr == "group_siblings"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "group_siblings" for alias in node.names)
    })
    assert users == ["check/invariants.py"], users


def test_no_translator_or_plan_key_knows_a_documents_depth():
    """Local's closure axes recurse over the rows at run time, so no
    plan is compiled for a depth: ``max_depth`` is neither a translator
    parameter nor a plan-key component (it was both, and stale values
    of it were a recurring defect)."""
    import inspect

    from repro.core.translator import SqlTranslator, make_translator
    from repro.store import XmlStore

    mentions = sorted({
        str(path.relative_to(SRC))
        for path in (SRC / "core" / "translator").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "id", None) == "max_depth"
        or getattr(node, "arg", None) == "max_depth"
        or getattr(node, "attr", None) == "max_depth"
    })
    assert not mentions, mentions
    for callable_ in (make_translator, SqlTranslator.__init__):
        assert "depth" not in " ".join(
            inspect.signature(callable_).parameters
        )
    assert "depth" not in inspect.getsource(XmlStore.translate).split(
        '"""'
    )[2]

    store = XmlStore(encoding="local")
    for text in ("<a><x/></a>", "<a><b><c><d><x/></d></c></b></a>"):
        assert len(store.query("//a//x", store.load(text))) == 1
    (key,) = store.cache._plan.entries
    assert [type(part) for part in key] == [str, str, bool], key


def per_row_updates(source: str) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of every ``executemany`` whose
    statement is an ``UPDATE``: a relabel issued once per row."""
    found = []

    def scan(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = getattr(child, "name", function)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "executemany"
                and child.args
            ):
                text = "".join(
                    n.value for n in ast.walk(child.args[0])
                    if isinstance(n, ast.Constant)
                    and isinstance(n.value, str)
                )
                if text.lstrip().upper().startswith("UPDATE"):
                    found.append((function, child.lineno))
            scan(child, name)

    scan(ast.parse(source), "<module>")
    return found


def test_scanner_catches_a_per_row_relabel():
    loop = (
        "def _shift(self, table, column, rows):\n"
        "    self.store.backend.executemany(\n"
        "        f'UPDATE {table} SET {column} = ? '\n"
        "        f'WHERE doc = ? AND id = ?', rows)\n"
        "def _load(self, table, rows):\n"
        "    self.store.backend.executemany(\n"
        "        f'INSERT INTO {table} VALUES (?, ?)', rows)\n"
    )
    assert per_row_updates(loop) == [("_shift", 2)]


def test_renumbering_is_never_a_per_row_update():
    """Every renumbering an insert causes is one ``UPDATE`` the engine
    evaluates (DESIGN.md, "Updates"); only ``rebalance``, which assigns
    every row a fresh value no expression of the old one yields, writes
    order values row by row."""
    source = (SRC / "core" / "updates.py").read_text()
    assert [f for f, _line in per_row_updates(source)] == ["_rebalance"]


#: The callers of a migration: the command, the two harnesses, E16.
MIGRATION_CALLERS = {
    "cli.py", "check/fuzz.py", "robust/crashtest.py",
    "bench/experiments.py",
}


def test_a_migration_is_something_the_store_does_not_know_about():
    """A migration is one transaction run on the store (DESIGN.md,
    "Encoding migration"); the store does nothing for it.  The staged
    machine it replaced reached the other way — a journal hooked into
    every commit, a shadow-store flag in every update; this fails when
    anything the store is made of imports the package, or grows those
    names back."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("migrate/") or rel in MIGRATION_CALLERS:
            continue
        imported = {
            name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (
                getattr(node, "module", None),
                *(alias.name for alias in node.names),
            )
            if name and name.startswith("repro.migrate")
        }
        assert not imported, f"{rel} imports {sorted(imported)}"
    banned = {"is_shadow", "MigrationJournal", "shadow_table", "journal"}
    for path in (SRC / "store.py", *sorted((SRC / "core").rglob("*.py"))):
        names = {
            getattr(node, field, None)
            for node in ast.walk(ast.parse(path.read_text()))
            for field in ("id", "attr", "name", "arg")
        }
        assert not banned & names, f"{path.name}: {sorted(banned & names)}"
