"""minidb's access plan per golden query is pinned.

For every SQL text in ``tests/data/golden_sql.json`` — the twenty
snapshot queries of each encoding, its indexed plans and its
index-driven plans — the golden
file records what ``MiniDb.explain`` prints for it on a store of that
encoding: one line per FROM item with the index chosen (and its
equality / IN / range use) or FULL SCAN, and the residual filter count.
An executor change must leave every line where it is; a translation
change that moves an access path shows up as a diff of that query's
lines.  (``tests/test_minidb_io_pins.py`` pins what the plans *read*.)

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_minidb_plan_pins.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.store import XmlStore

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden_minidb_plans.json"
SQL_PATH = DATA / "golden_sql.json"

ENCODINGS = ("global", "local", "dewey", "ordpath")


def texts(encoding: str) -> dict[str, dict[str, str]]:
    """``{"scan": {xpath: sql}, "indexed": {xpath: sql}, "drives":
    {xpath: sql}}`` of one encoding, as ``golden_sql.json`` records
    them."""
    golden = json.loads(SQL_PATH.read_text())
    return {
        "scan": golden[encoding],
        "indexed": {
            xpath: plan["sql"]
            for xpath, plan in golden["index_plans"][encoding].items()
        },
        "drives": {
            xpath: plan["sql"]
            for xpath, plan in golden["drives"][encoding].items()
        },
    }


def explain(encoding: str) -> dict[str, dict[str, list[str]]]:
    """The engine's plan lines for every golden text of *encoding*."""
    store = XmlStore(backend="minidb", encoding=encoding, cache=False)
    try:
        db = store.backend.db
        return {
            kind: {xpath: db.explain(sql) for xpath, sql in sqls.items()}
            for kind, sqls in texts(encoding).items()
        }
    finally:
        store.close()


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "golden file missing; regenerate with "
            "PYTHONPATH=src python tests/test_minidb_plan_pins.py --regen"
        )
    return json.loads(GOLDEN_PATH.read_text())


def test_the_pins_cover_every_golden_text(golden):
    assert list(golden) == list(ENCODINGS)
    for encoding in ENCODINGS:
        want = texts(encoding)
        assert {k: list(v) for k, v in golden[encoding].items()} == {
            k: list(v) for k, v in want.items()
        }
        for plans in golden[encoding].values():
            assert all(lines for lines in plans.values())


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_each_golden_text_plans_as_recorded(golden, encoding):
    got = explain(encoding)
    for kind, plans in golden[encoding].items():
        for xpath, lines in plans.items():
            assert got[kind][xpath] == lines, (
                f"{encoding} {kind} {xpath!r}: plan drifted; if "
                "intentional, regenerate tests/data/golden_minidb_plans.json"
            )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        payload = {encoding: explain(encoding) for encoding in ENCODINGS}
        GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(
            "usage: PYTHONPATH=src python tests/test_minidb_plan_pins.py "
            "--regen"
        )
