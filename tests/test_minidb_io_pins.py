"""minidb's logical I/O per read is pinned: the same rows, whatever the
executor spends per row.

For every template of the benchmark's read mix Mix R' (loaded by path
from ``benchmarks/perf/schedule.py``, as ``tests/test_relabel_pins.py``
does), instantiated :data:`DRAWS` times from one seed, on one seeded
``article_corpus`` per encoding, the golden file records what the minidb
engine counted for the read: ``rows_read``, ``index_scans``,
``full_scans`` and ``statements``.  No template has an ancestor step,
so one more group, :data:`ANCESTOR`, pins the ancestor axes from many
contexts, from one and inside a predicate.  An executor change that
makes a read cheaper in Python must leave every count where it is; one
that changes an access path shows up as a one-line diff.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_minidb_io_pins.py --regen
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from repro.store import XmlStore

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_minidb_io.json"
SCHEDULE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "perf" / "schedule.py"
)

ENCODINGS = ("global", "local", "dewey", "ordpath")
COUNTERS = ("rows_read", "index_scans", "full_scans", "statements")
SEED, ARTICLES, DRAWS = 1, 10, 3
ANCESTOR = "ancestor"
ANCESTOR_READS = [
    "/journal/article/section/ancestor::*",
    "/journal/article/section/ancestor-or-self::article",
    "/journal/article[last()]/section[1]/para[1]/ancestor::*",
    "//title[ancestor::section]",
]


def _schedule():
    """The benchmark's schedule generators, loaded by path (the
    directory is not a package and its module names are generic)."""
    spec = importlib.util.spec_from_file_location(
        "perf_schedule", SCHEDULE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reads() -> tuple[object, dict[str, list[str]]]:
    """The document and :data:`DRAWS` distinct XPaths per Mix R'
    template (every template has at least four literal values), then
    the :data:`ANCESTOR` group."""
    sched = _schedule()
    document = sched.corpus(SEED, 1, ARTICLES)[0]
    rng = random.Random(SEED)
    queries: dict[str, list[str]] = {}
    for template in sched.MIX_R_PRIME:
        xpaths = queries[template] = []
        while len(xpaths) < DRAWS:
            xpath = sched.instantiate(rng, template, ARTICLES)
            if xpath not in xpaths:
                xpaths.append(xpath)
    queries[ANCESTOR] = ANCESTOR_READS
    return document, queries


def measure(encoding: str) -> dict[str, list[list]]:
    """``group -> [[xpath, *counters], ...]`` on a minidb store."""
    document, queries = reads()
    store = XmlStore(backend="minidb", encoding=encoding, cache=False)
    try:
        doc = store.load(document)
        engine = store.backend.db
        out: dict[str, list[list]] = {}
        for template, xpaths in queries.items():
            rows = out[template] = []
            for xpath in xpaths:
                before = engine.stats.snapshot()
                store.query(xpath, doc=doc)
                after = engine.stats.snapshot()
                rows.append(
                    [xpath, *(after[c] - before[c] for c in COUNTERS)]
                )
        return out
    finally:
        store.close()


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "golden file missing; regenerate with "
            "PYTHONPATH=src python tests/test_minidb_io_pins.py --regen"
        )
    return json.loads(GOLDEN_PATH.read_text())


def test_the_pins_cover_every_template_and_count_something(golden):
    _document, queries = reads()
    for encoding in ENCODINGS:
        assert list(golden[encoding]) == list(queries)
        for rows in golden[encoding].values():
            assert all(row[1] > 0 and row[4] >= 1 for row in rows)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_each_read_counts_the_recorded_logical_io(golden, encoding):
    got = measure(encoding)
    for template, rows in golden[encoding].items():
        for recorded, measured in zip(rows, got[template]):
            assert measured == recorded, (
                f"{encoding} {template}: [xpath, {', '.join(COUNTERS)}] "
                f"{measured}, recorded {recorded}"
            )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        # One read per line: a moved count is a one-line diff.
        sections = []
        for encoding in ENCODINGS:
            lines = [
                f"  {json.dumps(template)}: [\n"
                + ",\n".join(f"   {json.dumps(row)}" for row in rows)
                + "\n  ]"
                for template, rows in measure(encoding).items()
            ]
            body = ",\n".join(lines)
            sections.append(f' "{encoding}": {{\n{body}\n }}')
        GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(
            "usage: PYTHONPATH=src python tests/test_minidb_io_pins.py --regen"
        )
