"""Relabel counts are the paper-facing number: pinned.

Recorded at ``21f7fa0``, immediately before Dewey's sibling shift and
Global's tail shift became single statements (the golden-SQL method of
``tests/test_golden_sql.py``), so the statements are held to the counts
the per-row loops reported:

* ``mix_w`` — ``(inserted, deleted, relabeled)`` of each of the first 200
  writes of the benchmark's mix W (``benchmarks/perf/schedule.py``, seed
  1, dense numbering) on one 8-article document, per encoding; both
  backends must report them, and the stores must audit clean afterwards;
* ``e5`` / ``e6`` / ``e10`` — the count columns of the three update
  experiments (insert cost vs. position, subtree insert / delete,
  sparse numbering), wall-clock dropped.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_relabel_pins.py --regen
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from repro.bench.experiments import (
    run_e5_insert_position,
    run_e6_subtree_updates,
    run_e10_sparse_numbering,
)
from repro.check import assert_store_clean
from repro.store import XmlStore

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_relabels.json"
SCHEDULE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "perf" / "schedule.py"
)

ENCODINGS = ("global", "local", "dewey", "ordpath")
BACKENDS = ("sqlite", "minidb")
SEED, ARTICLES, OPS = 1, 8, 200

EXPERIMENTS = {
    "e5": run_e5_insert_position,
    "e6": run_e6_subtree_updates,
    "e10": run_e10_sparse_numbering,
}


def _schedule():
    """The benchmark's schedule generators, loaded by path (the
    directory is not a package and its module names are generic)."""
    spec = importlib.util.spec_from_file_location(
        "perf_schedule", SCHEDULE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mix_w_slice():
    """One document and the first :data:`OPS` writes of mix W on it."""
    sched = _schedule()
    document = sched.corpus(SEED, 1, ARTICLES)[0]
    rng = random.Random(SEED)
    stream = sched.WriteStream({1: sched.DocModel(document)})
    ops = [
        stream.next(rng, cls, [1])
        for cls in sched.exact_mix(rng, OPS, sched.MIX_W)
    ]
    return document, ops


def replay(encoding: str, backend: str) -> tuple[XmlStore, list[list[int]]]:
    document, ops = mix_w_slice()
    store = XmlStore(backend=backend, encoding=encoding)
    assert store.load(document) == 1
    counts = []
    for op in ops:
        if op.kind == "insert":
            report = store.updates.insert(
                op.doc, op.parent, op.index, op.fragment
            )
        else:
            report = store.updates.delete(op.doc, op.node)
        counts.append([report.inserted, report.deleted, report.relabeled])
    return store, counts


def count_rows(table) -> list[list]:
    """An experiment's rows without the wall-clock column."""
    keep = [
        i for i, column in enumerate(table.columns)
        if not column.startswith("ms")
    ]
    return [[row[i] for i in keep] for row in table.rows]


def snapshot() -> dict:
    return {
        "mix_w": {enc: replay(enc, "sqlite")[1] for enc in ENCODINGS},
        **{
            name: count_rows(run()) for name, run in EXPERIMENTS.items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            "golden file missing; regenerate with "
            "PYTHONPATH=src python tests/test_relabel_pins.py --regen"
        )
    return json.loads(GOLDEN_PATH.read_text())


def test_the_slice_exercises_every_write_class_and_renumbers(golden):
    _document, ops = mix_w_slice()
    assert {op.detail for op in ops} == {"fragment", "subtree", "delete"}
    relabeled = {
        enc: sum(r for _i, _d, r in golden["mix_w"][enc])
        for enc in ENCODINGS
    }
    assert relabeled["global"] > relabeled["dewey"] > relabeled["local"] > 0
    assert relabeled["ordpath"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_mix_w_reports_the_recorded_counts_per_op(golden, encoding, backend):
    store, counts = replay(encoding, backend)
    want = golden["mix_w"][encoding]
    assert len(counts) == len(want) == OPS
    for i, (got, recorded) in enumerate(zip(counts, want)):
        assert got == recorded, (
            f"op {i}: (inserted, deleted, relabeled) {got}, "
            f"recorded {recorded}"
        )
    assert_store_clean(store, f"{encoding}/{backend} after mix W")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_update_experiments_report_the_recorded_counts(golden, name):
    assert count_rows(EXPERIMENTS[name]()) == golden[name]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        # One op list or table row per line: a moved count is a
        # one-line diff.
        sections = []
        for section, value in snapshot().items():
            if isinstance(value, dict):
                lines = [
                    f"  {json.dumps(key)}: {json.dumps(row)}"
                    for key, row in value.items()
                ]
                opener, closer = "{", "}"
            else:
                lines = [f"  {json.dumps(row)}" for row in value]
                opener, closer = "[", "]"
            body = ",\n".join(lines)
            sections.append(f' "{section}": {opener}\n{body}\n {closer}')
        GOLDEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(
            "usage: PYTHONPATH=src python tests/test_relabel_pins.py --regen"
        )
