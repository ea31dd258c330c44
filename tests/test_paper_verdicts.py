"""Every shape verdict of EXPERIMENTS.md, asserted at small sizes.

The experiments report counts, never time, so the verdict
``compute_verdicts`` reads off a table is a function of the commit: the
same functions that write EXPERIMENTS.md (``run_all``, default sizes)
run here with smaller sizes passed as arguments, and every verdict must
pass.  A FAIL message quotes the counts it was decided on.
"""

import pytest

from repro.bench import experiments as ex
from repro.bench.report import compute_verdicts

#: Each experiment with the sizes tier-1 runs it at.
SMALL = {
    ex.run_e1_storage: {"sizes": (500, 2000)},
    ex.run_e2_loading: {"sizes": (300, 1000)},
    ex.run_e3_ordered_queries: {"articles": 10},
    ex.run_e4_unordered_queries: {"articles": 10},
    ex.run_e5_insert_position: {"articles": 10, "inserts": 5},
    ex.run_e6_subtree_updates: {"articles": 10, "operations": 4},
    ex.run_e7_mixed_workload: {
        "articles": 8, "operations": 30, "fractions": (0.0, 0.5, 1.0)
    },
    ex.run_e8_reconstruction: {"articles": 6},
    ex.run_e9_translation: {},
    ex.run_e10_sparse_numbering: {"articles": 8, "inserts": 10},
    ex.run_e11_ordpath: {"articles": 6, "inserts": 10},
    ex.run_e12_scaling: {"sizes": (150, 500, 1500)},
    ex.run_e16_adaptive_migration: {
        "articles": 3, "query_ops": 120, "update_ops": 48, "probe_ops": 4
    },
    ex.run_e17_sharding: {},
    ex.run_e18_indexing: {"products": 60},
}


@pytest.fixture(scope="module")
def tables():
    return {run: run(**kwargs) for run, kwargs in SMALL.items()}


def test_every_experiment_runs_at_small_sizes():
    assert set(SMALL) == set(ex.EXPERIMENTS)


def test_one_passing_verdict_per_experiment(tables):
    verdicts = compute_verdicts(list(tables.values()))
    assert [v.experiment for v in verdicts] == [
        t.id for t in tables.values()
    ]
    failed = [v.render() for v in verdicts if not v.ok]
    assert not failed, "\n".join(failed)


def test_local_document_order_counts_at_ten_articles(tables):
    """E3's pinned counts: Local reads 97 / 251 rows on Q7 / Q8."""
    table = tables[ex.run_e3_ordered_queries]
    local = table.columns.index("local rows")
    rows = {row[0]: row[local] for row in table.rows}
    assert (rows["Q7"], rows["Q8"]) == (97, 251)


def test_a_tie_wins_together(tables):
    """Global and Dewey read the same rows on the read-only mix: E7
    names both winners, in the table's encoding order, and its verdict
    accepts the pair."""
    table = tables[ex.run_e7_mixed_workload]
    read_only = table.rows[0]
    assert read_only[1] == read_only[3]
    assert read_only[-1] == "global=dewey"
    (verdict,) = compute_verdicts([table])
    assert verdict.ok and "(global=dewey: " in verdict.claim


@pytest.mark.parametrize(
    "run", [ex.run_e7_mixed_workload, ex.run_e12_scaling],
    ids=["E7", "E12"],
)
def test_a_second_run_counts_the_same(tables, run):
    assert run(**SMALL[run]).rows == tables[run].rows
