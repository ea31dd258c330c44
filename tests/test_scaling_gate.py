"""Rows read grow at most linearly with the document: a tier-1 gate.

``golden_minidb_io.json`` pins each read's logical I/O at one document
size, so a plan that turns quadratic moves one number there and a regen
makes the new value the pin.  This test reads the rows minidb counts at
three sizes of ``sized_article_corpus`` (351 / 1,114 / 3,520 nodes,
E12's sizes; the corpus grows one sibling list, ``journal/article``,
from 9 to 97 articles) and fits the exponent of a power law through
them, for

* every Mix R' template of the benchmark (fixed literals),
* every query of E3, E4 and E12 (Q1-Q8, U1-U4),
* the probes ROADMAP measured quadratic families with, among them the
  ancestor axes from many contexts, from one and inside a predicate,
  and a pick whose node test names no tag,

on all four encodings.  Every exponent must be at most :data:`BOUND`.
A positional pick on the child axis, and a sibling step from it, must
also read at most :data:`PICK_BOUND` rows at every size: the child index
names the tag, and the pick stops at its k-th row, so what they read
does not grow with the journal's fan-out.  So must a step from the
document that an attribute equality drives (:data:`DRIVEN`, at most
:data:`DRIVEN_BOUND` rows): it reads the matching attribute rows and
what hangs off them, not every element of its tag.

:data:`SUPER_LINEAR` names the cells that are still super-linear.  The
list records open defects, each with the ROADMAP item that removes it;
it is not a loosened bound.  The test fails when a listed cell turns
linear, so the list only ever shrinks.  Listed cells are read at the
two smaller sizes only: the larger one alone costs seconds for a
quadratic cell (Local's multi-context ``following::`` reads ~940,000
rows at 3,520 nodes), and two sizes already tell n² from n.
"""

import math
import statistics

import pytest

from repro.store import XmlStore
from repro.workload import (
    ORDERED_QUERIES,
    UNORDERED_QUERIES,
    document_stats,
    sized_article_corpus,
)
from tests.conftest import ALL_ENCODINGS
from tests.test_minidb_io_pins import _schedule

SIZES = (300, 1000, 3000)
BOUND = 1.2

FOLLOWING = "/journal/article/section/following::title"
PRECEDING = "/journal/article/title/preceding::author"
DESCENDANTS = "//section//para"
ANCESTORS = "/journal/article/section/ancestor::*"
ANCESTORS_OR_SELF = "/journal/article/section/ancestor-or-self::article"
ANCESTOR_PREDICATE = "//title[ancestor::section]"
TAGLESS_PICK = "/journal/*[3]"
PICKS = (
    "/journal/article[3]",
    "/journal/article[3]/section[2]/following-sibling::section",
)
PICK_BOUND = 15
DRIVEN = ("//*[@id = 'a3']", "//article[@id = 'a3']/title")
DRIVEN_BOUND = 10


def queries() -> dict[str, str]:
    """``name -> xpath`` over every family the gate covers."""
    templates = _schedule().TEMPLATES
    out = {
        name: templates[name].format(k=3, s=2, y=1997)
        for name in _schedule().MIX_R_PRIME
    }
    out.update(
        (query.id, query.xpath)
        for query in ORDERED_QUERIES + UNORDERED_QUERIES
    )
    for xpath in (
        "/journal/article[1]",
        *PICKS,
        *DRIVEN,
        "/journal/article[last()]",
        FOLLOWING,
        PRECEDING,
        DESCENDANTS,
        ANCESTORS,
        ANCESTORS_OR_SELF,
        ANCESTOR_PREDICATE,
        "/journal/article[last()]/section[1]/para[1]/ancestor::*",
        TAGLESS_PICK,
        "/journal/article//title",
        "/journal//section//para",
        "//article[.//para]/title",
        "//section[.//para]",
    ):
        out[xpath] = xpath
    return out


_SET_AT_A_TIME = "ROADMAP: Set-at-a-time document-order axes"
#: Local walks up from the context set; the ranged encodings still
#: test each candidate against each context.
_WALK_UP = "ROADMAP: The ancestor axes walk up once (the ranged half)"

#: ``(query, encoding) -> the ROADMAP item that makes it linear``.
SUPER_LINEAR = {
    **{
        (FOLLOWING, encoding): _SET_AT_A_TIME + " (a), (b)"
        for encoding in ALL_ENCODINGS
    },
    **{
        (PRECEDING, encoding): _SET_AT_A_TIME + " (a), (b)"
        for encoding in ALL_ENCODINGS
    },
    **{
        (query, encoding): _WALK_UP
        for query in (ANCESTORS, ANCESTORS_OR_SELF, ANCESTOR_PREDICATE)
        for encoding in ALL_ENCODINGS
        if encoding != "local"
    },
    (TAGLESS_PICK, "local"): (
        "CHANGES.md FOUND: a tagless pick on Local re-runs its subquery "
        "per child"
    ),
}


def exponent(nodes: list[int], rows: list[int]) -> float:
    fit = statistics.linear_regression(
        [math.log(n) for n in nodes], [math.log(max(r, 1)) for r in rows]
    )
    return fit.slope


@pytest.fixture(scope="module")
def exponents() -> dict[tuple[str, str], tuple[float, list[int]]]:
    """``(query name, encoding) -> (exponent, rows read per size)``."""
    documents = [sized_article_corpus(size) for size in SIZES]
    nodes = [document_stats(d)["nodes"] for d in documents]
    named = queries()
    rows: dict[tuple[str, str], list[int]] = {}
    for position, document in enumerate(documents):
        for encoding in ALL_ENCODINGS:
            store = XmlStore(backend="minidb", encoding=encoding,
                             cache=False)
            try:
                doc = store.load(document)
                stats = store.backend.db.stats
                for name, xpath in named.items():
                    cell = (name, encoding)
                    if cell in SUPER_LINEAR and position == 2:
                        continue
                    before = stats.rows_read
                    store.query(xpath, doc)
                    rows.setdefault(cell, []).append(
                        stats.rows_read - before
                    )
            finally:
                store.close()
    return {
        cell: (exponent(nodes[: len(counts)], counts), counts)
        for cell, counts in rows.items()
    }


def test_every_listed_cell_is_measured(exponents):
    assert set(SUPER_LINEAR) <= set(exponents)


def test_rows_read_grow_at_most_linearly(exponents):
    over = {
        cell: (round(slope, 2), counts)
        for cell, (slope, counts) in exponents.items()
        if slope > BOUND and cell not in SUPER_LINEAR
    }
    assert not over, f"exponent above {BOUND}: {over}"


def test_a_pick_reads_a_bounded_number_of_rows(exponents):
    over = {
        (xpath, encoding): exponents[(xpath, encoding)][1]
        for xpath in PICKS
        for encoding in ALL_ENCODINGS
        if max(exponents[(xpath, encoding)][1]) > PICK_BOUND
    }
    assert not over, f"more than {PICK_BOUND} rows read: {over}"


def test_a_driven_step_reads_a_bounded_number_of_rows(exponents):
    over = {
        (xpath, encoding): exponents[(xpath, encoding)][1]
        for xpath in DRIVEN
        for encoding in ALL_ENCODINGS
        if max(exponents[(xpath, encoding)][1]) > DRIVEN_BOUND
    }
    assert not over, f"more than {DRIVEN_BOUND} rows read: {over}"


def test_listed_cells_are_still_super_linear(exponents):
    """A listed cell that turned linear comes off the list."""
    linear = {
        cell: (round(exponents[cell][0], 2), item)
        for cell, item in SUPER_LINEAR.items()
        if exponents[cell][0] <= BOUND
    }
    assert not linear, f"now linear, remove from SUPER_LINEAR: {linear}"
