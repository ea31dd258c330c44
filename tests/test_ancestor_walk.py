"""Ancestor axes against the oracle, on every backend × encoding.

On Local an ``ancestor`` / ``ancestor-or-self`` step from a node
context reads its candidates from one recursive table that walks up
from the whole context set, the way a descendant step walks down (see
``tests/test_descendant_walk.py``, whose document this reuses): its
nested sections put one chain of ancestors above several contexts, and
a ``para`` inside a ``para`` starts one walk inside another.  The other
encodings compare order columns.
"""

import pytest

from repro.errors import TranslationError
from repro.store import XmlStore
from repro.xpath import Evaluator
from repro.xpath.evaluator import AttributeNode
from tests.conftest import (
    ALL_ENCODINGS,
    BACKENDS,
    node_ids,
    oracle_identities,
    store_identities,
)
from tests.test_descendant_walk import DOCUMENT

QUERIES = {
    "many contexts": [
        "//para/ancestor::section",
        "//para/ancestor-or-self::*",
        "/doc/section/section/ancestor-or-self::section",
        "//section/ancestor::*",
    ],
    "a walk inside another": [
        "//note//para/ancestor::note",
        "//para//para/ancestor::para",
    ],
    "from text()": [
        "//para/text()/ancestor::section",
        "//title/text()/ancestor-or-self::*",
    ],
    "inside a predicate": [
        "//title[ancestor::section[@id = 's2']]",
        "//para[not(ancestor::note)]",
        "//para[ancestor-or-self::para[@k = '7']]",
        "//para[count(ancestor::section) = 2]",
    ],
    "a step after the walk": [
        "//para/ancestor::section//note",
        "//para/ancestor::section/title",
    ],
    "a union arm": [
        "//para/ancestor::note | //title",
    ],
    "an attribute of the walk": [
        "//para/ancestor::*/@id",
        "//b/ancestor-or-self::*/@k",
    ],
}

#: Relative paths, from the node of each ``id`` attribute.
RELATIVE = [
    "ancestor::*",
    "ancestor-or-self::section",
    "ancestor::section/title",
    "ancestor-or-self::*/@id",
    "title/ancestor::*[@id]",
]


def _cases() -> list[str]:
    return [xpath for group in QUERIES.values() for xpath in group]


def _relative_oracle() -> dict[tuple[str, str], list[tuple]]:
    ids = node_ids(DOCUMENT)
    evaluator = Evaluator(DOCUMENT)
    out = {}
    for owner in evaluator.evaluate("//*[@id]"):
        key = owner.attributes["id"]
        for xpath in RELATIVE:
            out[key, xpath] = [
                ("attribute", ids[id(n.owner)], n.name)
                if isinstance(n, AttributeNode)
                else ("node", ids[id(n)])
                for n in evaluator.evaluate(xpath, context=owner)
            ]
    return out


@pytest.fixture(scope="module")
def oracle() -> dict[str, list[tuple]]:
    return {xpath: oracle_identities(DOCUMENT, xpath) for xpath in _cases()}


def test_every_case_selects_something(oracle):
    assert all(oracle.values()), [x for x, ids in oracle.items() if not ids]


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_ancestor_axes_match_the_oracle(oracle, backend, encoding):
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    try:
        doc = store.load(DOCUMENT)
        got = {xpath: store_identities(store, doc, xpath) for xpath in _cases()}
    finally:
        store.close()
    wrong = {xpath: ids for xpath, ids in got.items() if ids != oracle[xpath]}
    assert not wrong, wrong


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_relative_paths_from_a_context_id_match_the_oracle(
    backend, encoding
):
    want = _relative_oracle()
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    try:
        doc = store.load(DOCUMENT)
        contexts = {
            item.value: item.node_id
            for item in store.query("//@id", doc)
        }
        got = {
            (key, xpath): [
                item.identity()
                for item in store.query(xpath, doc, context_id=owner)
            ]
            for key, owner in contexts.items()
            for xpath in RELATIVE
        }
    finally:
        store.close()
    assert got == want


def test_local_reads_each_ancestor_step_from_one_walk_up():
    """No climb per candidate: an ancestor step is a derived recursive
    table whose anchor is the path so far."""
    store = XmlStore(backend="sqlite", encoding="local")
    doc = store.load(DOCUMENT)
    for xpath in ("//para/ancestor::section", "//b/ancestor-or-self::*"):
        sql = store.translate(xpath, doc).sql
        assert sql.count("FROM (WITH RECURSIVE") == 1, xpath
        assert "EXISTS" not in sql, xpath


@pytest.mark.parametrize("backend", BACKENDS)
def test_local_does_not_count_positions_along_an_ancestor_axis(backend):
    """The walk hides the context from the step's own predicates, and
    only ``last() <op> k`` counted along the axis needs it: Local
    refuses it, as it refuses every other position on these axes."""
    store = XmlStore(backend=backend, encoding="local")
    doc = store.load(DOCUMENT)
    for xpath in (
        "//para/ancestor::*[last() = 2]",
        "//para/ancestor-or-self::*[last() > 1]",
        "//para/ancestor::section[2]",
    ):
        with pytest.raises(TranslationError):
            store.query(xpath, doc)
