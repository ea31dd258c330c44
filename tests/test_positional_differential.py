"""Positional predicates against the oracle, on every backend × encoding.

A positional predicate compiles one of two ways: on the child axis, a
bound on the candidate's sibling order picked once per context node
(``ORDER BY … LIMIT … OFFSET``); everywhere else — ``//x[k]``, the
sibling axes, ``!=``, ``last() <op> k``, under ``not()`` — a count of
the preceding axis-mates.  Both must answer what XPath answers for
every operator and for positions that are fractional, zero or past the
end of the list, where rounding the wrong way (or an engine reading a
negative ``OFFSET`` as 0) returns the wrong siblings — and for one past
the 64-bit integers sqlite binds.

The document is ``sized_article_corpus(1114)``: about 30 articles in
one sibling list under ``journal``, and a few sections under each
article, so a pick runs for one context and for many.

The ranged axes (``following``, ``preceding``, ``ancestor``,
``ancestor-or-self``, ``descendant``, ``descendant-or-self``) count
their axis-mates through the axis table itself: :data:`RANGED_SHAPES`
pick along each from one context, with a short predicate list on a
small document.  Local refuses them, with a typed error per cell.
"""

import pytest

from repro.errors import TranslationError, UnsupportedXPathError
from repro.store import XmlStore
from repro.workload import sized_article_corpus
from tests.conftest import (
    ALL_ENCODINGS,
    BACKENDS,
    oracle_identities,
    store_identities,
)

DOCUMENT = sized_article_corpus(1114)
ARTICLES = len(DOCUMENT.root.children)

#: ``{p}`` is the predicate under test.
SHAPES = {
    "child": "/journal/article[{p}]",
    "child of many parents": "/journal/article/section[{p}]/title",
    "child of the document": "/*[{p}]",
    "//x[k]": "//section[{p}]",
    "following-sibling": "/journal/article[2]/following-sibling::article[{p}]",
    "preceding-sibling": "/journal/article[last()]/preceding-sibling::article[{p}]",
}

#: One context each, on :data:`SMALL`; ``{p}`` from
#: :data:`RANGED_PREDICATES`.
RANGED_SHAPES = {
    "following": "/journal/article[2]/following::section[{p}]",
    "preceding": "/journal/article[last()]/preceding::section[{p}]",
    "ancestor": "/journal/article[2]/section[1]/title/ancestor::*[{p}]",
    "ancestor-or-self":
        "/journal/article[2]/section[1]/title/ancestor-or-self::*[{p}]",
    "descendant": "/journal/article[2]/descendant::para[{p}]",
    "descendant-or-self": "/journal/article[2]/descendant-or-self::*[{p}]",
}
RANGED_PREDICATES = (
    "1", "2", "last()", "position() <= 2", "not(position() = 1)",
)
SMALL = sized_article_corpus(300)
#: ``shape -> the error Local raises for every predicate on it``: no
#: document-order comparison, and a walk down hides its context.
LOCAL_REFUSES = dict.fromkeys(RANGED_SHAPES, TranslationError)

OPS = ("=", "!=", "<", "<=", ">", ">=")
POSITIONS = ("0", "1", "2", "3", "1.5", "2.5", str(ARTICLES + 1),
             "100000000000000000000")


def predicates() -> list[str]:
    out = ["last()"]
    for k in POSITIONS:
        out.append(k)
        out.append(f"not(position() = {k})")
        out.extend(f"position() {op} {k}" for op in OPS)
        out.extend(f"last() {op} {k}" for op in OPS)
    return out


QUERIES = [
    shape.format(p=p) for shape in SHAPES.values() for p in predicates()
]


@pytest.fixture(scope="module")
def oracle() -> dict[str, list]:
    return {xpath: oracle_identities(DOCUMENT, xpath) for xpath in QUERIES}


def test_the_document_has_one_long_sibling_list():
    assert ARTICLES >= 25
    assert [c.tag for c in DOCUMENT.root.children] == ["article"] * ARTICLES


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_positional_predicate_matches_the_oracle(
    oracle, backend, encoding
):
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    try:
        doc = store.load(DOCUMENT)
        wrong = [
            xpath
            for xpath in QUERIES
            if store_identities(store, doc, xpath) != oracle[xpath]
        ]
    finally:
        store.close()
    assert not wrong, f"{len(wrong)} of {len(QUERIES)} differ: {wrong[:8]}"


def test_every_ranged_shape_picks_from_a_non_empty_axis():
    empty = [
        shape for shape, template in RANGED_SHAPES.items()
        if len(oracle_identities(SMALL, template.format(p="last()"))) != 1
        or len(oracle_identities(SMALL, template.format(p="2"))) != 1
    ]
    assert not empty


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_positions_on_the_ranged_axes_match_the_oracle(backend, encoding):
    """Each pick answers what the oracle answers, or raises the typed
    error its cell is listed with."""
    store = XmlStore(backend=backend, encoding=encoding, cache=False)
    outcomes = {}
    try:
        doc = store.load(SMALL)
        for shape, template in RANGED_SHAPES.items():
            for p in RANGED_PREDICATES:
                xpath = template.format(p=p)
                try:
                    answer = store_identities(store, doc, xpath)
                except (TranslationError, UnsupportedXPathError) as exc:
                    outcomes[(shape, p)] = type(exc).__name__
                    continue
                outcomes[(shape, p)] = (
                    "oracle"
                    if answer == oracle_identities(SMALL, xpath)
                    else "differs"
                )
    finally:
        store.close()
    expected = {
        (shape, p): (
            LOCAL_REFUSES[shape].__name__
            if encoding == "local" and shape in LOCAL_REFUSES
            else "oracle"
        )
        for shape in RANGED_SHAPES
        for p in RANGED_PREDICATES
    }
    assert outcomes == expected
