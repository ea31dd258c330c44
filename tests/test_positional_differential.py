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
"""

import pytest

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
