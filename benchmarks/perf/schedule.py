"""Seeded input generators shared by every workload.

Everything the program sees is generated here from ``--seed``: the
documents, the query literals, the operation order and the insert
positions.  Write positions are drawn against a :class:`DocModel` (child
counts and live inserted nodes tracked from the schedule itself), never
against a live store, so one schedule is replayed unchanged on every
encoding and its hash depends on the seed alone.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, deque
from itertools import accumulate
from typing import NamedTuple, Optional

from repro.core.shredder import shred
from repro.workload import article_corpus, make_fragment
from repro.xmldom import serialize
from repro.xmldom.dom import Document, Element

ENCODINGS = ("global", "local", "dewey")

#: Literal-varying forms of the paper's ordered suite: plans are shared
#: (shape-keyed) while ``(doc, xpath)`` result keys vary.
TEMPLATES = {
    "T1": "/journal/article[{k}]/title",
    "T2": "/journal/article/section[{s}]/para[1]",
    "T3": "/journal/article/section[position() <= {s}]/title",
    "T4": "/journal/article[{k}]/author[last()]",
    "T5": "/journal/article[{k}]/section[{s}]/following-sibling::section",
    "T6": "/journal/article[{k}]/section[{s}]"
          "/preceding-sibling::section/title",
    "T7": "/journal/article[{k}]/following::author",
    "T8": "/journal/article[{k}]/preceding::title",
    "T9": "//article[@id = 'a{k}']//para",
    "T10": "//article[@year >= {y}]/title",
    "T11": "//section[@no = '{s}'][para]/title",
}

#: Mix R (percent).  The 4 % of document-order axes put Local's p99
#: inside that band, not on its edge.
MIX_R = {
    "T1": 10, "T2": 10, "T3": 10, "T4": 10, "T5": 10, "T6": 10,
    "T7": 2, "T8": 2, "T9": 12, "T10": 12, "T11": 12,
}
#: Mix R' = Mix R without the document-order axes, renormalised.
MIX_R_PRIME = {t: w for t, w in MIX_R.items() if t not in ("T7", "T8")}

#: Write mix W (percent): p50 sits in the fragment-insert band and p99
#: in the subtree-insert band rather than on a class boundary.
MIX_W = {"fragment": 60, "subtree": 10, "delete": 30}

#: Zipf exponent of the hot set's popularity ranks.
HOT_SKEW = 0.8

SECTIONS = 4  # article_corpus default
YEARS = (1992, 2002)  # article_corpus draws @year from this range


class Op(NamedTuple):
    """One scheduled operation (fields unused by a kind stay ``None``)."""

    kind: str  # "read" | "scatter" | "insert" | "delete"
    doc: Optional[int]
    xpath: Optional[str] = None
    parent: Optional[int] = None
    index: Optional[int] = None
    fragment: Optional[Element] = None
    node: Optional[int] = None  # inserted root id (expected) / delete target
    nodes: int = 0  # nodes the write adds or removes
    detail: str = ""  # template id or write class

    def canonical(self) -> str:
        fragment = "" if self.fragment is None else serialize(self.fragment)
        return (
            f"{self.kind}|{self.doc}|{self.xpath}|{self.parent}|"
            f"{self.index}|{fragment}|{self.node}"
        )


def schedule_hash(slices: list[list[Op]]) -> str:
    """sha256 over the canonical text of every scheduled operation."""
    digest = hashlib.sha256()
    for ops in slices:
        for op in ops:
            digest.update(op.canonical().encode("utf-8"))
            digest.update(b"\n")
        digest.update(b"--\n")
    return digest.hexdigest()


def apportion(total: int, weights: dict[str, float]) -> dict[str, int]:
    """Split *total* by *weights* exactly (largest remainder).

    Exact shares, not sampled ones: a round's mix does not wander from
    seed to seed, only the literals and the order do.
    """
    scale = total / sum(weights.values())
    counts = {name: int(w * scale) for name, w in weights.items()}
    by_remainder = sorted(
        weights, key=lambda n: (-(weights[n] * scale - counts[n]), n)
    )
    for name in by_remainder[: total - sum(counts.values())]:
        counts[name] += 1
    return counts


def exact_mix(
    rng: random.Random, total: int, weights: dict[str, float]
) -> list[str]:
    """*total* names in seeded random order, in exact *weights* shares."""
    names = [
        name
        for name, count in apportion(total, weights).items()
        for _ in range(count)
    ]
    rng.shuffle(names)
    return names


def instantiate(rng: random.Random, template: str, articles: int) -> str:
    """Fill one template's literals."""
    return TEMPLATES[template].format(
        k=rng.randint(1, articles),
        s=rng.randint(1, SECTIONS),
        y=rng.randint(*YEARS),
    )


def corpus(seed: int, count: int, articles: int) -> list[Document]:
    return [
        article_corpus(articles=articles, seed=seed * 100 + i)
        for i in range(count)
    ]


def subtree_fragment(rng: random.Random) -> Element:
    """A ~25-node ``<article>`` subtree."""
    journal = article_corpus(
        articles=1, sections=2, paragraphs=4, seed=rng.randrange(1 << 30)
    ).children[0]
    article = journal.children[0]
    article.detach()
    return article


class DocModel:
    """What the schedule needs to know about one stored document.

    Surrogate ids are assigned in preorder at shred time and inserted
    fragments take ids from the catalogue's ``next_id``, identically on
    every encoding, so child counts, the next free id and the node
    count can all be tracked here.  Writes insert only under the
    document's original sections and under the root element, and delete
    only nodes the schedule inserted.
    """

    def __init__(self, document: Document) -> None:
        shredded = shred(document)
        self.root = shredded.nodes[0].id
        self.sections = [
            n.id for n in shredded.nodes if n.tag == "section"
        ]
        self.children = Counter(n.parent for n in shredded.nodes)
        self.nodes = shredded.node_count()
        self.next_id = self.nodes + 1


class WriteStream:
    """Draws mix-W writes against a set of document models."""

    def __init__(self, models: dict[int, DocModel]) -> None:
        self.models = models
        #: Inserted nodes still in their document, oldest first.
        self.live: deque[tuple[int, int, int, int]] = deque()

    def next(self, rng: random.Random, cls: str, docs: list[int]) -> Op:
        """One write of class *cls* aimed at one of *docs*."""
        if cls == "delete" and self.live:
            doc, node, parent, nodes = self.live.popleft()
            model = self.models[doc]
            model.children[parent] -= 1
            model.nodes -= nodes
            return Op("delete", doc, node=node, nodes=nodes, detail=cls)
        doc = rng.choice(docs)
        model = self.models[doc]
        if cls == "subtree":
            fragment = subtree_fragment(rng)
            parent = model.root
        else:  # "fragment", and a delete with nothing live to delete
            cls = "fragment"
            fragment = make_fragment("para", 2)
            parent = rng.choice(model.sections)
        index = rng.randint(0, model.children[parent])
        nodes = fragment.subtree_size() + 1
        node = model.next_id
        model.next_id += nodes
        model.nodes += nodes
        model.children[parent] += 1
        self.live.append((doc, node, parent, nodes))
        return Op(
            "insert", doc, parent=parent, index=index, fragment=fragment,
            node=node, nodes=nodes, detail=cls,
        )


def uniform_reads(
    rng: random.Random,
    count: int,
    mix: dict[str, float],
    docs: list[int],
    articles: int,
) -> list[Op]:
    """*count* reads in exact *mix* shares, uniform over *docs*."""
    return [
        Op("read", rng.choice(docs),
           xpath=instantiate(rng, template, articles), detail=template)
        for template in exact_mix(rng, count, mix)
    ]


class HotSet:
    """A fixed set of ``(doc, xpath)`` keys drawn Zipf-skewed."""

    def __init__(
        self,
        rng: random.Random,
        size: int,
        docs: list[int],
        articles: int,
    ) -> None:
        # Ranks cycle through the templates, so the share of the skewed
        # traffic each template gets is the same for every seed; only
        # the literals and documents behind a rank vary.
        counts = apportion(size, MIX_R_PRIME)
        templates = [
            t for i in range(max(counts.values()))
            for t in counts if counts[t] > i
        ]
        keys: dict[tuple[int, str], str] = {}
        while len(keys) < size:
            template = templates[len(keys)]
            key = (rng.choice(docs), instantiate(rng, template, articles))
            keys.setdefault(key, template)
        self.keys = [(doc, xpath, t) for (doc, xpath), t in keys.items()]
        self.cum_weights = list(
            accumulate(
                1.0 / (rank ** HOT_SKEW) for rank in range(1, size + 1)
            )
        )

    def reads(self, rng: random.Random, count: int) -> list[Op]:
        return [
            Op("read", doc, xpath=xpath, detail=template)
            for doc, xpath, template in rng.choices(
                self.keys, cum_weights=self.cum_weights, k=count
            )
        ]


def interleave(
    rng: random.Random, reads: list[Op], writes: int
) -> list[Optional[Op]]:
    """Seeded positions for the writes among the reads.

    Returns the read ops with ``None`` at each write position; the
    caller fills those in schedule order (a write's arguments depend on
    the writes before it).
    """
    slots: list[Optional[Op]] = list(reads) + [None] * writes
    rng.shuffle(slots)
    return slots
