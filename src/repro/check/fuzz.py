"""Differential fuzzing: random update streams, cross-checked oracles.

One fuzz *cell* is a ``(document seed, gap)`` pair.  For every cell the
fuzzer builds one store per requested ``(backend, encoding)`` pair, loads
the same :func:`repro.workload.docgen.random_document` into each, then
applies an identical seeded stream of update operations through
:class:`repro.core.updates.UpdateManager` — inserts of element and bare
text fragments (as strings, exercising the fragment parser), subtree
deletions, ``set_text``, ``rename``, and ``set_attribute``.

After every ``check_every`` operations each store must simultaneously:

* pass the full invariant audit (:mod:`repro.check.invariants`);
* reconstruct to a document that serialises and re-parses back to an
  equal tree (the round-trip oracle the XRecursive and DOM-mapping
  papers validate their mappings with);
* answer a batch of random XPath queries exactly like the native
  :class:`repro.xpath.Evaluator` run over the reconstructed tree;
* reconstruct to a tree structurally equal to every other
  encoding/backend store in the cell, with matching per-op insert and
  delete counts.

Failures are *minimized*: the reported operation index is the shortest
prefix of the stream that still fails (re-derived with per-op checking
when the original run checked more coarsely), and every failure carries
a ``repro`` command line that replays exactly that cell.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.check.invariants import (
    audit_document,
    audit_store,
    fetch_rows,
    summarize_violations,
)
from repro.core.reconstruct import reconstruct_document_with_ids
from repro.errors import TranslationError, UnsupportedXPathError
from repro.migrate import migrate_document
from repro.store import XmlStore
from repro.workload.docgen import random_document
from repro.xmldom import parse, serialize
from repro.xmldom.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.xpath import AttributeNode, Evaluator

#: Alphabets shared with :func:`repro.workload.docgen.random_document`
#: so fuzz queries regularly match something.
_TAGS = ("a", "b", "c", "d")
_ATTRS = ("id", "x", "y")

DEFAULT_ENCODINGS = ("global", "local", "dewey", "ordpath")
DEFAULT_BACKENDS = ("sqlite", "minidb")


# -- configuration and results ------------------------------------------


@dataclass
class FuzzConfig:
    """Parameters of one fuzz run."""

    #: Number of random documents (seeds ``base_seed .. base_seed+n-1``).
    seeds: int = 5
    #: Update operations applied per cell.
    ops: int = 25
    encodings: Sequence[str] = DEFAULT_ENCODINGS
    backends: Sequence[str] = ("sqlite",)
    gaps: Sequence[int] = (1,)
    base_seed: int = 0
    #: Oracle queries evaluated per store per check round.
    queries_per_check: int = 5
    #: Run the full check battery every N operations (1 = after each).
    check_every: int = 1
    #: Shape of the generated documents.
    max_depth: int = 4
    max_children: int = 3
    #: Differential cache checking: pair every store with a
    #: ``cache=False`` twin, each holding
    #: :data:`TWIN_DOCUMENTS` documents; spread the update stream
    #: across them, and after *every* operation run a fixed per-cell
    #: pool of cache-warming queries against every document, requiring
    #: byte-identical results from both stores.  The fixed pool is
    #: what makes the warming real: the same plan/result keys recur
    #: across updates, so every invalidation path is hit — and the
    #: unwritten documents are what catch an invalidation that lands
    #: on the wrong document.
    cache_twin: bool = False
    #: Differential index checking: pair every store (indexed after
    #: load, the index maintained through every update) with a twin
    #: that is never indexed, bias the fixed per-cell query
    #: pool toward indexable shapes (absolute paths, ``//`` descents,
    #: child-value predicates) so the value/path rewrites actually
    #: fire, and require byte-identical results after every check
    #: round — the planner may only change access paths, never answers.
    index_twin: bool = False
    #: Update-heavy round mix: bias the op stream toward structural
    #: churn (subtree inserts, deletes, text rewrites) and away from
    #: attribute tweaks — the mix that exercises incremental index
    #: maintenance's touched-set repair and its fallback path hardest.
    update_heavy: bool = False
    #: Live-migration mode: while the seeded update/query stream runs,
    #: a background thread migrates the document to the next encoding.
    #: Every query must match a non-migrating twin byte for byte,
    #: wherever the scheduler puts the migration's one transaction in
    #: the stream.  Requires the shared-connection ``sqlite``
    #: backend, whose lock serializes whole transactions across
    #: threads.
    migrate_during: bool = False

    def cells(self) -> list[tuple[int, int]]:
        return [
            (self.base_seed + i, gap)
            for i in range(self.seeds)
            for gap in self.gaps
        ]


@dataclass(frozen=True)
class FuzzFailure:
    """One minimized fuzz failure."""

    seed: int
    gap: int
    backend: str
    encoding: str
    #: 1-based index of the last applied operation (minimal failing
    #: prefix: the same cell passed every check through op_index - 1).
    op_index: int
    #: Human-readable description of that operation.
    op: str
    #: invariant | oracle | roundtrip | cross-store | cost-mismatch |
    #: cache-twin | index-twin | crash
    kind: str
    detail: str
    #: The cell ran the update-heavy op mix (changes the op stream, so
    #: the repro command must carry it).
    update_heavy: bool = False

    def repro_command(self) -> str:
        """A CLI line that replays exactly this cell, checking every op."""
        flags = ""
        if self.kind == "cache-twin":
            flags += " --cache-twin"
        if self.kind == "index-twin":
            flags += " --index-twin"
        if self.update_heavy:
            flags += " --update-heavy"
        encoding = self.encoding
        if "->" in encoding:  # migrate-during cells record source->target
            flags += " --migrate-during"
            encoding = encoding.split("->", 1)[0]
        return (
            f"repro fuzz --seeds 1 --base-seed {self.seed} "
            f"--ops {self.op_index} --gaps {self.gap} "
            f"--encodings {encoding} --backends {self.backend} "
            f"--check-every 1" + flags
        )

    def __str__(self) -> str:
        return (
            f"{self.kind} failure in {self.encoding}/{self.backend} "
            f"(seed {self.seed}, gap {self.gap}) after op "
            f"#{self.op_index} [{self.op}]: {self.detail}\n"
            f"  reproduce: {self.repro_command()}"
        )


@dataclass
class FuzzReport:
    """Aggregate result of a fuzz run."""

    cells: int = 0
    operations: int = 0
    checks: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    #: ``index_twin`` runs only: twin queries the indexed store answered
    #: through an index, per access path.  The vacuity guard — a twin
    #: that compares scan with scan proves nothing.
    index_plans: Optional[Counter] = None

    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok() else f"{len(self.failures)} FAILURE(S)"
        plans = ""
        if self.index_plans is not None:
            plans = ", index plans: " + " ".join(
                f"{path}={self.index_plans[path]}"
                for path in ("path-index", "value-index")
            )
        return (
            f"fuzz: {self.cells} cell(s), {self.operations} operation(s), "
            f"{self.checks} store-check(s){plans}: {status}"
        )


# -- random operation / query generation --------------------------------


def _random_fragment(rng: random.Random) -> str:
    """An insertable XML fragment string (sometimes nested)."""
    tag = rng.choice(_TAGS)
    roll = rng.random()
    if roll < 0.35:
        return f"<{tag}/>"
    if roll < 0.7:
        attr = rng.choice(_ATTRS)
        return (
            f'<{tag} {attr}="{rng.randint(0, 9)}">'
            f"{rng.randint(0, 99)}</{tag}>"
        )
    inner = rng.choice(_TAGS)
    return (
        f"<{tag}><{inner}>{rng.randint(0, 99)}</{inner}>"
        f"<{inner}/></{tag}>"
    )


def random_xpath(rng: random.Random) -> str:
    """A random query in the translatable fragment (small alphabets)."""
    steps = []
    n_steps = rng.randint(1, 3)
    for position in range(n_steps):
        final = position == n_steps - 1
        if final and rng.random() < 0.15:
            steps.append(f"@{rng.choice((*_ATTRS, '*'))}")
            break
        axis = rng.choices(
            (
                "", "descendant::", "following-sibling::",
                "preceding-sibling::", "following::", "preceding::",
                "parent::", "ancestor::", "self::",
            ),
            weights=(10, 3, 2, 2, 1, 1, 1, 1, 1),
        )[0]
        if axis in ("parent::", "ancestor::"):
            test = rng.choice((*_TAGS, "*"))
        else:
            test = rng.choices(
                (*_TAGS, "*", "text()", "node()"),
                weights=(4, 4, 4, 4, 2, 1, 1),
            )[0]
        predicate = ""
        if test not in ("text()", "node()") and rng.random() < 0.4:
            predicate = f"[{_random_predicate(rng)}]"
        steps.append(f"{axis}{test}{predicate}")
    lead = rng.choice(("/", "//"))
    return lead + "/".join(steps)


def _random_predicate(rng: random.Random) -> str:
    kind = rng.randint(0, 6)
    if kind == 0:
        return str(rng.randint(1, 4))
    if kind == 1:
        return "last()"
    if kind == 2:
        op = rng.choice(("<=", "<", ">=", ">", "=", "!="))
        return f"position() {op} {rng.randint(1, 4)}"
    if kind == 3:
        return rng.choice((*_TAGS, "@" + rng.choice(_ATTRS)))
    if kind == 4:
        op = rng.choice(("=", "!=", "<", ">"))
        return f"@{rng.choice(_ATTRS)} {op} {rng.randint(0, 9)}"
    if kind == 5:
        op = rng.choice(("=", "!=", "<", ">"))
        return f"text() {op} {rng.randint(0, 99)}"
    # Numeric comparison over child values: with docgen and the insert
    # pool both emitting non-numeric text ("t11"-style), these
    # predicates keep hitting the CAST-vs-NaN divergence the
    # xpath_number scalar fixed — NaN compares false except for !=.
    # The bare-element form compares the *string-value* (concatenated
    # descendant text), which the update stream regularly turns into
    # mixed content — the exact shape the first-text-child shortcut
    # used to get wrong, so the pool leans on it.
    op = rng.choice(("<=", "<", ">=", ">", "=", "!="))
    if rng.random() < 0.6:
        return f"{rng.choice(_TAGS)} {op} {rng.randint(0, 99)}"
    return f"{rng.choice(_TAGS)}/text() {op} {rng.randint(0, 99)}"


def indexable_xpath(rng: random.Random) -> str:
    """A query shape the secondary indexes can serve.

    Absolute child/descendant name paths compile to the path-index
    arm and single child-element value predicates to the value-index
    ``EXISTS`` on every indexed document, whatever its size — the
    rewrite must never change the answer.
    """
    tag, other = rng.choice(_TAGS), rng.choice(_TAGS)
    kind = rng.randint(0, 4)
    if kind == 0:
        return f"//{tag}"
    if kind == 1:
        return f"//{tag}//{other}"
    if kind == 2:
        return f"/{tag}/{other}"
    op = rng.choice(("=", "!=", "<", ">"))
    if kind == 3:
        return f"//{tag}[{other} {op} {rng.randint(0, 99)}]"
    return f"/{tag}//{other}[{rng.choice(_TAGS)} {op} {rng.randint(0, 99)}]"


def plan_operation(
    rng: random.Random,
    reference: XmlStore,
    doc: int,
    update_heavy: bool = False,
) -> dict:
    """Decide the next operation from the reference store's structure.

    The plan is expressed in surrogate ids, which are assigned
    identically by every store in the cell, so one plan applies to all.
    (Also reused by :mod:`repro.robust.crashtest`, which replays the
    same seeded streams under injected crashes.)  *update_heavy* biases
    the mix toward structural churn (see
    :attr:`FuzzConfig.update_heavy`).
    """
    # The document's own encoding: it may have migrated off the
    # store's default.
    rows = fetch_rows(reference, doc, reference.encoding_for(doc))
    elements = sorted(r["id"] for r in rows if r["kind"] == "elem")
    deletable = sorted(r["id"] for r in rows if r["parent"] != 0)

    if update_heavy:
        choices = ["insert_elem", "insert_elem", "insert_elem",
                   "insert_elem", "insert_text", "insert_text",
                   "set_text", "set_text", "set_text", "rename"]
        if deletable:
            choices += ["delete", "delete", "delete", "delete"]
    else:
        choices = ["insert_elem", "insert_elem", "insert_elem",
                   "insert_text", "insert_text", "set_text", "rename",
                   "set_attr"]
        if deletable:
            choices += ["delete", "delete"]
    kind = rng.choice(choices)

    if kind == "delete":
        target = rng.choice(deletable)
        return {"kind": kind, "target": target,
                "describe": f"delete node {target}"}
    parent = rng.choice(elements)
    if kind in ("insert_elem", "insert_text"):
        n_children = len(reference.fetch_children(doc, parent))
        index = rng.randint(0, n_children)
        fragment = (
            _random_fragment(rng)
            if kind == "insert_elem"
            else f"t{rng.randint(0, 99)} "
        )
        return {
            "kind": "insert", "parent": parent, "index": index,
            "fragment": fragment,
            "describe": (f"insert {fragment!r} at index {index} "
                         f"under node {parent}"),
        }
    if kind == "set_text":
        text = f"s{rng.randint(0, 99)}"
        return {"kind": kind, "target": parent, "text": text,
                "describe": f"set_text({parent}, {text!r})"}
    if kind == "rename":
        tag = rng.choice(_TAGS)
        return {"kind": kind, "target": parent, "tag": tag,
                "describe": f"rename({parent}, {tag!r})"}
    name = rng.choice(_ATTRS)
    value = None if rng.random() < 0.25 else str(rng.randint(0, 9))
    return {"kind": "set_attr", "target": parent, "name": name,
            "value": value,
            "describe": f"set_attribute({parent}, {name!r}, {value!r})"}


def apply_operation(store: XmlStore, doc: int, op: dict):
    kind = op["kind"]
    if kind == "insert":
        return store.updates.insert(
            doc, op["parent"], op["index"], op["fragment"]
        )
    if kind == "delete":
        return store.updates.delete(doc, op["target"])
    if kind == "set_text":
        return store.updates.set_text(doc, op["target"], op["text"])
    if kind == "rename":
        return store.updates.rename(doc, op["target"], op["tag"])
    return store.updates.set_attribute(
        doc, op["target"], op["name"], op["value"]
    )


# -- oracles -------------------------------------------------------------


def _normalized_copy(node: Node) -> Node:
    """Deep copy with adjacent text siblings merged (and empty text
    dropped) — the shape any serialize/parse round trip produces."""
    if isinstance(node, Text):
        return Text(node.content)
    if isinstance(node, Comment):
        return Comment(node.content)
    if isinstance(node, ProcessingInstruction):
        return ProcessingInstruction(node.target, node.data)
    copy: Document | Element
    if isinstance(node, Document):
        copy = Document()
    else:
        assert isinstance(node, Element)
        copy = Element(node.tag, dict(node.attributes))
    for child in node.children:
        child_copy = _normalized_copy(child)
        if isinstance(child_copy, Text):
            if not child_copy.content:
                continue
            last = copy.children[-1] if copy.children else None
            if isinstance(last, Text):
                last.content += child_copy.content
                continue
        copy.append(child_copy)
    return copy


def _oracle_identities(
    document: Document, id_map: dict[int, int], xpath: str
) -> list[tuple]:
    out = []
    for node in Evaluator(document).evaluate(xpath):
        if isinstance(node, AttributeNode):
            out.append(
                ("attribute", id_map.get(id(node.owner), 0), node.name)
            )
        else:
            out.append(("node", id_map.get(id(node), 0)))
    return out


def _check_store(
    store: XmlStore,
    doc: int,
    queries: list[str],
    reference_tree: Optional[Document],
) -> tuple[Optional[tuple[str, str]], Optional[Document]]:
    """Run the full check battery over one store.

    Returns ``((kind, detail), tree)``; ``kind`` is None when clean.
    The reconstructed tree is returned so the first store of a cell can
    serve as the cross-store reference.
    """
    listing = summarize_violations(audit_document(store, doc))
    if listing is not None:
        return ("invariant", listing), None

    tree, id_map = reconstruct_document_with_ids(store, doc)

    normalized = _normalized_copy(tree)
    reparsed = parse(serialize(tree))
    if not reparsed.structurally_equal(normalized):
        return (
            "roundtrip",
            "serialize/parse round trip changed the reconstructed tree",
        ), tree

    for xpath in queries:
        try:
            got = [item.identity() for item in store.query(xpath, doc)]
        except (TranslationError, UnsupportedXPathError):
            continue  # outside this encoding's translatable fragment
        want = _oracle_identities(tree, id_map, xpath)
        if got != want:
            return (
                "oracle",
                f"query {xpath!r}: store returned {got}, "
                f"native evaluator returned {want}",
            ), tree

    if reference_tree is not None and not tree.structurally_equal(
        reference_tree
    ):
        return (
            "cross-store",
            "reconstructed tree differs from the cell's reference store",
        ), tree
    return None, tree


def _twin_mismatch(
    store: XmlStore, doc: int,
    twin: XmlStore, twin_doc: int,
    queries: list[str],
    store_label: str,
    twin_label: str,
    index_plans: Optional[Counter] = None,
) -> Optional[str]:
    """Compare a store against its feature-off twin.

    Each query runs twice on the primary store — the first pass may
    fill the plan/result caches, the second must serve from them — and
    both passes must match the twin byte for byte (kind, id, label,
    and value, not just identity).  *index_plans* (the index twin's
    :attr:`FuzzReport.index_plans`) counts the compared queries whose
    plan on the primary store probes an index.
    """
    for xpath in queries:
        try:
            want = [
                (i.kind, i.node_id, i.label, i.value)
                for i in twin.query(xpath, twin_doc)
            ]
        except (TranslationError, UnsupportedXPathError):
            continue
        if index_plans is not None:
            access = store.translate(xpath, doc).access_path
            if access != "scan":
                index_plans.update(access.split("+"))
        for attempt in ("cold", "cached"):
            got = [
                (i.kind, i.node_id, i.label, i.value)
                for i in store.query(xpath, doc)
            ]
            if got != want:
                return (
                    f"query {xpath!r} ({attempt} pass): {store_label} "
                    f"returned {got}, {twin_label} returned {want}"
                )
    return None


# -- the driver ---------------------------------------------------------


#: Documents per store in a ``--cache-twin`` cell.  Invalidation is
#: per document, so a store holding one document cannot tell a commit
#: that invalidated the document it wrote from one that invalidated
#: the wrong one, or everything; several documents can.
TWIN_DOCUMENTS = 3


def _run_cell(
    config: FuzzConfig,
    seed: int,
    gap: int,
    max_ops: int,
    check_every: int,
    report: FuzzReport,
) -> Optional[FuzzFailure]:
    """Fuzz one (seed, gap) cell; returns its first failure, if any."""
    documents = [
        random_document(
            seed if n == 0 else seed * 1009 + n,
            max_depth=config.max_depth,
            max_children=config.max_children,
        )
        for n in range(TWIN_DOCUMENTS if config.cache_twin else 1)
    ]
    twin_mode = config.cache_twin or config.index_twin
    # Stores and their twins load the same documents in the same
    # order, so a slot's doc id is the same in every one of them.
    stores: list[tuple[str, str, XmlStore, list[int]]] = []
    twins: list[Optional[tuple[XmlStore, list[int]]]] = []
    for backend in config.backends:
        for encoding in config.encodings:
            store = XmlStore(backend=backend, encoding=encoding, gap=gap)
            docs = [store.load(document) for document in documents]
            if config.index_twin:
                # The primary is indexed after load and maintained
                # through every update op; the twin never is.
                for doc in docs:
                    store.indexes.create(doc)
            stores.append((backend, encoding, store, docs))
            if twin_mode:
                twin = XmlStore(
                    backend=backend, encoding=encoding, gap=gap,
                    cache=not config.cache_twin,
                )
                twins.append(
                    (twin, [twin.load(document) for document in documents])
                )
            else:
                twins.append(None)

    # The twin query pool is fixed for the whole cell so the same
    # plan/result keys recur before and after every update; index twins
    # lean the pool toward shapes the index rewrites can serve.
    warm_queries: list[str] = []
    if twin_mode:
        wrng = random.Random(seed * 424243 + gap * 31)
        pool = max(4, config.queries_per_check)
        if config.index_twin:
            pool += pool // 2  # room for the indexable extras
        for n in range(pool):
            if config.index_twin and n % 2 == 0:
                warm_queries.append(indexable_xpath(wrng))
            else:
                warm_queries.append(random_xpath(wrng))

    rng = random.Random(seed * 7919 + gap)
    reference = stores[0]

    def failed(backend: str, encoding: str, op_index: int,
               op_describe: str, kind: str, detail: str) -> FuzzFailure:
        return FuzzFailure(
            seed=seed, gap=gap, backend=backend, encoding=encoding,
            op_index=op_index, op=op_describe, kind=kind, detail=detail,
            update_heavy=config.update_heavy,
        )

    def twin_round(op_index: int, op_describe: str
                   ) -> Optional[FuzzFailure]:
        """Diff the warm pool against the twin, for *every* document:
        the one the last operation wrote must have been invalidated,
        and the others must still answer correctly from their caches."""
        if config.cache_twin:
            kind = "cache-twin"
            labels = ("caching store", "cache=False twin")
        else:
            kind = "index-twin"
            labels = ("indexed store", "unindexed twin")
        for (backend, encoding, store, docs), twin_entry in zip(
            stores, twins
        ):
            if twin_entry is None:
                continue
            twin, twin_docs = twin_entry
            for doc, twin_doc in zip(docs, twin_docs):
                detail = _twin_mismatch(
                    store, doc, twin, twin_doc, warm_queries, *labels,
                    index_plans=report.index_plans,
                )
                if detail is not None:
                    if len(docs) > 1:
                        detail = f"document {doc}: {detail}"
                    return failed(backend, encoding, op_index,
                                  op_describe, kind, detail)
        return None

    def check_round(op_index: int, op_describe: str
                    ) -> Optional[FuzzFailure]:
        qrng = random.Random(seed * 1_000_003 + op_index)
        queries = [
            random_xpath(qrng) for _ in range(config.queries_per_check)
        ]
        reference_trees: list[Optional[Document]] = [None] * len(documents)
        for backend, encoding, store, docs in stores:
            report.checks += 1
            for slot, doc in enumerate(docs):
                problem, tree = _check_store(
                    store, doc, queries, reference_trees[slot]
                )
                if problem is not None:
                    return failed(backend, encoding, op_index,
                                  op_describe, *problem)
                if reference_trees[slot] is None:
                    reference_trees[slot] = tree
        return twin_round(op_index, op_describe)

    last_describe = "initial load"
    failure = check_round(0, last_describe)
    if failure is not None:
        return failure

    for op_index in range(1, max_ops + 1):
        # Spread the operations across the cell's documents.
        slot = rng.randrange(len(documents)) if len(documents) > 1 else 0
        op = plan_operation(
            rng, reference[2], reference[3][slot],
            update_heavy=config.update_heavy,
        )
        last_describe = op["describe"]
        costs: list[tuple[int, int]] = []
        for (backend, encoding, store, docs), twin_entry in zip(
            stores, twins
        ):
            try:
                result = apply_operation(store, docs[slot], op)
                if twin_entry is not None:
                    apply_operation(
                        twin_entry[0], twin_entry[1][slot], op
                    )
            except Exception as exc:
                return failed(backend, encoding, op_index, last_describe,
                              "crash", f"{type(exc).__name__}: {exc}")
            costs.append((result.inserted, result.deleted))
        report.operations += 1
        if len(set(costs)) > 1:
            backend, encoding = stores[-1][0], stores[-1][1]
            return failed(
                backend, encoding, op_index, last_describe,
                "cost-mismatch",
                "insert/delete counts diverge across stores: "
                + ", ".join(
                    f"{b}/{e}={c}"
                    for (b, e, _s, _d), c in zip(stores, costs)
                ),
            )
        failure = None
        if op_index % check_every == 0 or op_index == max_ops:
            failure = check_round(op_index, last_describe)
        elif config.cache_twin:
            # A per-document invalidation bug shows between check
            # rounds too: diff every document after every operation.
            failure = twin_round(op_index, last_describe)
        if failure is not None:
            return failure
    return None


# -- live-migration mode ------------------------------------------------


def migration_target(encoding: str) -> str:
    """The encoding a ``--migrate-during`` cell migrates to: the next
    one in the canonical cycle, so sweeping the default encodings
    exercises four distinct source->target conversions."""
    cycle = DEFAULT_ENCODINGS
    if encoding not in cycle:
        return cycle[0]
    return cycle[(cycle.index(encoding) + 1) % len(cycle)]


def _identities(store: XmlStore, doc: int, xpath: str) -> list[tuple]:
    return [
        (item.kind, item.node_id, item.label, item.value)
        for item in store.query(xpath, doc)
    ]


def _run_migrate_pair(
    config: FuzzConfig,
    seed: int,
    gap: int,
    backend: str,
    encoding: str,
    document: Document,
    report: FuzzReport,
) -> Optional[FuzzFailure]:
    """One migrate-during cell: fuzz a store while it re-encodes.

    The store starts on *encoding* and a background thread migrates it
    to :func:`migration_target`: one transaction, an atomic step
    wherever the scheduler puts it in the op stream.  A twin store
    stays on the source encoding and receives the identical op stream;
    every translatable query must answer identically on both —
    surrogate ids are preserved by the migration, so the comparison is
    byte-for-byte on (kind, id, label, value).  Invariant audits run
    after the migration joins.
    """
    target = migration_target(encoding)
    pair = f"{encoding}->{target}"
    store = XmlStore(backend=backend, encoding=encoding, gap=gap)
    twin = XmlStore(backend=backend, encoding=encoding, gap=gap)
    doc = store.load(document)
    twin_doc = twin.load(document)

    def failure(op_index: int, op: str, kind: str, detail: str
                ) -> FuzzFailure:
        return FuzzFailure(
            seed=seed, gap=gap, backend=backend, encoding=pair,
            op_index=op_index, op=op, kind=kind, detail=detail,
            update_heavy=config.update_heavy,
        )

    migration_error: list[BaseException] = []

    def run_migration() -> None:
        try:
            migrate_document(store, doc, target)
        except BaseException as exc:  # reported after join
            migration_error.append(exc)

    thread = threading.Thread(
        target=run_migration, name="repro-fuzz-migrate", daemon=True
    )
    rng = random.Random(seed * 7919 + gap)
    last_describe = "initial load"
    thread.start()
    try:
        for op_index in range(1, config.ops + 1):
            # Plan from the twin: its encoding is stable, so the
            # surrogate-id plan is identical for both stores.
            op = plan_operation(
                rng, twin, twin_doc, update_heavy=config.update_heavy
            )
            last_describe = op["describe"]
            try:
                result = apply_operation(store, doc, op)
            except Exception as exc:
                return failure(
                    op_index, last_describe, "crash",
                    f"{type(exc).__name__}: {exc}",
                )
            twin_result = apply_operation(twin, twin_doc, op)
            report.operations += 1
            if (result.inserted, result.deleted) != (
                twin_result.inserted, twin_result.deleted
            ):
                return failure(
                    op_index, last_describe, "cost-mismatch",
                    f"migrating store {result.inserted}/{result.deleted}"
                    f" inserted/deleted, twin {twin_result.inserted}/"
                    f"{twin_result.deleted}",
                )
            if op_index % config.check_every and op_index != config.ops:
                continue
            qrng = random.Random(seed * 1_000_003 + op_index)
            for _ in range(config.queries_per_check):
                xpath = random_xpath(qrng)
                report.checks += 1
                try:
                    want = _identities(twin, twin_doc, xpath)
                except (TranslationError, UnsupportedXPathError):
                    continue
                try:
                    got = _identities(store, doc, xpath)
                except (TranslationError, UnsupportedXPathError):
                    # The target encoding translates a different
                    # fragment; nothing to compare.
                    continue
                if got != want:
                    return failure(
                        op_index, last_describe, "migrate-twin",
                        f"query {xpath!r}: migrating store returned "
                        f"{got}, twin returned {want}",
                    )
    finally:
        thread.join(timeout=60.0)

    if thread.is_alive():
        return failure(
            config.ops, last_describe, "migrate",
            "migration thread still running 60s after the op stream",
        )
    if migration_error:
        exc = migration_error[0]
        return failure(
            config.ops, last_describe, "migrate",
            f"migration raised {type(exc).__name__}: {exc}",
        )
    final = store.encoding_for(doc).name
    if final != target:
        return failure(
            config.ops, last_describe, "migrate",
            f"document ended on {final!r}, expected {target!r}",
        )

    listing = summarize_violations(audit_store(store))
    if listing is not None:
        return failure(config.ops, last_describe, "invariant", listing)

    # Post-migration battery: audit + round trip on both stores (empty
    # query list — the mid-stream rounds already compared every query
    # against the twin, which is this mode's oracle), cross-store
    # structural equality, and a final fresh pool compared byte for
    # byte against the twin.
    report.checks += 2
    problem, tree = _check_store(store, doc, [], None)
    if problem is not None:
        return failure(config.ops, last_describe, *problem)
    twin_problem, twin_tree = _check_store(twin, twin_doc, [], tree)
    if twin_problem is not None:
        return failure(config.ops, last_describe, *twin_problem)
    if serialize(tree) != serialize(twin_tree):
        return failure(
            config.ops, last_describe, "migrate-twin",
            "post-migration serialization differs from the twin's",
        )
    qrng = random.Random(seed * 2_000_003 + gap)
    for _ in range(config.queries_per_check):
        xpath = random_xpath(qrng)
        report.checks += 1
        try:
            want = _identities(twin, twin_doc, xpath)
            got = _identities(store, doc, xpath)
        except (TranslationError, UnsupportedXPathError):
            continue
        if got != want:
            return failure(
                config.ops, last_describe, "migrate-twin",
                f"post-migration query {xpath!r}: migrated store "
                f"returned {got}, twin returned {want}",
            )
    return None


def _run_migrate_cell(
    config: FuzzConfig, seed: int, gap: int, report: FuzzReport
) -> Optional[FuzzFailure]:
    document = random_document(
        seed, max_depth=config.max_depth,
        max_children=config.max_children,
    )
    for backend in config.backends:
        for encoding in config.encodings:
            failure = _run_migrate_pair(
                config, seed, gap, backend, encoding, document, report
            )
            if failure is not None:
                return failure
    return None


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the differential fuzzer; failures come back minimized."""
    report = FuzzReport(
        index_plans=Counter() if config.index_twin else None
    )
    if config.migrate_during:
        unsupported = [b for b in config.backends if b != "sqlite"]
        if unsupported:
            raise ValueError(
                "--migrate-during needs the shared-connection sqlite "
                "backend (whole transactions serialize across threads); "
                f"got {unsupported}"
            )
        for seed, gap in config.cells():
            report.cells += 1
            failure = _run_migrate_cell(config, seed, gap, report)
            if failure is not None:
                # Timing-dependent: no prefix minimization.
                report.failures.append(failure)
        return report
    for seed, gap in config.cells():
        report.cells += 1
        failure = _run_cell(
            config, seed, gap, config.ops, config.check_every, report
        )
        if failure is None:
            continue
        if config.check_every > 1 and failure.kind != "crash":
            # The coarse run only brackets the failing prefix; replay
            # the cell checking after every op to pin the exact index.
            minimized = _run_cell(
                config, seed, gap, failure.op_index, 1, FuzzReport()
            )
            if minimized is not None:
                failure = minimized
        report.failures.append(failure)
    return report
