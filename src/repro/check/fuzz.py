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

A *twin mode* pairs every store with a twin that receives the same
operations but lacks one feature, and requires both to answer a fixed
per-cell query pool byte for byte (fixed, so the same plan and result
keys recur across updates and every invalidation path is hit): the
cache twin never caches, the index twin is never indexed, and the
migrate twin stays on its encoding while the store migrates on a
background thread (``migrate_during``).  All three run the checks
above as well, in the same cell loop.

Failures are *minimized*: the reported operation index is the shortest
prefix of the stream that still fails (re-derived with per-op checking
when the original run checked more coarsely), and every failure carries
a ``repro`` command line that replays exactly that cell.  A migrating
cell's failure depends on when the migration commits, so it is not
minimized.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from contextlib import nullcontext
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
from repro.obs import METRICS, counting
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
    #: The cache twin: a ``cache=False`` twin, :data:`TWIN_DOCUMENTS`
    #: documents per store with the update stream spread across them,
    #: and the pool diffed on every document after *every* operation:
    #: the unwritten documents catch an invalidation that lands on the
    #: wrong document.
    cache_twin: bool = False
    #: The index twin: the store is indexed after load and the twin
    #: never is; the pool leans toward indexable shapes so the
    #: rewrites fire, and an update that rebuilds the index instead of
    #: repairing the rows it changed fails the cell.
    index_twin: bool = False
    #: Update-heavy round mix: bias the op stream toward structural
    #: churn (subtree inserts, insert runs, deletes, text rewrites) and
    #: away from attribute tweaks — the mix that exercises incremental
    #: index maintenance and renumbering hardest.
    update_heavy: bool = False
    #: Live-migration mode: once the stores are loaded, a background
    #: thread per store migrates its document to
    #: :func:`migration_target`, while the seeded update stream and the
    #: check rounds run.  Every query of the pool must match a
    #: non-migrating twin byte for byte, wherever the scheduler puts
    #: the migration's one transaction in the stream.  Every backend
    #: serializes whole transactions across threads, so any runs.
    migrate_during: bool = False

    def mode_flags(self) -> str:
        """The ``repro fuzz`` flags that select this run's mode."""
        modes = {
            "--cache-twin": self.cache_twin,
            "--index-twin": self.index_twin,
            "--update-heavy": self.update_heavy,
            "--migrate-during": self.migrate_during,
        }
        return "".join(f" {flag}" for flag, on in modes.items() if on)

    def twin_kind(self) -> Optional[str]:
        """The twin mode's failure kind (a key of ``_TWIN_KINDS``), or
        ``None`` when the cell's stores have no twins."""
        if self.cache_twin:
            return "cache-twin"
        if self.index_twin:
            return "index-twin"
        if self.migrate_during:
            return "migrate-twin"
        return None

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
    #: cache-twin | index-twin | index-rebuild | migrate-twin | migrate |
    #: crash
    kind: str
    detail: str
    #: The run's mode flags (:meth:`FuzzConfig.mode_flags`): they
    #: change the cell's stores and op stream, so the repro command
    #: must carry them.
    flags: str = ""

    def repro_command(self) -> str:
        """A CLI line that replays exactly this cell, checking every op."""
        return (
            f"repro fuzz --seeds 1 --base-seed {self.seed} "
            f"--ops {self.op_index} --gaps {self.gap} "
            f"--encodings {self.encoding} --backends {self.backend} "
            f"--check-every 1{self.flags}"
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
    #: ``index_twin`` runs only: the indexed stores' maintenance passes,
    #: one per insert, delete and rename, ``repaired`` in place or
    #: ``rebuilt`` — a parent with no index row.
    maintenance: Counter = field(default_factory=Counter)

    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok() else f"{len(self.failures)} FAILURE(S)"
        plans = ""
        if self.index_plans is not None:
            plans = ", index plans: " + " ".join(
                f"{path}={self.index_plans[path]}"
                for path in ("path-index", "value-index")
            ) + ", maintenance: " + " ".join(
                f"{kind}={self.maintenance[kind]}"
                for kind in ("repaired", "rebuilt")
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
        name, digit = rng.choice(_ATTRS), rng.randint(0, 9)
        if op in ("=", "!=") and digit % 2 == 0:
            # A string literal: under '//' an '=' reads the step's
            # candidates from the attribute index.  The parity picks
            # the form, so both forms draw the same values and a seed
            # keeps its sequence of queries.
            return f"@{name} {op} '{digit}'"
        return f"@{name} {op} {digit}"
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


#: Inserts in an update-heavy insert run, all at one index of one parent.
#: Each lands between the same left sibling and the one inserted before
#: it, halving the free order values there: past log2(gap) of them an
#: encoding with a gap must renumber (Local's and Dewey's sibling shift
#: at their shipped gap of 256).
INSERT_RUN = 10


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
    :attr:`FuzzConfig.update_heavy`).  The plan reads one snapshot,
    so a migration committing beside it cannot tear it.
    """
    # The document's own encoding: it may have migrated off the
    # store's default.
    with reference.backend.snapshot():
        rows = fetch_rows(reference, doc, reference.encoding_for(doc))
    elements = sorted(r["id"] for r in rows if r["kind"] == "elem")
    deletable = sorted(r["id"] for r in rows if r["parent"] != 0)

    if update_heavy:
        choices = ["insert_elem", "insert_elem", "insert_elem",
                   "insert_elem", "insert_text", "insert_text",
                   "insert_run", "set_text", "set_text", "set_text",
                   "rename"]
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
    if kind in ("insert_elem", "insert_text", "insert_run"):
        n_children = sum(1 for r in rows if r["parent"] == parent)
        index = rng.randint(0, n_children)
        fragment = (
            f"t{rng.randint(0, 99)} "
            if kind == "insert_text"
            else _random_fragment(rng)
        )
        repeat = INSERT_RUN if kind == "insert_run" else 1
        describe = f"insert {fragment!r} at index {index} under node {parent}"
        if repeat > 1:
            describe += f", {repeat} times"
        return {
            "kind": "insert", "parent": parent, "index": index,
            "fragment": fragment, "repeat": repeat, "describe": describe,
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
    """Apply a planned operation; returns the last update's report (an
    insert run is ``repeat`` inserts, one transaction each)."""
    kind = op["kind"]
    if kind == "insert":
        for _ in range(op.get("repeat", 1)):
            report = store.updates.insert(
                doc, op["parent"], op["index"], op["fragment"]
            )
        return report
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


#: What a twin mode calls its failures and its two stores: the store
#: under test and its feature-off twin.
_TWIN_KINDS = {
    "cache-twin": ("caching store", "cache=False twin"),
    "index-twin": ("indexed store", "unindexed twin"),
    "migrate-twin": ("migrating store", "non-migrating twin"),
}


def _twin_mismatch(
    store: XmlStore, doc: int,
    twin: XmlStore, twin_doc: int,
    queries: list[str],
    kind: str,
    index_plans: Optional[Counter],
) -> Optional[str]:
    """Compare a store against its feature-off twin.

    Each query runs twice on the primary store — the first pass may
    fill the plan/result caches, the second must serve from them — and
    both passes must match the twin byte for byte (kind, id, label,
    and value, not just identity).  *index_plans* (the index twin's
    :attr:`FuzzReport.index_plans`) counts the compared queries whose
    plan on the primary store probes an index.  A query the twin
    answers and a migrating store's target encoding refuses is
    skipped: the two encodings translate different fragments.  The
    cache and index twins share their store's encoding, so a refusal
    there is an error.
    """
    store_label, twin_label = _TWIN_KINDS[kind]
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
            try:
                got = [
                    (i.kind, i.node_id, i.label, i.value)
                    for i in store.query(xpath, doc)
                ]
            except (TranslationError, UnsupportedXPathError):
                if kind != "migrate-twin":
                    raise
                break
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


def _maintenance() -> Counter:
    """The maintenance passes the metrics registry has counted so far:
    ``repaired`` and ``rebuilt`` (both 0 while it is not recording)."""
    counters = METRICS.snapshot()["counters"]
    return Counter(
        repaired=counters.get("index.incremental", 0),
        rebuilt=counters.get("index.fallback_rebuild", 0),
    )


def migration_target(encoding: str) -> str:
    """The encoding a ``--migrate-during`` store migrates to: the next
    one in the canonical cycle, so sweeping the default encodings
    exercises four distinct source->target conversions."""
    cycle = DEFAULT_ENCODINGS
    return cycle[(cycle.index(encoding) + 1) % len(cycle)]


class _Migration(threading.Thread):
    """A ``--migrate-during`` store's background thread: it migrates
    each document to *target*, keeping what that raised."""

    def __init__(self, store: XmlStore, docs: list[int], target: str):
        super().__init__(name="repro-fuzz-migrate", daemon=True)
        self.store, self.docs, self.target = store, docs, target
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            for doc in self.docs:
                migrate_document(self.store, doc, self.target)
        except BaseException as exc:  # reported after the join
            self.error = exc

    def problem(self) -> Optional[str]:
        """What went wrong, once joined: ``None`` when every document
        ended on the target encoding."""
        if self.is_alive():
            return "migration thread still running 60s after the op stream"
        if self.error is not None:
            return (f"migration raised {type(self.error).__name__}: "
                    f"{self.error}")
        for doc in self.docs:
            final = self.store.encoding_for(doc).name
            if final != self.target:
                return (f"document {doc} ended on {final!r}, expected "
                        f"{self.target!r}")
        return None


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
    twin_kind = config.twin_kind()
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
            if twin_kind is not None:
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
    if twin_kind is not None:
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
            flags=config.mode_flags(),
        )

    def twin_round(op_index: int, op_describe: str
                   ) -> Optional[FuzzFailure]:
        """Diff the warm pool against the twin, for *every* document:
        the one the last operation wrote must have been invalidated,
        and the others must still answer correctly from their caches."""
        for (backend, encoding, store, docs), twin_entry in zip(
            stores, twins
        ):
            if twin_entry is None:
                continue
            twin, twin_docs = twin_entry
            for doc, twin_doc in zip(docs, twin_docs):
                detail = _twin_mismatch(
                    store, doc, twin, twin_doc, warm_queries, twin_kind,
                    report.index_plans,
                )
                if detail is not None:
                    if len(docs) > 1:
                        detail = f"document {doc}: {detail}"
                    return failed(backend, encoding, op_index,
                                  op_describe, twin_kind, detail)
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

    def run_ops() -> Optional[FuzzFailure]:
        """The op stream and its check rounds."""
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
            costs: dict[str, tuple[int, int]] = {}
            for (backend, encoding, store, docs), twin_entry in zip(
                stores, twins
            ):
                maintained = _maintenance()
                try:
                    result = apply_operation(store, docs[slot], op)
                    costs[f"{backend}/{encoding}"] = (
                        result.inserted, result.deleted
                    )
                    if twin_entry is not None:
                        result = apply_operation(
                            twin_entry[0], twin_entry[1][slot], op
                        )
                        costs[f"{backend}/{encoding} twin"] = (
                            result.inserted, result.deleted
                        )
                except Exception as exc:
                    return failed(
                        backend, encoding, op_index, last_describe,
                        "crash", f"{type(exc).__name__}: {exc}",
                    )
                maintained = _maintenance() - maintained
                report.maintenance.update(maintained)
                if maintained["rebuilt"]:
                    # Only a parent with no index row rebuilds.
                    return failed(
                        backend, encoding, op_index, last_describe,
                        "index-rebuild", "index maintenance rebuilt the "
                        "document instead of repairing it",
                    )
            report.operations += 1
            if len(set(costs.values())) > 1:
                backend, encoding = stores[-1][0], stores[-1][1]
                return failed(
                    backend, encoding, op_index, last_describe,
                    "cost-mismatch",
                    "insert/delete counts diverge across stores: "
                    + ", ".join(f"{s}={c}" for s, c in costs.items()),
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

    # A migrating store migrates on a thread of its own while the op
    # stream and the check rounds run; its twin stays on the source
    # encoding.
    migrations = [
        _Migration(store, docs, migration_target(encoding))
        for _backend, encoding, store, docs in stores
        if config.migrate_during
    ]
    for migration in migrations:
        migration.start()
    try:
        failure = run_ops()
    finally:
        for migration in migrations:
            migration.join(timeout=60.0)
    if failure is not None or not migrations:
        return failure
    joined = "the migration joined"
    for (backend, encoding, store, _docs), migration in zip(
        stores, migrations
    ):
        problem = migration.problem()
        if problem is not None:
            return failed(backend, encoding, max_ops, joined, "migrate",
                          problem)
        # Rows left in the source encoding's tables show here only.
        listing = summarize_violations(audit_store(store))
        if listing is not None:
            return failed(backend, encoding, max_ops, joined,
                          "invariant", listing)
    return check_round(max_ops, joined)


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the differential fuzzer; failures come back minimized."""
    if config.migrate_during and (config.cache_twin or config.index_twin):
        raise ValueError(
            "--migrate-during is a twin mode of its own; it cannot be "
            "combined with --cache-twin or --index-twin"
        )
    report = FuzzReport(
        index_plans=Counter() if config.index_twin else None
    )
    # An index twin reads its stores' maintenance passes off the
    # metrics registry, which records for the run.
    with counting() if config.index_twin else nullcontext():
        for seed, gap in config.cells():
            report.cells += 1
            failure = _run_cell(
                config, seed, gap, config.ops, config.check_every, report
            )
            if failure is None:
                continue
            # The coarse run only brackets the failing prefix; replay
            # the cell checking after every op to pin the exact index.
            # A crash or a rebuild is pinned already, and a migrating
            # cell's failure depends on timing, so neither replays.
            if (config.check_every > 1 and not config.migrate_during
                    and failure.kind not in ("crash", "index-rebuild")):
                minimized = _run_cell(
                    config, seed, gap, failure.op_index, 1, FuzzReport()
                )
                if minimized is not None:
                    failure = minimized
            report.failures.append(failure)
    return report
