"""The four order encodings: Global, Local, Dewey, and ORDPATH.

An :class:`OrderEncoding` bundles everything encoding-specific:

* the relational schema (node + attribute tables, indexes),
* how a shredded node record becomes a row (including the *gap* factor of
  the sparse variants — spacing order values out so small bursts of
  insertions can be absorbed without renumbering),
* the SQL fragment that sorts rows into document order (Local has none;
  its results need a client-side order-resolution pass, which is exactly
  the weakness the paper attributes to local order),
* the contiguous range of the order column that holds a node's subtree
  (again Local has none and must chase parent pointers),
* the order invariants the auditor checks.

Dewey and ORDPATH differ only in their key codec and in where a new
child key goes; :class:`PrefixKeyEncoding` carries the rest for both.

The encodings share the structural columns, so the SQL translator only
varies in axis conditions and order keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence

from repro.core import schema
from repro.core.dewey import (
    DeweyKey,
    dewey_successor_bytes,
    encode_component,
)
from repro.core.ordpath import (
    OrdpathKey,
    encode_signed_component,
    ordpath_successor_bytes,
    suffix_between,
)
from repro.core.schema import Table
from repro.core.shredder import ShreddedNode
from repro.errors import EncodingError

#: One invariant violation: (code, offending node id or None, message).
#: The ``repro.check`` auditor wraps these into rich Violation records.
InvariantViolation = tuple[str, Optional[int], str]


@dataclass
class AuditView:
    """One document's rows, pre-indexed for invariant checking.

    Built by :func:`repro.check.invariants.audit_document` and handed to
    each encoding's :meth:`OrderEncoding.order_invariants`, so encodings
    only express *what* must hold, not how to fetch rows.
    """

    #: All node rows of the document, as column->value dicts.
    rows: list[dict]
    #: Node rows keyed by surrogate id.
    by_id: dict[int, dict]
    #: Child rows per parent id, sorted by the sibling order column.
    children: dict[int, list[dict]]
    #: Node ids in structural document order (DFS over parent pointers,
    #: siblings ordered by the sibling order column).
    preorder: list[int]
    #: The store's sparse-numbering gap.
    gap: int


class OrderEncoding(ABC):
    """Common interface of the four encodings."""

    #: Encoding name: "global", "local", "dewey", or "ordpath".
    name: str

    #: The node and attribute tables of this encoding.
    node_table: Table
    attr_table: Table

    #: Names of this encoding's order column(s), in node-row order.
    order_columns: tuple[str, ...]

    #: SQL expression (on an alias) that sorts into document order, or
    #: ``None`` when document order is not directly computable in SQL.
    order_by_column: Optional[str]

    #: Column that orders *siblings* (always available: even Local can
    #: order within one parent).  Used by child fetches/reconstruction.
    sibling_order_column: str

    def create_statements(self) -> list[str]:
        """DDL statements creating this encoding's tables and indexes."""
        return [
            *self.node_table.create_statements(),
            *self.attr_table.create_statements(),
        ]

    def node_columns(self) -> tuple[str, ...]:
        """All node-table column names, structural then order columns."""
        return self.node_table.column_names()

    @abstractmethod
    def order_values(self, node: ShreddedNode, gap: int) -> tuple:
        """This encoding's order-column values for *node* with *gap*."""

    def bulk_order_values(
        self, nodes: Sequence[ShreddedNode], gap: int
    ) -> Iterator[tuple]:
        """:meth:`order_values` of each of *nodes*, which must be all
        the records of one document (or fragment) in document order."""
        return map(self.order_values, nodes, repeat(gap))

    def node_row(self, doc: int, node: ShreddedNode, gap: int) -> tuple:
        """The full insert row for *node* in document *doc*."""
        return (
            doc, node.id, node.parent, node.kind, node.tag, node.value,
            node.depth, *self.order_values(node, gap),
        )

    def node_rows(
        self, doc: int, nodes: Sequence[ShreddedNode], gap: int
    ) -> Iterator[tuple]:
        """:meth:`node_row` of each of *nodes*, under the contract of
        :meth:`bulk_order_values`."""
        return (
            (
                doc, node.id, node.parent, node.kind, node.tag, node.value,
                node.depth, *order,
            )
            for node, order in zip(
                nodes, self.bulk_order_values(nodes, gap)
            )
        )

    @abstractmethod
    def subtree_range(
        self, row: dict
    ) -> Optional[tuple[str, object, object, bool]]:
        """Where the subtree of the node in *row* lives in the order
        column: ``(column, low, high, high_inclusive)``.

        ``low`` is the node's own order value, so ``column >= low`` is
        the subtree with its root and ``column > low`` the proper
        descendants.  ``None`` when the encoding has no such range
        (Local): callers must walk parent pointers instead.
        """

    def subtree_where(
        self, row: dict, include_root: bool
    ) -> Optional[tuple[str, tuple]]:
        """:meth:`subtree_range` as a SQL condition and its two bound
        values, with or without the root row itself."""
        bounds = self.subtree_range(row)
        if bounds is None:
            return None
        column, low, high, high_inclusive = bounds
        return (
            f"{column} {'>=' if include_root else '>'} ? "
            f"AND {column} {'<=' if high_inclusive else '<'} ?",
            (low, high),
        )

    def order_invariants(
        self, view: AuditView
    ) -> Iterator[InvariantViolation]:
        """Yield violations of this encoding's order invariants.

        Each encoding contributes the structural properties its paper
        section relies on (interval nesting for Global, per-parent slot
        uniqueness for Local, key-prefix/byte-order agreement for Dewey
        and ORDPATH).  Encoding-independent checks (parent pointers,
        depth, direct-text, catalogue) live in
        :mod:`repro.check.invariants`.
        """
        return iter(())

    def _sorted_order_ids(self, view: AuditView) -> list[int]:
        """Node ids sorted by this encoding's total order column."""
        column = self.order_by_column
        return [
            row["id"]
            for row in sorted(view.rows, key=lambda r: r[column])
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class GlobalEncoding(OrderEncoding):
    """Absolute document position plus subtree-interval end.

    ``pos`` is the (gapped) preorder rank; ``endpos`` is the ``pos`` of the
    node's last descendant, so ``c.pos > p.pos AND c.pos <= p.endpos`` is
    subtree containment and all twelve axes become integer comparisons.
    Insertions must shift the position of every node after the insertion
    point — the paper's worst case.
    """

    name = "global"

    def __init__(self) -> None:
        self.node_table, self.attr_table = schema.global_tables()
        self.order_columns = ("pos", "endpos")
        self.order_by_column = "pos"
        self.sibling_order_column = "pos"

    def order_values(self, node: ShreddedNode, gap: int) -> tuple:
        return (node.rank * gap, node.end_rank * gap)

    def subtree_range(self, row: dict) -> tuple[str, int, int, bool]:
        return ("pos", row["pos"], row["endpos"], True)

    def order_invariants(
        self, view: AuditView
    ) -> Iterator[InvariantViolation]:
        seen_pos: dict[int, int] = {}
        for row in view.rows:
            pos, endpos = row["pos"], row["endpos"]
            if pos in seen_pos:
                yield (
                    "global-pos-duplicate", row["id"],
                    f"pos {pos} already used by node {seen_pos[pos]}",
                )
            seen_pos[pos] = row["id"]
            if endpos < pos:
                yield (
                    "global-interval-degenerate", row["id"],
                    f"endpos {endpos} < pos {pos}",
                )
            if row["parent"] != 0:
                parent = view.by_id.get(row["parent"])
                if parent is None:
                    continue  # orphan reported by the structural checks
                if not (parent["pos"] < pos and endpos <= parent["endpos"]):
                    yield (
                        "global-containment", row["id"],
                        f"interval [{pos}, {endpos}] not inside parent "
                        f"{parent['id']} [{parent['pos']}, "
                        f"{parent['endpos']}]",
                    )
        # Sibling intervals must be disjoint and ordered.  Deletions may
        # leave an ancestor's endpos past its last live descendant (the
        # paper notes the vacated interval stays safe), so only overlap
        # between siblings is a violation, not slack inside a parent.
        for siblings in view.children.values():
            for left, right in zip(siblings, siblings[1:]):
                if right["pos"] <= left["endpos"]:
                    yield (
                        "global-sibling-overlap", right["id"],
                        f"interval of node {right['id']} starts at "
                        f"{right['pos']}, inside sibling {left['id']}'s "
                        f"interval ending at {left['endpos']}",
                    )
        if self._sorted_order_ids(view) != view.preorder:
            yield (
                "global-preorder", None,
                "sorting by pos does not yield structural preorder",
            )


class LocalEncoding(OrderEncoding):
    """Position among siblings only.

    The cheapest encoding to update (an insertion shifts following
    siblings only) but the weakest for queries: document order between
    arbitrary nodes is not computable from a pair of rows, so
    closure and document-order axes walk the parent pointers, and results
    need a client-side order-resolution pass.
    """

    name = "local"

    def __init__(self) -> None:
        self.node_table, self.attr_table = schema.local_tables()
        self.order_columns = ("lpos",)
        self.order_by_column = None
        self.sibling_order_column = "lpos"

    def order_values(self, node: ShreddedNode, gap: int) -> tuple:
        return (node.sibling_index * gap,)

    def subtree_range(self, row: dict) -> None:
        return None

    def order_invariants(
        self, view: AuditView
    ) -> Iterator[InvariantViolation]:
        for parent_id, siblings in view.children.items():
            seen: dict[int, int] = {}
            for row in siblings:
                lpos = row["lpos"]
                if lpos < 1:
                    yield (
                        "local-lpos-nonpositive", row["id"],
                        f"lpos {lpos} under parent {parent_id} "
                        "(slots start at 1)",
                    )
                if lpos in seen:
                    yield (
                        "local-lpos-duplicate", row["id"],
                        f"(parent {parent_id}, lpos {lpos}) already "
                        f"used by node {seen[lpos]}",
                    )
                seen[lpos] = row["id"]


class PrefixKeyEncoding(OrderEncoding):
    """What Dewey and ORDPATH share: one binary key per node.

    The key embeds the whole root path, so ancestor/descendant tests are
    prefix (byte-range) tests on one indexed BLOB column, document order
    is bytewise key order, and a node's subtree is the half-open key
    range ``[key, successor(key))``.  A concrete encoding names its key
    codec, its two SQL scalars, how load-time sibling indexes become key
    components, and where a new child key goes — everything else (rows,
    subtree range, audit, translation, insertion) is written once
    against this class.
    """

    #: The one order column.
    key_column: str
    #: The key codec: ``decode``/``encode`` plus ``depth()``/``parent()``.
    key_type: type
    #: SQL scalars both backends register: the upper bound of a key's
    #: subtree range, and the key of its parent.
    successor_function: str
    parent_function: str
    #: SQL scalar ``f(key, level, delta)`` moving one component of a
    #: key: how a subtree's keys follow their root to a later sibling
    #: slot.  ``None`` for an encoding whose :meth:`child_slot` never
    #: asks for a shift.
    shift_function: Optional[str] = None
    #: Python form of :attr:`successor_function`.
    successor_bytes: Callable[[bytes], bytes]
    #: The codec of one key component.  Both codecs work component by
    #: component, so a key is its parent's key plus one of these.
    component_bytes: Callable[[int], bytes]

    def __init__(self, tables: tuple[Table, Table]) -> None:
        self.node_table, self.attr_table = tables
        self.order_columns = (self.key_column,)
        self.order_by_column = self.key_column
        self.sibling_order_column = self.key_column

    @abstractmethod
    def fresh_components(
        self, sibling_indexes: tuple[int, ...], gap: int
    ) -> tuple[int, ...]:
        """Key components for a path of 1-based load-time sibling
        indexes (a whole document's at load, a fragment's on insert)."""

    @abstractmethod
    def child_slot(
        self, parent, left, right, gap: int
    ) -> tuple[tuple[int, ...], int]:
        """Where a new child of *parent* goes between siblings *left*
        and *right* (decoded keys; ``None`` = no sibling on that side).

        Returns the new key's components and the *shift*: how far the
        following siblings' subtrees must move up first to make room
        (0 when the key fits without touching an existing row).
        """

    def order_values(self, node: ShreddedNode, gap: int) -> tuple:
        components = self.fresh_components(node.dewey, gap)
        return (self.key_type(components).encode(),)

    def bulk_order_values(
        self, nodes: Sequence[ShreddedNode], gap: int
    ) -> Iterator[tuple]:
        # A child's key is its parent's plus one component, so a node
        # costs one concatenation however deep it sits.
        open_keys = [b""]  # the key of the open ancestor at each depth
        suffixes: dict[int, bytes] = {}  # encoded component by index
        for node in nodes:
            index = node.sibling_index
            suffix = suffixes.get(index)
            if suffix is None:
                (component,) = self.fresh_components((index,), gap)
                suffix = suffixes[index] = self.component_bytes(component)
            depth = len(node.dewey)
            key = open_keys[depth - 1] + suffix
            open_keys[depth:] = (key,)
            yield (key,)

    def subtree_range(self, row: dict) -> tuple[str, bytes, bytes, bool]:
        key = bytes(row[self.key_column])
        return (self.key_column, key, self.successor_bytes(key), False)

    def _key_invariants(
        self, row: dict, key, raw: bytes
    ) -> Iterator[InvariantViolation]:
        """Per-key checks only one concrete codec needs."""
        return iter(())

    def order_invariants(
        self, view: AuditView
    ) -> Iterator[InvariantViolation]:
        name, column = self.name, self.key_column
        seen: dict[bytes, int] = {}
        for row in view.rows:
            raw = bytes(row[column])
            try:
                key = self.key_type.decode(raw)
                key_depth = key.depth()  # validates ORDPATH levels
            except EncodingError as exc:
                yield (f"{name}-key-corrupt", row["id"], str(exc))
                continue
            yield from self._key_invariants(row, key, raw)
            if raw in seen:
                yield (
                    f"{name}-key-duplicate", row["id"],
                    f"key {key} already used by node {seen[raw]}",
                )
            seen[raw] = row["id"]
            if row["depth"] != key_depth:
                yield (
                    f"{name}-depth-mismatch", row["id"],
                    f"depth column {row['depth']} != key depth "
                    f"{key_depth} ({key})",
                )
            # Key-prefix <=> parent-pointer agreement.
            parent_key = key.parent()
            if row["parent"] == 0:
                if parent_key is not None:
                    yield (
                        f"{name}-parent-mismatch", row["id"],
                        f"top-level node carries nested key {key}",
                    )
            else:
                parent = view.by_id.get(row["parent"])
                if parent is None:
                    continue  # orphan reported by the structural checks
                if parent_key is None or (
                    parent_key.encode() != bytes(parent[column])
                ):
                    yield (
                        f"{name}-parent-mismatch", row["id"],
                        f"key {key} is not a child key of parent "
                        f"{parent['id']}",
                    )
        if self._sorted_order_ids(view) != view.preorder:
            yield (
                f"{name}-preorder", None,
                f"byte order of {column} does not yield structural "
                "preorder",
            )


class DeweyEncoding(PrefixKeyEncoding):
    """Binary Dewey keys: the balanced encoding.

    Components are (gapped) sibling positions; an insertion that finds
    no free position between its neighbours relabels the following
    siblings' subtrees.
    """

    name = "dewey"
    key_column = "dkey"
    key_type = DeweyKey
    successor_function = "dewey_successor"
    parent_function = "dewey_parent"
    shift_function = "dewey_shift"
    successor_bytes = staticmethod(dewey_successor_bytes)
    component_bytes = staticmethod(encode_component)

    def __init__(self) -> None:
        super().__init__(schema.dewey_tables())

    def fresh_components(
        self, sibling_indexes: tuple[int, ...], gap: int
    ) -> tuple[int, ...]:
        return tuple(c * gap for c in sibling_indexes)

    def child_slot(
        self, parent: DeweyKey, left: Optional[DeweyKey],
        right: Optional[DeweyKey], gap: int,
    ) -> tuple[tuple[int, ...], int]:
        before = left.local_position() if left is not None else 0
        if right is None:
            return parent.child(before + gap).components, 0
        after = right.local_position()
        if after - before > 1:
            return parent.child((before + after) // 2).components, 0
        # Gap exhausted: take the right neighbour's position once it
        # and everything after it have moved up by one gap unit.
        return parent.child(after).components, gap

    def _key_invariants(
        self, row: dict, key: DeweyKey, raw: bytes
    ) -> Iterator[InvariantViolation]:
        if key.encode() != raw:
            yield (
                "dewey-key-corrupt", row["id"],
                f"non-canonical encoding of key {key}",
            )
        if any(c < 1 for c in key.components):
            yield (
                "dewey-component-nonpositive", row["id"],
                f"key {key} has a component < 1",
            )


class OrdpathEncoding(PrefixKeyEncoding):
    """ORDPATH keys: the insert-friendly Dewey variant (extension).

    Children are labelled with odd components at load time; insertions
    use even "caret" components to create new keys *between* existing
    ones, so no insertion ever relabels an existing row — the follow-up
    technique (O'Neil et al., SIGMOD 2004) that the paper's update
    analysis anticipates.  See :mod:`repro.core.ordpath`.
    """

    name = "ordpath"
    key_column = "okey"
    key_type = OrdpathKey
    successor_function = "ordpath_successor"
    parent_function = "ordpath_parent"
    successor_bytes = staticmethod(ordpath_successor_bytes)
    component_bytes = staticmethod(encode_signed_component)

    def __init__(self) -> None:
        super().__init__(schema.ordpath_tables())

    def fresh_components(
        self, sibling_indexes: tuple[int, ...], gap: int
    ) -> tuple[int, ...]:
        return tuple(2 * gap * c - 1 for c in sibling_indexes)

    def child_slot(
        self, parent: OrdpathKey, left: Optional[OrdpathKey],
        right: Optional[OrdpathKey], gap: int,
    ) -> tuple[tuple[int, ...], int]:
        suffix = suffix_between(
            left.suffix_after(parent) if left is not None else None,
            right.suffix_after(parent) if right is not None else None,
        )
        return (*parent.components, *suffix), 0


#: Singleton instances, keyed by name.  The first three are the paper's;
#: "ordpath" is the documented extension.
ENCODINGS: dict[str, OrderEncoding] = {
    e.name: e
    for e in (
        GlobalEncoding(),
        LocalEncoding(),
        DeweyEncoding(),
        OrdpathEncoding(),
    )
}


def get_encoding(name: str) -> OrderEncoding:
    """Look up an encoding by name ("global", "local", "dewey", or
    "ordpath")."""
    try:
        return ENCODINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown encoding {name!r}; expected one of {sorted(ENCODINGS)}"
        ) from None
