"""The mixed workload driver (experiments E7 and E16).

The paper's headline trade-off only appears under a *mix*: Global wins
when the workload is read-only, Local wins when it is update-heavy, and
Dewey holds up across the middle.  :class:`MixedWorkload` interleaves
queries and ordered insertions at a configurable update fraction, with a
seeded schedule so every encoding sees the same operation sequence.  A
run returns counts only; the experiments read the engine's counters
around it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.workload.queries import WorkloadQuery
from repro.workload.update_ops import UpdateWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import XmlStore


@dataclass
class MixedWorkloadResult:
    """Operation counts of one mixed run."""

    total_operations: int
    query_operations: int
    update_operations: int
    rows_relabeled: int


class MixedWorkload:
    """Runs an interleaved query/update schedule against one store."""

    def __init__(
        self,
        store: "XmlStore",
        doc: int,
        queries: Sequence[WorkloadQuery],
        insert_parent_xpath: str,
        seed: int = 5,
    ) -> None:
        self.store = store
        self.doc = doc
        self.queries = list(queries)
        self.updater = UpdateWorkload(store, doc, seed=seed)
        self.insert_parents = self.updater.container_ids(
            insert_parent_xpath
        )
        if not self.insert_parents:
            raise ValueError(
                f"no insertion parents match {insert_parent_xpath!r}"
            )
        self.seed = seed

    def run(
        self, operations: int, update_fraction: float
    ) -> MixedWorkloadResult:
        """Run *operations* ops, *update_fraction* of them insertions.

        The schedule (which op happens when, which query, which parent)
        depends only on the seed and the arguments — not on the store —
        so runs are comparable across encodings and backends.
        """
        rng = random.Random((self.seed, operations, update_fraction).__hash__())
        n_queries = 0
        n_updates = 0
        relabeled = 0
        for _step in range(operations):
            if rng.random() < update_fraction:
                parent = rng.choice(self.insert_parents)
                where = rng.choice(("first", "middle", "last"))
                report = self.updater.insert_at(parent, where)
                relabeled += report.relabeled
                n_updates += 1
            else:
                query = rng.choice(self.queries)
                self.store.query(query.xpath, self.doc)
                n_queries += 1
        return MixedWorkloadResult(
            total_operations=operations,
            query_operations=n_queries,
            update_operations=n_updates,
            rows_relabeled=relabeled,
        )
