"""The index advisor: when (and where) to build secondary indexes.

Mirrors the migration advisor's shape: a deterministic rule over the
observability counters.  The signal is *missed opportunity*:
``index.miss`` counts translations whose plan had a fragment eligible
for an index rewrite — as the translator itself defines eligible — but
whose document had no index.  Past ``MIN_SAMPLES`` misses the advisor
recommends building indexes on every unindexed document.

``repro index --advise`` prints the decision; ``--auto`` acts on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

#: Eligible-but-unindexed translations required before recommending
#: anything — a cold store holds.
MIN_SAMPLES = 5


@dataclass(frozen=True)
class IndexRecommendation:
    """The advisor's verdict for one store."""

    #: "create" or "hold".
    action: str
    #: Document ids the action targets (empty when holding).
    documents: tuple[int, ...]
    #: Human-readable justification.
    reason: str
    #: Eligible-but-unindexed translations observed.
    samples: int

    @property
    def act(self) -> bool:
        return self.action != "hold"


class IndexAdvisor:
    """Deterministic threshold rule over the ``index.miss`` counter."""

    def decide(
        self,
        counters: Mapping[str, int],
        unindexed: Sequence[int],
    ) -> IndexRecommendation:
        """Decide for a store.

        *counters* is a flat counter mapping — either
        ``METRICS.snapshot()["counters"]`` or the snapshot dict itself
        (the ``counters`` key is unwrapped when present).  *unindexed*
        lists the document ids without an index.
        """
        inner = counters.get("counters")
        if isinstance(inner, Mapping):
            counters = inner
        misses = int(counters.get("index.miss", 0))

        if not unindexed:
            return IndexRecommendation(
                action="hold", documents=(),
                reason="every document is indexed",
                samples=misses,
            )

        if misses < MIN_SAMPLES:
            return IndexRecommendation(
                action="hold", documents=(),
                reason=(
                    f"only {misses} translation(s) found an eligible "
                    f"fragment and no index, need >= {MIN_SAMPLES}"
                ),
                samples=misses,
            )

        return IndexRecommendation(
            action="create", documents=tuple(unindexed),
            reason=(
                f"{misses} translation(s) found an eligible fragment "
                f"and no index; {len(unindexed)} document(s) lack "
                f"indexes"
            ),
            samples=misses,
        )
