"""The workload advisor: when (and where) to migrate.

The paper's experiment E7 crosses the encodings over on the workload's
update share: Global answers every axis with one range predicate but
pays O(N) renumbering per ordered insertion; Local updates touch only
following siblings but queries need depth-bounded expansions and a
client-side order pass; Dewey sits between.  The advisor reads the
observability counters a store publishes (``repro.obs.METRICS``) and
turns that crossover into a deterministic recommendation:

* ``update_share >= UPDATE_HEAVY``  -> recommend **local**
* ``update_share <= QUERY_HEAVY``   -> recommend **global**
* otherwise                         -> recommend **dewey**

where ``update_share = renumber_ops / (renumber_ops + queries)`` —
order-affecting updates specifically, because value updates are
order-free under every encoding and should not trigger a migration.
The advisor holds (no recommendation) below ``min_samples`` observed
operations or when the document already lives in the recommended
encoding.  ``repro migrate --advise`` prints the decision;
``--auto`` acts on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

#: Update share at/above which Local order wins (paper E7's
#: update-dominated regime).
UPDATE_HEAVY = 0.5
#: Update share at/below which Global order wins (query-dominated
#: regime).
QUERY_HEAVY = 0.1


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one document."""

    #: "migrate" or "hold".
    action: str
    #: Recommended encoding name when action == "migrate", else None.
    target: Optional[str]
    #: Human-readable justification.
    reason: str
    #: Ordered-update fraction of the observed workload, in [0, 1].
    update_share: float
    #: Total operations the decision is based on.
    samples: int

    @property
    def migrate(self) -> bool:
        return self.action == "migrate"


class MigrationAdvisor:
    """Deterministic threshold rule over a metrics snapshot.

    Parameters
    ----------
    min_samples:
        Observed operations required before recommending anything —
        a cold store holds.
    """

    def __init__(self, min_samples: int = 20) -> None:
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.min_samples = min_samples

    def decide(
        self,
        counters: Mapping[str, int],
        current_encoding: str,
    ) -> Recommendation:
        """Decide for a document currently in *current_encoding*.

        *counters* is a flat counter mapping — either
        ``METRICS.snapshot()["counters"]`` or the snapshot dict itself
        (the ``counters`` key is unwrapped when present).
        """
        inner = counters.get("counters")
        if isinstance(inner, Mapping):
            counters = inner
        queries = int(counters.get("query.executed", 0))
        renumber = int(counters.get("updates.renumber_ops", 0))
        samples = queries + renumber
        share = renumber / samples if samples else 0.0

        if samples < self.min_samples:
            return Recommendation(
                action="hold", target=None,
                reason=(
                    f"only {samples} observed operation(s), need "
                    f">= {self.min_samples}"
                ),
                update_share=share, samples=samples,
            )

        if share >= UPDATE_HEAVY:
            best, regime = "local", "update-heavy"
        elif share <= QUERY_HEAVY:
            best, regime = "global", "query-heavy"
        else:
            best, regime = "dewey", "mixed"

        if best == current_encoding:
            return Recommendation(
                action="hold", target=None,
                reason=(
                    f"{regime} workload (update share {share:.2f}); "
                    f"already on {best}"
                ),
                update_share=share, samples=samples,
            )
        return Recommendation(
            action="migrate", target=best,
            reason=(
                f"{regime} workload (update share {share:.2f}); "
                f"{best} beats {current_encoding} past the E7 crossover"
            ),
            update_share=share, samples=samples,
        )
