"""Percentiles and the median-of-rounds summary."""

from __future__ import annotations

import statistics

#: The percentile rule: p99 is reported for an operation class only
#: where every round has at least this many samples of it per pass
#: (>= 10 samples beyond the percentile).
P99_MIN_SAMPLES = 1000


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    ordered = sorted(values)
    rank = int(round(q * (len(ordered) - 1)))
    return ordered[max(0, min(len(ordered) - 1, rank))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated between the values.

    The inclusive method: with the two untraced rounds of a traced run
    or the three runs of a ``repeat`` side, the default, exclusive one
    extrapolates the quartiles beyond the lowest and highest value seen.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def summarize(per_round: list[float], raw: list[float], unit: str,
              samples: int) -> dict:
    """One metric: the median across rounds with its quartiles, at
    reference speed, and the median of the *raw* per-round values."""
    q1, median, q3 = quartiles(per_round)
    return {
        "value": median,
        "q1": q1,
        "q3": q3,
        "raw": statistics.median(raw),
        "unit": unit,
        "rounds": len(per_round),
        "samples": samples,
    }
