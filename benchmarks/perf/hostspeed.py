"""Host-speed calibration: what keeps the timings steady on a shared box.

The 2-core reference box changes speed in steps: a fixed pure-Python
loop reads 0.83, 0.92, 1.02 or 1.4 ms depending on when it runs (CPU
time moves with wall time, so this is slower execution, not lost
scheduling), and a slow phase can last a second or minutes.  Raw
latencies inherit the states their run happened to see; ten runs of
one workload spread 7-46 % between their quartiles.

So a small fixed kernel runs between the timed operations (never inside
one), and the runner divides each pass's statistics by the host-speed
factor of that pass: the median kernel time over the pass /
``REFERENCE_S``.  Latencies are recorded raw; the factor is applied
once, when a run is summarised, and every metric carries its raw value
beside the one at reference speed.  Both sides of a comparison are
divided by the same kernel, which no change to the program can speed
up.  README.md, "Steadiness", has the measured effect.

The kernel tells the speed of the thread it runs on.  ``serve_wire``'s
latency is wake-ups across five processes, and did not follow it (ten
runs spread 7.5 % raw and 12.6 % divided by their factors), so that
workload runs uncalibrated and its times are raw.
"""

from __future__ import annotations

import sqlite3
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

#: What the kernel takes on the reference box in its usual state.
REFERENCE_S = 0.0005
#: Spacing of calibrations inside timed loops (about 2.5 % of the time).
INTERVAL_S = 0.02

_JOIN = (
    "SELECT a.id, b.tag, b.val FROM t a JOIN t b ON b.parent = a.id "
    "WHERE a.parent = ? ORDER BY b.pos"
)


def private_table() -> sqlite3.Connection:
    """A 20 000-row table in the standard library's sqlite, on a
    connection the program never sees."""
    con = sqlite3.connect(":memory:")
    con.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, parent INT, pos INT, "
        "tag TEXT, val TEXT)"
    )
    con.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
        ((i, i // 7, i % 7, f"t{i % 13}", f"v{i}") for i in range(20000)),
    )
    con.execute("CREATE INDEX ix ON t (parent, pos)")
    con.commit()
    return con


def kernel(con: sqlite3.Connection) -> int:
    """Half interpreter arithmetic, half indexed sqlite joins with rows
    fetched into Python: what the workloads' time is made of.  In a slow
    phase sqlite and object churn slow more than arithmetic does:
    against a loop of reads, the arithmetic alone left the p50 of 1.5 s
    windows 4.7 % apart, the joins alone 2.2 %."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    for parent in range(100, 2100, 100):
        total += len(con.execute(_JOIN, (parent,)).fetchall())
    return total


class HostSpeed:
    """The calibration samples of one run (none when not *calibrated*:
    every factor is then 1)."""

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.table = private_table() if calibrated else None
        self.at: list[float] = []
        self.cost: list[float] = []
        #: When the next in-loop calibration is due.
        self.due = 0.0

    def sample(self) -> float:
        """Run the kernel once; returns the time it ended."""
        if not self.calibrated:
            return perf_counter()
        start = perf_counter()
        kernel(self.table)
        end = perf_counter()
        self.at.append(start)
        self.cost.append(end - start)
        self.due = end + INTERVAL_S
        return end

    def factor(self, since: float, until: float) -> float:
        """Host speed over ``[since, until]`` (1.0 = reference speed):
        the median of the calibrations that started in the window and
        the nearest one on each side of it."""
        if not self.calibrated:
            return 1.0
        lo = bisect_left(self.at, since)
        hi = bisect_right(self.at, until)
        return median(self.cost[max(0, lo - 1): hi + 1]) / REFERENCE_S
