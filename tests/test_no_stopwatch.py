"""No stopwatch in ``src/``.

The paper's table is counted, not timed, and wall-clock throughput is
``benchmarks/perf``'s job, so a module under ``src/repro`` reads a clock
only to enforce a deadline or a timeout, or to fill the tracer, the one
timer a query has.  This scan keeps the timed drivers that were
deleted (the serve benchmark command, its thread-mode and multi-process
load generators) from coming back.
"""

import ast
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules that read a clock, each with what it reads it for.
ALLOWED = {
    "obs/tracer.py": "span start and end times",
    "serve/supervisor.py": "spawn and shutdown deadlines",
}
CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
WALL = {"time", "time_ns"}
#: The deleted drivers' names and command, split so that a search of
#: the tree for them finds only their return.
GONE = ("Concurrent" "Workload", "Concurrent" "RunResult", "load" "gen",
        "run" "_load")
COMMAND = "serve" "-bench"


def clock_reads(source: str) -> list[int]:
    """Line numbers that read a clock from :mod:`time`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr in CLOCKS or (
                node.attr in WALL
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            hit = bool({alias.name for alias in node.names} & (CLOCKS | WALL))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_scan_sees_a_clock_read():
    assert clock_reads("import time\nt = time.perf_counter()\n") == [2]
    assert clock_reads("import time\nt = time.time()\n") == [2]
    assert clock_reads("from time import monotonic\n") == [1]
    assert clock_reads("import time\ntime.sleep(0.1)\n") == []
    assert clock_reads("x = span.time\n") == []


def test_only_deadlines_timeouts_and_the_tracer_read_a_clock():
    readers = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := clock_reads(path.read_text()))
    }
    assert set(readers) == set(ALLOWED), readers


def test_the_timed_drivers_stay_deleted(capsys):
    assert not (SRC / "serve" / "loadgen.py").exists()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        assert not [name for name in GONE if name in text], path
    with pytest.raises(SystemExit) as exit_info:
        main([COMMAND])
    assert exit_info.value.code == 2
    assert f"invalid choice: {COMMAND!r}" in capsys.readouterr().err
