"""No behaviour switch reads the environment.

A store behaves the way its constructor arguments and its stored rows
say; ``REPRO_*`` escape hatches are gone and this scan keeps them from
coming back.  The one legitimate reader is the serve supervisor, which
copies the environment for the shard processes it spawns.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {"serve/supervisor.py"}
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Line numbers that touch the process environment."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
        else:
            continue
        if names & ENVIRONMENT_NAMES:
            lines.append(node.lineno)
    return lines


def test_scan_sees_an_environment_read():
    assert environment_reads("import os\nx = os.environ.get('A')\n") == [2]
    assert environment_reads("from os import getenv\n") == [1]
    assert environment_reads((SRC / "serve" / "supervisor.py").read_text())


def test_only_the_supervisor_touches_the_environment():
    readers = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := environment_reads(path.read_text()))
    }
    assert set(readers) <= ALLOWED, readers


def test_tier1_runs_the_same_hypothesis_examples_every_time(request):
    """``tests/conftest.py`` loads a derandomized profile with no
    example database, and chooses it without reading the environment
    either; only ``--hypothesis-profile`` selects another."""
    import pytest
    from hypothesis import settings

    conftest = Path(__file__).with_name("conftest.py").read_text()
    assert environment_reads(conftest) == []
    if request.config.getoption("--hypothesis-profile"):
        pytest.skip("a profile was selected on the command line")
    assert settings.default.derandomize
    assert settings.default.database is None
