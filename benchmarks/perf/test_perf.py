"""Self-test of the benchmark: ``pytest benchmarks/perf -q`` (< 30 s).

Runs the suite once at ``--quick`` sizes, traced, and checks what the
benchmark promises: every declared metric is there and finite, the
schedule depends on the seed alone, nothing fails, the exact counters
repeat bit for bit, and the layers timed on their own account for a
plausible share of the whole call.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import catalog  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Deterministic counters: one closed-loop client, no timers.
EXACT = {
    "update_heavy": "core.updates.relabeled_per_write",
    "ordered_read": "backends.statements_per_read",
}


def run(tmp_path, tag: str, *args: str) -> list[dict]:
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "run", "--quick",
         "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    runs = run(tmp_path_factory.mktemp("perf"), "suite", "--trace")
    return {(r["workload"], r["traced"]): r for r in runs}


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_manifest_matches_the_catalog(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in manifest["workloads"]] == list(
        catalog.WORKLOADS
    )
    assert "setup_s" in [m["name"] for m in manifest["end_to_end"]]
    for metric in manifest["end_to_end"]:
        entry = catalog.E2E_BY_NAME[metric["name"]]
        assert (metric["unit"], metric["better"]) == (entry.unit, entry.better)
        assert 0 < metric["bound"] <= 0.25
    # The driver reads every listed metric on every workload, so the
    # manifest carries the layer metrics that all six report.
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [
        (layer.name, layer.unit, layer.better) for layer in catalog.LAYERS
        if set(layer.on) == set(catalog.WORKLOADS)
    ]
    names = [
        m["name"] for key in ("workloads", "end_to_end", "per_layer")
        for m in manifest[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert all(NAME.match(m.name) for m in catalog.END_TO_END)


def test_every_declared_metric_is_reported_and_finite(suite, manifest):
    for workload in catalog.WORKLOADS:
        metrics = suite[workload, False]["metrics"]
        # --quick rounds are too small for the percentile rule.
        declared = [
            n for n in catalog.declared(workload) if "_p99_" not in n
        ]
        for name in declared + [m["name"] for m in manifest["end_to_end"]]:
            assert math.isfinite(metrics[name]["value"]), (workload, name)
        layers = suite[workload, True]["layers"]
        for layer in catalog.LAYERS:
            if workload not in layer.on:
                continue
            values = [
                layers[p][layer.name] for p in layers
                if layer.name in layers[p]
            ]
            assert values, (workload, layer.name)
            assert all(math.isfinite(v) for v in values), (
                workload, layer.name,
            )


def test_nothing_fails_and_outputs_verify(suite):
    for result in suite.values():
        assert result["correct"], result["problems"]
        assert result["metrics"]["fail_share"]["value"] == 0
        assert result["attempted"] >= 1


def test_schedule_depends_on_the_seed_alone(suite, tmp_path):
    again = run(tmp_path, "again", "--workload", "ordered_read")[0]
    other = run(tmp_path, "other", "--workload", "ordered_read",
                "--seed", "2")[0]
    first = suite["ordered_read", False]["schedule_hash"]
    assert again["schedule_hash"] == first
    assert other["schedule_hash"] != first


def test_exact_counters_repeat(suite, tmp_path):
    for workload, name in EXACT.items():
        again = run(tmp_path, workload, "--workload", workload,
                    "--trace", "1")[0]
        for enc, values in suite[workload, True]["layers"].items():
            if name in values:
                assert again["layers"][enc][name] == values[name]


def test_waterfall_covers_ordered_read(suite):
    # translate + execute, timed on their own, against the whole
    # store.query: 0.71-0.83 on Global and Dewey, 0.93-0.96 on Local at
    # this commit (one stalled call among the 100 probed here moves it
    # by 0.2).  Below the window a layer is missing; above it the replay
    # does not reproduce the call (a result hit reads 20, a cold plan 2).
    layers = suite["ordered_read", True]["layers"]
    for enc in catalog.PASSES["ordered_read"]:
        assert 0.5 <= layers[enc]["trace.coverage"] <= 1.2
    for result in suite.values():
        if result["traced"]:
            share = result["layers"]["all"]["obs.trace_overhead_share"]
            assert math.isfinite(share)
