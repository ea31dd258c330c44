"""Benchmark harness and the reconstructed experiment suite E1-E18."""

from repro.bench.harness import (
    ENCODING_NAMES,
    ExperimentTable,
    build_store,
)
from repro.bench.experiments import run_all
from repro.bench.report import (
    EXPECTED_SHAPES,
    Verdict,
    compute_verdicts,
    experiments_page,
)

__all__ = [
    "ENCODING_NAMES",
    "EXPECTED_SHAPES",
    "ExperimentTable",
    "Verdict",
    "build_store",
    "compute_verdicts",
    "experiments_page",
    "run_all",
]
