"""Observability: hierarchical tracing, metrics, and a slow-query log.

Zero-dependency and off by default — every instrumentation site in the
store, backends, minidb engine, translator, update manager, the
serving layer, and the concurrency layer goes through :func:`span` or
:data:`METRICS`, both of which short-circuit after one check when
nothing is enabled.

Quick start::

    from repro import obs

    obs.enable()                      # counters + histograms
    with obs.tracing() as tracer:     # span trees (per activation)
        store.query("//item[2]/name", doc)
    print(tracer.to_json())
    print(obs.METRICS.snapshot())

    log = obs.enable_slow_log(threshold_ms=5.0)
    ...
    for entry in log.entries():
        print(entry.render())

CLI equivalents: ``repro trace <xpath>`` and ``repro stats``.
"""

from repro.obs.metrics import METRICS, Histogram, MetricsRegistry, counting
from repro.obs.slowlog import (
    SlowQuery,
    SlowQueryLog,
    disable_slow_log,
    enable_slow_log,
    slow_log,
)
from repro.obs.tracer import Span, Tracer, current_tracer, span, tracing


def enable() -> None:
    """Turn on metric collection (counters + histograms)."""
    METRICS.enabled = True


def disable() -> None:
    """Turn off metrics and the slow-query log (tracers deactivate
    with their ``tracing()`` scope)."""
    METRICS.enabled = False
    disable_slow_log()


__all__ = [
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SlowQuery",
    "SlowQueryLog",
    "Tracer",
    "counting",
    "current_tracer",
    "disable",
    "disable_slow_log",
    "enable",
    "enable_slow_log",
    "slow_log",
    "span",
    "tracing",
]
