"""Observability: hierarchical tracing and metrics.

Zero-dependency and off by default — every instrumentation site in the
store, backends, minidb engine, translator, update manager, index
manager, cache and serving layer goes through :func:`span` or
:data:`METRICS`, both of which short-circuit after one check when
nothing is enabled.  The tracer is the one timer: a span reads the
clock only under a tracer (or with a ``collect`` dict), and metrics
count.

Quick start::

    from repro import obs

    with obs.counting() as grew:      # counters, for this block only
        with obs.tracing() as tracer: # span trees (per activation)
            store.query("//item[2]/name", doc)
    print(tracer.to_json())
    print(grew["query.executed"])

CLI equivalents: ``repro trace <xpath>`` and ``repro stats``.
"""

from repro.obs.metrics import METRICS, Histogram, MetricsRegistry, counting
from repro.obs.tracer import Span, Tracer, current_tracer, span, tracing


def enable() -> None:
    """Turn on metric collection (counters + histograms)."""
    METRICS.enabled = True


def disable() -> None:
    """Turn off metrics (tracers deactivate with their ``tracing()``
    scope)."""
    METRICS.enabled = False


__all__ = [
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "counting",
    "current_tracer",
    "disable",
    "enable",
    "span",
    "tracing",
]
