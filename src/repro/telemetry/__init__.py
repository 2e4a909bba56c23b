"""Telemetry: structured tracing, typed metrics, derived reports.

The observability layer for the execution engine, governed by the
``telemetry`` field of the scoped :class:`~repro.engine.policy.
ExecutionPolicy` (``engine.scope(telemetry="trace")``):

* ``"off"`` (default) — instrumented seams pay one resolved-policy
  flag check and allocate nothing;
* ``"metrics"`` — counters/gauges/histograms are fed into the
  process-global :func:`registry`;
* ``"trace"`` — additionally, nestable :func:`span`\\ s land in a
  bounded in-memory ring buffer, exportable as JSONL and Chrome
  ``trace_event`` files.

Telemetry **observes**: no recorded value ever feeds back into a
computation, so dhop/CG results are bit-identical at every level.

Quick start::

    from repro import engine, telemetry

    with engine.scope(telemetry="trace"):
        solve_fermion(op, src)                  # instrumented seams fire
    telemetry.write_jsonl(telemetry.spans(), "run.jsonl")
    print(telemetry.roofline_table(telemetry.spans()))

then ``python tools/teleview.py run.jsonl`` renders the same reports
offline.
"""

from repro.telemetry.export import (
    prometheus_text,
    read_jsonl,
    spans_to_chrome,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.flightrec import (
    FlightRecorder,
    format_postmortem,
    postmortem_bundle,
    write_postmortem,
)
from repro.telemetry.merge import (
    ingest_round,
    rank_metrics,
    rank_spans,
    rank_tails,
    ranks_seen,
    reset_rank_state,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.telemetry.reports import (
    convergence_attrs,
    convergence_from_spans,
    convergence_table,
    host_fingerprint,
    host_table,
    imbalance_from_spans,
    imbalance_summary,
    imbalance_table,
    roofline_from_spans,
    roofline_table,
    traced_solver,
)
from repro.telemetry.trace import (
    NULL_SPAN,
    Span,
    TraceBuffer,
    buffer,
    drain_spans,
    event,
    metrics_on,
    record_span,
    span,
    spans,
    tracing,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "registry",
    "NULL_SPAN", "Span", "TraceBuffer", "buffer", "drain_spans",
    "event", "metrics_on", "record_span", "span", "spans", "tracing",
    "prometheus_text", "read_jsonl", "spans_to_chrome",
    "spans_to_jsonl", "write_chrome_trace", "write_jsonl",
    "write_prometheus",
    "convergence_attrs", "convergence_from_spans", "convergence_table",
    "host_fingerprint", "host_table",
    "imbalance_from_spans", "imbalance_summary", "imbalance_table",
    "roofline_from_spans", "roofline_table", "traced_solver",
    "FlightRecorder", "format_postmortem", "postmortem_bundle",
    "write_postmortem",
    "ingest_round", "rank_metrics", "rank_spans", "rank_tails",
    "ranks_seen", "reset_rank_state",
    "count", "observe", "set_gauge", "snapshot", "reset",
]


# -- facade conveniences over the global registry ----------------------
def count(name: str, n: int = 1) -> None:
    """Increment the named counter (metrics must be on to matter for
    hot paths — callers there guard with :func:`metrics_on`; cold
    paths may call unconditionally, the registry is always live)."""
    registry().counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record one observation into the named histogram."""
    registry().histogram(name).observe(value)


def set_gauge(name: str, value) -> None:
    """Set the named gauge."""
    registry().gauge(name).set(value)


def snapshot() -> dict:
    """Every metric value (instruments + collectors), flat."""
    return registry().snapshot()


def reset() -> dict:
    """Zero the metrics registry, clear the trace buffer, empty the
    flight-recorder ring and drop the cross-rank merge state; returns
    ``{"metrics_reset": n, "spans_cleared": m, "flightrec_cleared": k,
    "rank_state_cleared": r}``.  Wired into ``engine.reset_all`` so
    one call provably clears everything."""
    from repro.telemetry import flightrec as _flightrec

    return {
        "metrics_reset": registry().reset(),
        "spans_cleared": buffer().clear(),
        "flightrec_cleared": _flightrec.clear(),
        "rank_state_cleared": reset_rank_state(),
    }
