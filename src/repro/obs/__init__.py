"""repro.obs — zero-dependency structured tracing, metrics and profiling.

The analysis pipeline grew from one object tape into a multi-backend
stack (object tape, compiled SoA tape, record-once/replay-many trace
cache with lane-batched replay) and a significance-aware task runtime.
This package is the shared observability layer for all of them:

* :mod:`repro.obs.trace` — nestable wall-clock **spans** recorded into an
  in-memory ring buffer.  Tracing is off by default; the disabled path is
  a single attribute check so instrumented hot paths stay hot.
* :mod:`repro.obs.metrics` — named **counters / gauges / histograms** in
  a process-global registry, with ``snapshot()`` → plain dict and JSON /
  Prometheus-text exporters.  Counters are always on (one float add).
* :mod:`repro.obs.profile` — render span trees and metric tables for the
  ``repro profile`` CLI subcommand / ``--profile`` flag, and dump
  ``obs.json`` / ``metrics.prom`` artifacts.
* :mod:`repro.obs.context` — the request-scoped
  :class:`~repro.obs.context.TraceContext` (trace id / span id / parent
  id) carried in a contextvar; spans stamp themselves from it so trees
  recorded in different threads or processes re-link by id.
* :mod:`repro.obs.export` — lower span forests to Chrome trace-event
  JSON (Perfetto-loadable), real worker pids and flow arrows included.
* :mod:`repro.obs.flight` — the always-on per-request flight recorder
  behind the service's ``/debug/requests`` and ``/debug/trace/<id>``.

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("experiment.figure4"):
        figure4()
    print(obs.format_profile(obs.spans(), obs.snapshot()))
"""

from . import context
from .context import TraceContext, new_trace, parse_header
from .export import chrome_trace_events, dump_chrome_trace
from .flight import FlightRecorder, RequestRecord
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
    reset_metrics,
    snapshot,
    to_prometheus,
)
from .profile import (
    aggregate_spans,
    dump_profile,
    format_metrics_table,
    format_profile,
    format_span_tree,
    spans_to_dicts,
)
from .trace import (
    Span,
    adopt,
    clear,
    collect,
    disable,
    enable,
    enabled,
    manual_span,
    set_enabled,
    set_ring_capacity,
    span,
    spans,
    spans_for_trace,
    traced,
)

__all__ = [
    # trace
    "Span",
    "span",
    "manual_span",
    "traced",
    "spans",
    "spans_for_trace",
    "adopt",
    "collect",
    "clear",
    "enabled",
    "enable",
    "disable",
    "set_enabled",
    "set_ring_capacity",
    # context
    "context",
    "TraceContext",
    "new_trace",
    "parse_header",
    # export
    "chrome_trace_events",
    "dump_chrome_trace",
    # flight
    "FlightRecorder",
    "RequestRecord",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset_metrics",
    "to_prometheus",
    # profile
    "aggregate_spans",
    "format_span_tree",
    "format_metrics_table",
    "format_profile",
    "dump_profile",
    "spans_to_dicts",
]
