"""repro.telemetry — deterministic tracing, metrics and profiling.

Three layers (see ``docs/telemetry.md`` for the span taxonomy and trace
schema):

* :mod:`~repro.telemetry.tracer` — a zero-dependency span tracer whose
  timestamps come from the substrates' *simulated* clocks, so traces are
  seed-stable and regression-testable;
* :mod:`~repro.telemetry.metrics` — named counters/gauges/histograms
  behind one registry, replacing the substrates' ad-hoc counter fields;
* :mod:`~repro.telemetry.profile` — text flamegraph / hot-span reports
  over recorded traces (also the ``repro-trace`` CLI).

On top of the registry sits the observability layer (``docs/slo.md``):
:mod:`~repro.telemetry.timeseries` samples a registry into immutable
per-epoch series, :mod:`~repro.telemetry.slo` evaluates error-budget /
burn-rate SLOs over those series in simulated time, and
:mod:`~repro.telemetry.export` renders canonical OpenMetrics/JSONL
artifacts (the ``repro health`` dashboard's inputs).

Telemetry is **disabled by default**: the global tracer exists but
records nothing, and instrumented hot paths skip all tracer calls behind
a single ``enabled`` check.  Enable it for a block of work with::

    from repro import telemetry

    with telemetry.recording() as tracer:
        run_workload(graph, partition, PageRank(num_iterations=5))
    tracer.write_jsonl("trace.jsonl")

or globally with ``telemetry.configure(enabled=True)``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.export import (
    records_to_jsonl,
    samples_to_jsonl,
    to_openmetrics,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.profile import (
    build_tree,
    hot_spans,
    render_flamegraph,
    render_hot_spans,
    trace_summary,
)
from repro.telemetry.slo import (
    AlertEvent,
    Slo,
    SloEvaluator,
    default_service_slos,
    evaluate_slos,
)
from repro.telemetry.timeseries import (
    MetricSample,
    TimeSeriesSampler,
)
from repro.telemetry.tracer import (
    SCHEMA_VERSION,
    SimClock,
    Span,
    Tracer,
    read_jsonl,
)

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "SimClock",
    "Tracer",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSample",
    "TimeSeriesSampler",
    "Slo",
    "SloEvaluator",
    "AlertEvent",
    "default_service_slos",
    "evaluate_slos",
    "to_openmetrics",
    "samples_to_jsonl",
    "records_to_jsonl",
    "build_tree",
    "render_flamegraph",
    "render_hot_spans",
    "hot_spans",
    "trace_summary",
    "get_tracer",
    "set_tracer",
    "get_metrics",
    "set_metrics",
    "configure",
    "recording",
]

#: The process-wide tracer instrumented code resolves at run time.
_GLOBAL_TRACER = Tracer(enabled=False)

#: The process-wide metrics registry.  Substrate runs carry their own
#: per-run registries; this one holds cross-run process state — the
#: orchestrator's ``cache.*`` hit/miss counters and the
#: ``orchestrator.computed.*`` work counters.
_GLOBAL_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global metrics registry; returns the previous one.

    Tests install a fresh registry to read counters in isolation.
    """
    global _GLOBAL_METRICS
    previous = _GLOBAL_METRICS
    _GLOBAL_METRICS = registry
    return previous


def get_tracer() -> Tracer:
    """The global tracer (disabled by default)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the global tracer; returns the previous one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


def configure(*, enabled: bool | None = None,
              decision_sample_every: int | None = None) -> Tracer:
    """Tune the global tracer in place; returns it."""
    tracer = _GLOBAL_TRACER
    if enabled is not None:
        tracer.enabled = enabled
    if decision_sample_every is not None:
        if decision_sample_every < 1:
            raise ValueError("decision_sample_every must be >= 1")
        tracer.decision_sample_every = decision_sample_every
    return tracer


@contextmanager
def recording(*, decision_sample_every: int = 64):
    """Swap in a fresh enabled tracer for the duration of the block.

    Yields the tracer; the previous global tracer (typically the disabled
    default) is restored on exit, even on error — so a test or CLI run
    can record a trace without leaking enabled-mode overhead into the
    rest of the process.
    """
    tracer = Tracer(enabled=True,
                    decision_sample_every=decision_sample_every)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
