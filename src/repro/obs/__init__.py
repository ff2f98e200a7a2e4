"""Simulated-time observability: observers, span traces, metric timelines.

The serving core accepts ``observers=`` on every serve entry point
(:meth:`repro.serving.engine.ContinuousBatchingEngine.serve`,
:meth:`repro.cluster.group.ReplicaGroup.serve`, and the serving sweep's
``observers=`` factory).  This package provides the protocol and the two
stock observers:

* :class:`~repro.obs.observer.Observer` — the no-op base class with one
  callback per simulated-time event (zero overhead when no observers are
  registered);
* :class:`~repro.obs.spans.SpanTracer` — per-request spans (queue,
  prefill, decode, preemption) exported as Chrome trace-event JSON for
  Perfetto, plus the per-class SLO-violation blame table
  (``trace.metadata["slo_attribution"]``);
* :class:`~repro.obs.timeline.MetricsTimeline` — gauges (KV occupancy,
  batch size, queue depth by class, prefix hit rate, preemption rate)
  sampled on a simulated-time interval into a tidy CSV/JSON timeseries.

``python -m repro.obs.report <trace.json>`` renders the blame table of an
exported trace.  See ``docs/observability.md``.
"""

from repro.obs.attribution import (
    blame_table,
    format_blame_table,
    request_components,
)
from repro.obs.observer import Observer
from repro.obs.spans import SpanTracer
from repro.obs.timeline import MetricsTimeline

__all__ = [
    "Observer",
    "SpanTracer",
    "MetricsTimeline",
    "blame_table",
    "format_blame_table",
    "request_components",
]
