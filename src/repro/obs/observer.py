"""The observer protocol of the simulated-time observability layer.

The serving core (:mod:`repro.serving.engine`, :mod:`repro.serving.events`,
:mod:`repro.cluster.group`) accepts an ``observers=`` list on every serve
entry point and invokes the callbacks below at each simulated-time event:
arrivals, admissions, prefill passes and chunks, decode epochs, preemption
swaps, completions, router assignments, and prefix-cache traffic.  The
hooks are **passive**: observers receive read-only views of engine state
and must never mutate requests, records, or clocks — a serve with
observers attached produces bit-identical traces to the same serve without
them (pinned in ``tests/test_obs.py``).

Zero overhead when disabled
---------------------------
Every hook site in the engine is guarded by a single ``if`` on the
observer list, so a serve with no observers registered executes exactly
the pre-observability instruction stream — the golden event journals of
``tests/test_serving_events.py`` and ``tests/test_chunked_prefill.py``
stay bit-identical.  With observers attached the only cost is the
dispatch of the callbacks they override: the engine and the event
driver leave the inherited no-ops (flagged ``noop_hook``) out of their
per-request and per-epoch dispatch (benchmarked at <=5% for a no-op
observer in
``benchmarks/test_bench_serving.py::test_bench_observer_overhead``).

Subclass :class:`Observer` and override the callbacks you need; the base
class implements every callback as a no-op, so subclasses stay compatible
when new hooks are added.  Concrete observers shipped with the layer:
:class:`~repro.obs.spans.SpanTracer` (per-request spans, Chrome trace
export, SLO attribution) and :class:`~repro.obs.timeline.MetricsTimeline`
(interval-sampled gauge timeseries).
"""

from __future__ import annotations


class Observer:
    """No-op base class for serving observers.

    Times are simulated seconds; ``replica`` is the run's index inside its
    serve (always 0 for a single-engine serve).  ``gauges`` in
    :meth:`on_serve_start` is a live read-only view of the replica's run
    state (see :class:`repro.serving.engine.RunGauges`) that stays valid
    for the whole serve — sample it from any later callback.
    """

    def on_serve_start(self, replica: int, gauges) -> None:
        """A replica run was created; ``gauges`` views its live state."""

    def on_arrival(self, replica: int, time: float, request) -> None:
        """``request`` was routed to ``replica`` and joined its queue."""

    def on_admission(self, replica: int, time: float, request,
                     prefix_hit: bool = False,
                     resumed: bool = False) -> None:
        """``request`` entered the running batch (``resumed`` after a
        preemption, with any retained KV already swapped back in)."""

    def on_prefill(self, replica: int, start: float, end: float,
                   requests) -> None:
        """One batched inline prefill pass over the just-admitted
        ``requests`` (chunking disabled)."""

    def on_prefill_chunk(self, replica: int, start: float, end: float,
                         parts) -> None:
        """One budget-sized prefill chunk; ``parts`` is ``[(request,
        tokens), ...]`` for the participating requests."""

    def on_epoch(self, replica: int, start: float, end: float, kind: str,
                 steps: int, first_token_time: float, batch) -> None:
        """One priced decode epoch over ``batch`` (the fixed running
        composition).  ``kind`` is the boundary reason — ``completion``,
        ``epoch-boundary``, or ``preemption``."""

    def on_preemption(self, replica: int, start: float, end: float,
                      request, mode: str, resident_tokens: int) -> None:
        """``request`` was evicted from the batch; ``[start, end]`` covers
        the swap-out (``end == start`` under ``"recompute"``)."""

    def on_completion(self, replica: int, record) -> None:
        """``record`` (a :class:`~repro.serving.trace.RequestRecord`) was
        written to the trace."""

    def on_assign(self, time: float, request, replica: int) -> None:
        """The cluster router dispatched ``request`` to ``replica``."""

    def on_prefix(self, replica: int, time: float, event: str,
                  session_id, tokens: int) -> None:
        """Prefix-cache traffic: ``event`` is ``"hit"``, ``"miss"``, or
        ``"evict"``; ``tokens`` sizes the entry involved."""

    def on_replica_fail(self, replica: int, time: float,
                        mode: str) -> None:
        """``replica`` went down (fault injection); ``mode`` is
        ``"crash"`` (KV lost instantly) or ``"drain"`` (resident work
        migrated with priced KV transfers)."""

    def on_replica_recover(self, replica: int, time: float) -> None:
        """``replica`` came back up, cold (empty KV, flushed prefix
        cache)."""

    def on_retry(self, replica: int, time: float, request,
                 attempt: int) -> None:
        """``request``, interrupted on failed ``replica``, will re-enter
        the arrival stream at ``time`` as retry number ``attempt``."""

    def on_shed(self, time: float, request) -> None:
        """``request`` was dropped by degraded-mode load shedding (it
        terminates as a ``shed`` record, never reaching a replica)."""

    def on_event(self, time: float, kind: str, replica: int) -> None:
        """Raw driver stream: every event the merged heap processed, in
        order (the same tuples an ``event_journal`` receives)."""

    def on_serve_end(self, replica: int, time: float) -> None:
        """The replica's run drained; ``time`` is its final clock."""

    def finish(self, trace, class_slos: dict | None = None) -> None:
        """The serve finished; ``trace`` is the final (cluster) trace.

        Called once per serve after metadata is written, with the
        normalized per-class SLOs in force — the hook where an observer
        may attach derived artifacts to ``trace.metadata``.
        """


# Flag the inherited no-op callbacks, so the serving core can leave the
# callbacks an observer does not override out of its dispatch
# (repro.serving.events.observer_hooks).
for _name, _callback in vars(Observer).items():
    if _name.startswith("on_"):
        _callback.noop_hook = True
del _name, _callback
