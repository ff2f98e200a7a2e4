"""Reference implementation of the span tracer, for equivalence tests.

:class:`EagerSpanTracer` is the straightforward span tracer that keeps
each request's coalesced segments up to date at every engine event
(with a failed replica's residency ended at the failure).
``tests/test_span_oracle.py`` attaches it next to
:class:`repro.obs.spans.SpanTracer` on the same serves and requires equal
spans, components, attribution, first-token times and Chrome export.
It is test code only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import json
import pathlib

from repro._common import ConfigurationError
from repro.obs.attribution import blame_table, request_components, violations
from repro.obs.observer import Observer
from repro.serving.trace import normalize_class_slos
from repro.workloads.arrivals import SLO_CLASSES


class _RequestSpans:
    """Mutable per-request span state while its serve is in flight."""

    __slots__ = ("request", "replica", "arrival", "admission", "segments",
                 "cursor", "status", "record", "first_token")

    def __init__(self, request, replica: int, arrival: float) -> None:
        self.request = request
        self.replica = replica
        self.arrival = arrival
        self.admission: float | None = None
        #: Coalesced ``[category, start, end]`` triples, chronological.
        self.segments: list[list] = []
        self.cursor = arrival
        self.status = "queued"
        self.record = None
        self.first_token: float | None = None

    def add(self, category: str, start: float, end: float) -> None:
        segments = self.segments
        if segments and segments[-1][0] == category \
                and segments[-1][2] == start:
            segments[-1][2] = end
        else:
            segments.append([category, start, end])
        self.cursor = end


class EagerSpanTracer(Observer):
    """The eager span tracer: every prefill pass, prefill chunk and
    decode epoch appends a segment to each resident request, so one
    engine event costs O(batch).  Its outputs are the specification
    :class:`repro.obs.spans.SpanTracer` must reproduce exactly."""

    def __init__(self) -> None:
        #: request_id -> in-flight span state.
        self._states: dict[int, _RequestSpans] = {}
        #: replica -> request_ids currently in its running batch.
        self._resident: dict[int, set[int]] = {}
        #: replica -> engine-level ``(name, start, end, args)`` slices.
        self._engine_slices: dict[int, list] = {}
        #: Per-request latency components, filled by :meth:`finish` /
        #: :meth:`export`.
        self.components: dict[int, dict] = {}
        #: The per-class blame table, filled by :meth:`finish` when
        #: per-class SLOs were in force (``None`` otherwise).
        self.attribution: dict | None = None
        self._class_slos: dict = {}
        #: replica -> (fail_time, mode) of an outage still open.
        self._outage_started: dict[int, tuple[float, str]] = {}
        #: Closed ``(replica, start, end, mode)`` outage windows.
        self._outages: list[tuple[int, float, float, str]] = []
        #: Instant fault markers: ``(name, replica, time, args)``.
        self._fault_marks: list[tuple[str, int, float, dict]] = []
        #: The serve's resilience metadata block (fault serves only).
        self._resilience: dict | None = None

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def on_serve_start(self, replica: int, gauges) -> None:
        self._resident.setdefault(replica, set())
        self._engine_slices.setdefault(replica, [])

    def on_arrival(self, replica: int, time: float, request) -> None:
        state = self._states.get(request.request_id)
        if state is not None:
            # Retry re-dispatch after a replica failure: keep the span
            # history from the failed attempt; the request simply queues
            # again on its new replica (the gap shows up as queue time).
            state.replica = replica
            state.status = "queued"
            return
        self._states[request.request_id] = _RequestSpans(
            request, replica, time)

    def on_admission(self, replica: int, time: float, request,
                     prefix_hit: bool = False,
                     resumed: bool = False) -> None:
        state = self._state(request, replica)
        state.add("preempted" if resumed else "queue", state.cursor, time)
        if state.admission is None:
            state.admission = time
        state.status = "resident"
        self._resident.setdefault(replica, set()).add(request.request_id)

    def on_prefill(self, replica: int, start: float, end: float,
                   requests) -> None:
        self._stall_resident(replica, "prefill", start, end)
        self._engine_slices.setdefault(replica, []).append(
            ("prefill", start, end,
             {"batch": len(requests),
              "request_ids": [r.request_id for r in requests]}))

    def on_prefill_chunk(self, replica: int, start: float, end: float,
                         parts) -> None:
        self._stall_resident(replica, "prefill", start, end)
        self._engine_slices.setdefault(replica, []).append(
            ("prefill-chunk", start, end,
             {"parts": [[request.request_id, tokens]
                        for request, tokens in parts]}))

    def on_epoch(self, replica: int, start: float, end: float, kind: str,
                 steps: int, first_token_time: float, batch) -> None:
        for request in batch:
            state = self._state(request, replica)
            state.add("decode", start, end)
            if state.first_token is None:
                state.first_token = first_token_time
        self._engine_slices.setdefault(replica, []).append(
            ("decode-epoch", start, end,
             {"kind": kind, "steps": steps, "batch": len(batch)}))

    def on_preemption(self, replica: int, start: float, end: float,
                      request, mode: str, resident_tokens: int) -> None:
        state = self._state(request, replica)
        state.status = "preempted"
        state.cursor = start
        self._resident.setdefault(replica, set()).discard(
            request.request_id)
        self._engine_slices.setdefault(replica, []).append(
            ("preempt-swap", start, end,
             {"request_id": request.request_id, "mode": mode,
              "resident_tokens": resident_tokens}))

    def on_completion(self, replica: int, record) -> None:
        state = self._states.get(record.request_id)
        if state is None:
            return
        state.record = record
        state.status = "done"
        self._resident.setdefault(replica, set()).discard(
            record.request_id)

    def on_replica_fail(self, replica: int, time: float,
                        mode: str) -> None:
        self._outage_started[replica] = (time, mode)
        # The failed replica's batch is gone: its requests retry elsewhere
        # or fail, and must not collect the replica's later prefill stalls.
        self._resident[replica] = set()
        self._fault_marks.append(
            ("replica-fail", replica, time, {"mode": mode}))

    def on_replica_recover(self, replica: int, time: float) -> None:
        started = self._outage_started.pop(replica, None)
        if started is not None:
            start, mode = started
            self._outages.append((replica, start, time, mode))
        self._fault_marks.append(("replica-recover", replica, time, {}))

    def on_retry(self, replica: int, time: float, request,
                 attempt: int) -> None:
        self._fault_marks.append(
            ("retry", replica, time,
             {"request_id": request.request_id, "attempt": attempt}))

    def on_shed(self, time: float, request) -> None:
        # Sheds never reach a replica; they mark the first track.
        self._fault_marks.append(
            ("shed", 0, time, {"request_id": request.request_id,
                               "slo_class": request.slo_class}))

    def finish(self, trace, class_slos: dict | None = None) -> None:
        self._resilience = trace.metadata.get("resilience")
        self._class_slos = normalize_class_slos(class_slos)
        self._ensure_components()
        entries = [(state.record, self.components[request_id])
                   for request_id, state in sorted(self._states.items())
                   if state.record is not None]
        self.attribution = blame_table(entries, self._class_slos)
        if self._class_slos:
            trace.metadata["slo_attribution"] = self.attribution

    # ------------------------------------------------------------------ #
    # query surface
    # ------------------------------------------------------------------ #
    @property
    def request_ids(self) -> list[int]:
        return sorted(self._states)

    def spans_for(self, request_id: int) -> list[tuple[str, float, float]]:
        """The request's coalesced ``(category, start, end)`` spans."""
        state = self._states.get(request_id)
        if state is None:
            raise ConfigurationError(
                f"request {request_id} was never observed by this tracer"
            )
        return [tuple(segment) for segment in state.segments]

    # ------------------------------------------------------------------ #
    # Chrome trace export
    # ------------------------------------------------------------------ #
    def to_chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event JSON object (dict form)."""
        scale = 1e6  # simulated seconds -> trace microseconds
        tids = {name: 1 + index for index, name in enumerate(SLO_CLASSES)}
        events: list[dict] = []
        replicas = sorted(set(self._engine_slices)
                          | {state.replica
                             for state in self._states.values()}
                          | {replica for replica, *_ in self._outages}
                          | set(self._outage_started)
                          | {replica
                             for _, replica, _, _ in self._fault_marks})
        for replica in replicas:
            events.append({"ph": "M", "pid": replica, "tid": 0,
                           "name": "process_name",
                           "args": {"name": f"replica-{replica}"}})
            events.append({"ph": "M", "pid": replica, "tid": 0,
                           "name": "thread_name",
                           "args": {"name": "engine"}})
            for name, tid in tids.items():
                events.append({"ph": "M", "pid": replica, "tid": tid,
                               "name": "thread_name",
                               "args": {"name": f"requests:{name}"}})
        for replica in replicas:
            for name, start, end, args in self._engine_slices.get(
                    replica, []):
                events.append({"ph": "X", "pid": replica, "tid": 0,
                               "name": name, "cat": "engine",
                               "ts": start * scale,
                               "dur": (end - start) * scale, "args": args})
        # Fault markers (fault serves only): each outage window is a
        # complete slice on the failed replica's engine track, and the
        # individual fail/recover/retry/shed events are instants.
        for replica, start, end, mode in self._outages:
            events.append({"ph": "X", "pid": replica, "tid": 0,
                           "name": "outage", "cat": "fault",
                           "ts": start * scale,
                           "dur": (end - start) * scale,
                           "args": {"mode": mode}})
        for name, replica, time, args in self._fault_marks:
            events.append({"ph": "i", "pid": replica, "tid": 0,
                           "name": name, "cat": "fault",
                           "ts": time * scale, "s": "p", "args": args})
        for request_id, state in sorted(self._states.items()):
            pid = state.replica
            tid = tids[state.request.slo_class]
            span_id = str(request_id)
            end_time = (state.record.completion_time
                        if state.record is not None else state.cursor)
            events.append({"ph": "b", "pid": pid, "tid": tid,
                           "name": f"request-{request_id}",
                           "cat": "request", "id": span_id,
                           "ts": state.arrival * scale,
                           "args": {"slo_class": state.request.slo_class,
                                    "input_len": state.request.input_len,
                                    "output_len":
                                        state.request.output_len}})
            for category, start, end in state.segments:
                events.append({"ph": "b", "pid": pid, "tid": tid,
                               "name": category, "cat": "request",
                               "id": span_id, "ts": start * scale})
                events.append({"ph": "e", "pid": pid, "tid": tid,
                               "name": category, "cat": "request",
                               "id": span_id, "ts": end * scale})
            args = {}
            if state.record is not None:
                args = {"ttft_s": state.record.ttft,
                        "tpot_s": state.record.tpot,
                        "e2e_s": state.record.e2e_latency}
            events.append({"ph": "e", "pid": pid, "tid": tid,
                           "name": f"request-{request_id}",
                           "cat": "request", "id": span_id,
                           "ts": end_time * scale, "args": args})
        self._ensure_components()
        other = {"class_slos": {name: list(slo) for name, slo
                                in self._class_slos.items()},
                 # Without per-class SLOs no violation is definable, so a
                 # blame table would be an all-zeros decoy: export None and
                 # let the report fall back to the raw components.
                 "slo_attribution": (self.attribution if self._class_slos
                                     else None),
                 # Fault serves carry the resilience block alongside the
                 # attribution tables (None on fault-free serves).
                 "resilience": self._resilience,
                 "requests": self._request_payloads()}
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}

    def export(self, path) -> pathlib.Path:
        """Write :meth:`to_chrome_trace` to ``path``; returns the path."""
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_chrome_trace()))
        return path

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _state(self, request, replica: int) -> _RequestSpans:
        state = self._states.get(request.request_id)
        if state is None:
            # Defensive: an observer attached to a source that bypasses
            # on_arrival still builds a consistent span from arrival_time.
            state = _RequestSpans(request, replica, request.arrival_time)
            self._states[request.request_id] = state
        return state

    def _stall_resident(self, replica: int, category: str, start: float,
                        end: float) -> None:
        """Every resident request spends ``[start, end]`` in ``category``
        (prefill passes and chunks stall the whole batch — decode never
        overlaps them)."""
        for request_id in self._resident.get(replica, ()):
            state = self._states[request_id]
            state.add(category, start, end)

    def _ensure_components(self) -> None:
        for request_id, state in self._states.items():
            if state.record is None or request_id in self.components:
                continue
            self.components[request_id] = request_components(
                state.record, state.segments)

    def _request_payloads(self) -> dict:
        payloads = {}
        for request_id, state in sorted(self._states.items()):
            if state.record is None:
                continue
            record = state.record
            ttft_violated, tpot_violated = violations(record,
                                                      self._class_slos)
            payloads[str(request_id)] = {
                "slo_class": record.slo_class,
                "replica": state.replica,
                "ttft_s": record.ttft,
                "tpot_s": record.tpot,
                "e2e_s": record.e2e_latency,
                "ttft_violated": ttft_violated,
                "tpot_violated": tpot_violated,
                "components": self.components[request_id],
            }
        return payloads
