"""Per-request span tracing over the serving event stream.

:class:`SpanTracer` subscribes to every engine hook and reconstructs each
request's lifecycle as a sequence of **spans** in simulated time::

    queue -> admission -> prefill (passes/chunks) -> decode epochs
          -> [preemption swap -> preempted wait -> resume] -> completion

Span boundaries are the exact clocks the engine used, so they reconcile
bit-for-bit with the :class:`~repro.serving.trace.RequestRecord`
timestamps (``queue`` starts at ``arrival_time`` and ends at
``admission_time``; the last span ends at ``completion_time`` — pinned in
``tests/test_obs.py``).

Cost: O(1) per engine event
---------------------------
A prefill pass or chunk stalls every request resident on its replica,
and a decode epoch runs exactly the resident batch.  So each of them is
one entry on the replica's engine track (the list behind the Chrome
``engine`` thread), and no request is touched.  A request keeps only its
own ``queue``/``preempted`` waits plus *residency windows* — index ranges
into its replicas' tracks.  Admission opens a window; preemption,
completion and the replica's failure close it.  :meth:`SpanTracer.spans_for`
and the Chrome export build the coalesced spans from the windows when
they are read, and :meth:`SpanTracer.finish` sums each request's prefill
time from per-track tables of coalesced prefill runs.  A failed
replica's requests leave its batch at the failure: after a retry they
never collect that replica's later stalls.  ``tests/test_span_oracle.py``
checks every output against an eager tracer that updates each resident
request at every event (``tests/span_reference.py``).

Chrome trace export
-------------------
:meth:`SpanTracer.export` writes the spans as Chrome trace-event JSON —
load the file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
The track layout follows the cluster topology: one *process* per replica,
and inside it one ``engine`` thread carrying the replica-level slices
(prefill passes, prefill chunks, decode epochs as complete ``"X"``
events) plus one thread per SLO class carrying the per-request spans as
nestable async ``"b"``/``"e"`` pairs (async events tolerate the overlap
of concurrently-resident requests).  Timestamps are simulated seconds
scaled to microseconds, Perfetto's native unit.

Attribution
-----------
:meth:`SpanTracer.finish` (called automatically at the end of a serve)
decomposes every completed request's latency into queueing / prefill /
preemption / decode components (:mod:`repro.obs.attribution`) and — when
per-class SLOs are in force — attaches the per-class blame table to
``trace.metadata["slo_attribution"]``.  The exported JSON carries the
same tables under ``otherData`` for ``python -m repro.obs.report``.
"""

from __future__ import annotations

import json
import pathlib
from bisect import bisect_left

from repro._common import ConfigurationError
from repro.obs.attribution import blame_table, latency_components, violations
from repro.obs.observer import Observer
from repro.serving.trace import normalize_class_slos
from repro.workloads.arrivals import SLO_CLASSES

#: Span categories, in lifecycle order.
SPAN_CATEGORIES = ("queue", "prefill", "decode", "preempted")


#: Engine-track slices that stall every resident request, mapped to the
#: span category they give it (prefill never overlaps decode).
_STALLS = {"prefill": "prefill", "prefill-chunk": "prefill",
           "decode-epoch": "decode"}


def _add(segments: list, category: str, start: float, end: float) -> None:
    """Append a span, extending the last one when it is the same category
    and ends where this one starts."""
    if segments and segments[-1][0] == category \
            and segments[-1][2] == start:
        segments[-1][2] = end
    else:
        segments.append([category, start, end])


class _Track:
    """One replica's engine track and residents.

    ``slices`` holds ``(name, start, end, args, first_token_time)``
    entries in event order (``first_token_time`` is ``None`` except on
    decode epochs); ``stall_end`` is one past the last stall entry.
    """

    __slots__ = ("slices", "stall_end", "resident")

    def __init__(self) -> None:
        self.slices: list[tuple] = []
        self.stall_end = 0
        #: The request states currently in this replica's running batch.
        self.resident: set = set()

    def stall(self, entry: tuple) -> None:
        self.slices.append(entry)
        self.stall_end = len(self.slices)

    def leave(self, state: _RequestSpans) -> None:
        """``state`` left this replica's batch: close its window."""
        if state in self.resident:
            self.resident.remove(state)
            state.close()


class _Tracks(dict):
    """replica -> :class:`_Track`, created on first use."""

    def __missing__(self, replica: int) -> _Track:
        track = self[replica] = _Track()
        return track


class _RequestSpans:
    """Per-request span state: the request's own waits plus residency
    windows into its replicas' engine tracks.

    Each admission appends a *stay* ``[category, start, end, track, first,
    stop]``: the ``queue`` (or ``preempted``) wait that ended at the
    admission, then the residency window ``track.slices[first:stop]``.
    ``stop`` is ``None`` while the request is resident and, once the
    window closes, one past its last stall entry (``first`` when it has
    none).  Every stall entry in a window stalled the request: decode
    epochs run exactly the resident batch, prefill passes and chunks
    stall it.
    """

    __slots__ = ("request", "replica", "arrival", "stays", "cursor",
                 "record")

    def __init__(self, request, replica: int, arrival: float) -> None:
        self.request = request
        self.replica = replica
        self.arrival = arrival
        self.stays: list[list] = []
        #: Where the next wait starts: the last span's end, or the start
        #: of the preemption that evicted the request.
        self.cursor = arrival
        self.record = None

    def admit(self, category: str, time: float, track: _Track) -> None:
        stays = self.stays
        last = stays[-1] if stays else None
        if (last is not None and last[4] == last[5] and last[0] == category
                and last[2] == self.cursor):
            # The last residency stalled nothing: the two waits coalesce,
            # and the empty window is dropped.
            last[2:] = [time, track, len(track.slices), None]
        else:
            stays.append([category, self.cursor, time, track,
                          len(track.slices), None])
        self.cursor = time

    def close(self) -> None:
        """End the open residency window (preemption, completion, or the
        replica's failure)."""
        stay = self.stays[-1]
        track, first = stay[3], stay[4]
        stop = stay[5] = max(first, track.stall_end)
        if stop > first:
            self.cursor = track.slices[stop - 1][2]

    def windows(self):
        """``(track, first, stop)`` of every residency, in order."""
        for stay in self.stays:
            track, first, stop = stay[3], stay[4], stay[5]
            if stop is None:
                stop = max(first, track.stall_end)
            yield track, first, stop

    def segments(self) -> list[list]:
        """Coalesced ``[category, start, end]`` spans, chronological."""
        segments: list[list] = []
        for stay, (track, first, stop) in zip(self.stays, self.windows()):
            _add(segments, stay[0], stay[1], stay[2])
            for index in range(first, stop):
                name, start, end = track.slices[index][:3]
                category = _STALLS.get(name)
                if category is not None:
                    _add(segments, category, start, end)
        return segments

    @property
    def first_token(self) -> float | None:
        """First-token time of the first decode epoch the request ran in."""
        for track, first, stop in self.windows():
            for index in range(first, stop):
                entry = track.slices[index]
                if entry[0] == "decode-epoch":
                    return entry[4]
        return None

    def end_time(self, segments: list) -> float:
        """Where the request's spans end so far (``segments`` is
        :meth:`segments`)."""
        if self.record is not None:
            return self.record.completion_time
        if self.stays and self.stays[-1][5] is None:
            return segments[-1][2]  # still resident
        return self.cursor

    def preemption_s(self):
        """Summed ``preempted`` wait time (waits coalesce at admission,
        so these are the ``preempted`` spans of :meth:`segments`)."""
        return sum(end - start for category, start, end, *_ in self.stays
                   if category == "preempted")

    def prefill_s(self, runs: dict):
        """Summed prefill span time from each track's
        :class:`_PrefillRuns`: the same ``sum()`` over the same span
        lengths, in the same order, as over :meth:`segments`."""
        parts: list[float] = []
        for track, first, stop in self.windows():
            runs[track].clip(first, stop, parts)
        return sum(parts)


class _PrefillRuns:
    """One track's coalesced prefill runs.

    A prefill entry continues a run when the previous stall entry is a
    prefill that ends where it starts (the span merge rule), so a
    request's prefill spans are these runs clipped to its windows.
    """

    __slots__ = ("slices", "positions", "run_stop", "tail")

    def __init__(self, slices: list) -> None:
        positions: list[int] = []  # slice index of each prefill entry
        heads: list[bool] = []  # whether it starts a run
        previous_end = None
        for index, entry in enumerate(slices):
            category = _STALLS.get(entry[0])
            if category == "prefill":
                positions.append(index)
                heads.append(previous_end != entry[1])
                previous_end = entry[2]
            elif category is not None:
                previous_end = None
        count = len(positions)
        #: For the k-th prefill entry: one past its run's last entry, and
        #: the span from its start to that run's end.
        run_stop = [count] * count
        tail = [0.0] * count
        stop = count
        for k in range(count - 1, -1, -1):
            run_stop[k] = stop
            tail[k] = slices[positions[stop - 1]][2] - slices[positions[k]][1]
            if heads[k]:
                stop = k
        self.slices = slices
        self.positions = positions
        self.run_stop = run_stop
        self.tail = tail

    def clip(self, first: int, stop: int, parts: list) -> None:
        """Append the lengths of the runs clipped to ``slices[first:stop]``
        to ``parts``, in order."""
        positions, run_stop = self.positions, self.run_stop
        index = bisect_left(positions, first)
        end = bisect_left(positions, stop)
        while index < end:
            last = run_stop[index]
            if last > end:  # the window ends inside this run
                slices = self.slices
                parts.append(slices[positions[end - 1]][2]
                             - slices[positions[index]][1])
                return
            parts.append(self.tail[index])
            index = last


class SpanTracer(Observer):
    """Observer reconstructing per-request spans from the event hooks.

    Attach to any serve (``engine.serve(..., observers=[tracer])`` or
    ``group.serve(..., observers=[tracer])``); one tracer may span a whole
    cluster serve — spans carry their replica index.  The tracer is
    single-serve: build a fresh one per serve.
    """

    def __init__(self) -> None:
        #: request_id -> in-flight span state.
        self._states: dict[int, _RequestSpans] = {}
        #: replica -> its engine track and resident requests.
        self._tracks = _Tracks()
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
        self._tracks[replica]  # creates the replica's track

    def on_arrival(self, replica: int, time: float, request) -> None:
        state = self._states.get(request.request_id)
        if state is not None:
            # Retry re-dispatch after a replica failure: keep the span
            # history from the failed attempt; the request simply queues
            # again on its new replica (the gap shows up as queue time).
            state.replica = replica
            return
        self._states[request.request_id] = _RequestSpans(
            request, replica, time)

    def on_admission(self, replica: int, time: float, request,
                     prefix_hit: bool = False,
                     resumed: bool = False) -> None:
        state = self._state(request, replica)
        track = self._tracks[replica]
        state.admit("preempted" if resumed else "queue", time, track)
        track.resident.add(state)

    # A prefill pass or chunk stalls the whole resident batch and a decode
    # epoch runs exactly that batch, so each is one entry on the replica's
    # track; requests read their spans off it through their windows.
    def on_prefill(self, replica: int, start: float, end: float,
                   requests) -> None:
        self._tracks[replica].stall(
            ("prefill", start, end,
             {"batch": len(requests),
              "request_ids": [r.request_id for r in requests]}, None))

    def on_prefill_chunk(self, replica: int, start: float, end: float,
                         parts) -> None:
        self._tracks[replica].stall(
            ("prefill-chunk", start, end,
             {"parts": [[request.request_id, tokens]
                        for request, tokens in parts]}, None))

    def on_epoch(self, replica: int, start: float, end: float, kind: str,
                 steps: int, first_token_time: float, batch) -> None:
        self._tracks[replica].stall(
            ("decode-epoch", start, end,
             {"kind": kind, "steps": steps, "batch": len(batch)},
             first_token_time))

    def on_preemption(self, replica: int, start: float, end: float,
                      request, mode: str, resident_tokens: int) -> None:
        state = self._state(request, replica)
        track = self._tracks[replica]
        track.leave(state)
        state.cursor = start
        track.slices.append(
            ("preempt-swap", start, end,
             {"request_id": request.request_id, "mode": mode,
              "resident_tokens": resident_tokens}, None))

    def on_completion(self, replica: int, record) -> None:
        state = self._states.get(record.request_id)
        if state is None:
            return
        state.record = record
        self._tracks[replica].leave(state)

    def on_replica_fail(self, replica: int, time: float,
                        mode: str) -> None:
        self._outage_started[replica] = (time, mode)
        # The failed replica's batch is gone: its requests retry elsewhere
        # or fail, and must not collect the replica's later stalls.
        track = self._tracks[replica]
        for state in track.resident:
            state.close()
        track.resident.clear()
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
        return [tuple(segment) for segment in state.segments()]

    # ------------------------------------------------------------------ #
    # Chrome trace export
    # ------------------------------------------------------------------ #
    def to_chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event JSON object (dict form)."""
        scale = 1e6  # simulated seconds -> trace microseconds
        tids = {name: 1 + index for index, name in enumerate(SLO_CLASSES)}
        events: list[dict] = []
        replicas = sorted(set(self._tracks)
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
            track = self._tracks.get(replica)
            for name, start, end, args, _ in (track.slices if track
                                              else ()):
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
            segments = state.segments()
            end_time = state.end_time(segments)
            events.append({"ph": "b", "pid": pid, "tid": tid,
                           "name": f"request-{request_id}",
                           "cat": "request", "id": span_id,
                           "ts": state.arrival * scale,
                           "args": {"slo_class": state.request.slo_class,
                                    "input_len": state.request.input_len,
                                    "output_len":
                                        state.request.output_len}})
            for category, start, end in segments:
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

    def _ensure_components(self) -> None:
        pending = [(request_id, state)
                   for request_id, state in self._states.items()
                   if state.record is not None
                   and request_id not in self.components]
        if not pending:
            return
        runs = {track: _PrefillRuns(track.slices)
                for track in self._tracks.values()}
        for request_id, state in pending:
            self.components[request_id] = latency_components(
                state.record, state.prefill_s(runs), state.preemption_s())

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
