"""Discrete-event driver for the serving and cluster layers.

The clock-stepped serving loop advanced wall-clock time iteration by
iteration, so simulating an idle second cost as much as a busy one.  The
event-driven core instead jumps between the instants where something can
actually change:

* **arrival** — the next request of the (sorted) arrival source reaches the
  front-end and is routed to exactly one replica run;
* **epoch-boundary** — a replica's priced decode epoch ends early because
  its queue head became admissible (the batch composition changes);
* **completion** — a replica's priced decode epoch ends because its
  shortest-remaining requests produce their last token.

:func:`drive` merges these into one :mod:`heapq` stream over any number of
replica runs (``ContinuousBatchingEngine.start_run`` builds one run per
replica) and a ``route`` callback that picks the run each arrival joins.

Heap invariants
---------------
1. **Arrivals outrun run events at equal timestamps.**  Admission uses
   ``arrival_time <= clock``, so a request arriving exactly at an epoch
   boundary must already be queued when the boundary is processed —
   otherwise the next epoch would be priced against the wrong queue head.
2. **At most one scheduled event per run, and it never changes.**  A run's
   next event is a pure function of its state; new arrivals only append to
   the run's FCFS queue tail, which cannot affect an already-priced epoch
   (the epoch cut depends only on the queue *head*).
3. **A run prices an epoch only when its next queue head is known** — its
   pending queue is non-empty or the source is exhausted (``close``).  The
   epoch cut depends on the next routed request even when that request
   arrives after the epoch's natural end, so a run with an empty queue
   *blocks* (consumes zero work) until the next arrival is routed to it or
   the source closes.  This is the conservative-synchronization condition
   that keeps event-driven traces bit-identical to the clock-stepped loop.
4. **One lazy arrival at a time.**  Only the next unrouted request sits in
   the heap, so a million-request source never materializes: memory holds
   the heap (O(replicas)), each run's backlog, and the metric sinks.

Ties between run events at one timestamp break by run index, and the heap
sequence number makes every entry unique — ordering is deterministic, which
is what makes serving traces a pure function of ``(trace seed, routing
policy, router seed)``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro._common import ConfigurationError
from repro.serving.trace import normalize_class_slos
from repro.workloads.arrivals import Request

#: Event kinds, as they appear in ``drive``'s journal.
ARRIVAL = "arrival"
ADMISSION = "admission"
EPOCH_BOUNDARY = "epoch-boundary"
COMPLETION = "completion"
#: An epoch cut short because a higher-priority arrival will evict running
#: lower-priority requests at the boundary (engines built with
#: ``preemption="retain"`` or ``"recompute"``; never emitted otherwise, so
#: preemption-free journals are unchanged).
PREEMPTION = "preemption"
#: One budget-sized slice of a chunked prefill pass (engines built with
#: ``prefill_chunk_tokens=N``).  Chunks are fixed-duration events — they are
#: never cut by arrivals — and admission/preemption runs between them, which
#: is what bounds the wait of a higher-priority arrival to one chunk's
#: priced time.  Never emitted with chunking disabled, so chunk-free
#: journals are unchanged.
PREFILL_CHUNK = "prefill-chunk"
#: A replica goes down / comes back per a :mod:`repro.faults` schedule
#: (serves with ``faults=``).  Fault events outrank even arrivals at equal
#: timestamps, so routing always sees the current health; never emitted
#: with ``faults=None``, so fault-free journals are unchanged.
REPLICA_FAIL = "replica-fail"
REPLICA_RECOVER = "replica-recover"

#: Marker in the heap's index slot distinguishing re-injected retry
#: arrivals from source arrivals (which trigger the one-ahead pull).
_RETRY = "retry"


class ReplicaRun(Protocol):
    """What :func:`drive` needs from a replica run (see ``EngineRun``)."""

    def offer(self, request: Request) -> tuple[float, str] | None:
        """Queue an arrival; return a newly scheduled ``(time, kind)``."""

    def advance(self) -> tuple[float, str] | None:
        """Process the run's scheduled event; return the next one."""

    def close(self) -> tuple[float, str] | None:
        """No further arrivals will be offered; return a scheduled event."""

    @property
    def finished(self) -> bool:
        """True once the run has drained its queue and running batch."""


class ContinuationSource(Protocol):
    """An arrival source fed by the simulation it drives (closed loop).

    Unlike a plain iterable, a continuation source's future arrivals may
    depend on completions the engine has not produced yet: popping returns
    ``None`` while the source is *waiting* (turns outstanding but none
    ready), and only :attr:`exhausted` says no arrival will ever come
    again.  The serve layer feeds completions back through whatever
    callback the source exposes (see
    ``repro.workloads.sessions.ClosedLoopSessions.on_completion``) —
    :func:`drive` itself only pops.
    """

    def peek_time(self) -> float | None:
        """Arrival time of the earliest ready request (None when none)."""

    def pop_next(self) -> Request | None:
        """Pop the earliest ready request (None when none is ready)."""

    @property
    def exhausted(self) -> bool:
        """True once every request has been popped — none will ever follow."""


def check_observers(observers) -> tuple:
    """Canonicalise an ``observers=`` serve argument to a tuple.

    ``None``/empty becomes ``()`` — the zero-overhead path every hook
    site guards on.  Anything else must be a list/tuple of objects
    implementing the :class:`repro.obs.Observer` callbacks (duck-typed:
    the serving core never imports :mod:`repro.obs`); a plainly wrong
    argument fails here rather than deep inside a serve.
    """
    if not observers:
        return ()
    if not isinstance(observers, (list, tuple)):
        raise ConfigurationError(
            "observers must be a list/tuple of Observer-like objects "
            f"(got {type(observers).__name__}; wrap a single observer in "
            "a list)"
        )
    for observer in observers:
        if not callable(getattr(observer, "on_completion", None)):
            raise ConfigurationError(
                f"observer {observer!r} does not implement the Observer "
                "callbacks (subclass repro.obs.Observer)"
            )
    return tuple(observers)


def observer_hooks(observers: tuple, name: str) -> tuple:
    """The observers' bound ``name`` callbacks, minus inherited no-ops.

    :class:`repro.obs.Observer` flags its no-op callbacks ``noop_hook``.
    Leaving them out lets a hook site that only no-ops would reach skip
    the dispatch, and any argument it builds, behind one falsy check.
    """
    return tuple(hook for hook in (getattr(observer, name)
                                   for observer in observers)
                 if not getattr(hook, "noop_hook", False))


def notify_finish(observers, trace, class_slos: dict | None) -> None:
    """Call every observer's ``finish`` hook with the final trace.

    Runs after the serve's metadata (including ``wall_clock_s``) is
    written, with the normalized per-class SLOs — the point where e.g.
    :class:`repro.obs.SpanTracer` attaches
    ``trace.metadata["slo_attribution"]``.
    """
    if not observers:
        return
    slos = normalize_class_slos(class_slos)
    for observer in observers:
        observer.finish(trace, slos)


def drive(source, runs: list[ReplicaRun],
          route: Callable[[Request], int],
          journal: list | None = None,
          observers: tuple = (),
          faults=None) -> None:
    """Run the merged event loop to completion.

    ``source`` yields requests in ``(arrival_time, request_id)`` order (one
    is pulled ahead at a time, so generators and streams never
    materialize); ``route(request)`` returns the index of the run each
    arrival joins, called exactly once per request in arrival order —
    dispatch-time routing, exactly as a front-end load balancer decides.
    ``journal``, when given, receives ``(time, kind, run_index)`` tuples
    for every processed event (a test/debug surface; see
    ``tests/test_serving_events.py``).  ``observers`` receive the same
    stream through their ``on_event`` hook (see :mod:`repro.obs`),
    *before* the event is applied — discrete-event state is piecewise
    constant, so that is the state at the event instant.

    A :class:`ContinuationSource` (anything with ``pop_next``) switches to
    the closed-loop body: arrivals are popped only when they precede every
    scheduled run event, so turns injected by completions mid-loop are
    served in true time order, and runs are closed only once the source is
    exhausted — not merely momentarily empty.

    ``faults``, when given, is a bound
    :class:`repro.faults.FaultCoordinator` and switches to the
    fault-injection body (:func:`_drive_with_faults`) — a separate loop,
    so serves with ``faults=None`` execute exactly the instruction stream
    they always did.
    """
    if not runs:
        raise ConfigurationError("drive needs at least one replica run")
    if faults is not None:
        if hasattr(source, "pop_next"):
            raise ConfigurationError(
                "fault injection does not support closed-loop sources — "
                "lower the session trace to its open-loop request stream"
            )
        _drive_with_faults(source, runs, journal, observers, faults)
        return
    if hasattr(source, "pop_next"):
        _drive_continuation(source, runs, route, journal, observers)
        return
    on_event = observer_hooks(observers, "on_event")
    arrivals = iter(source)
    heap: list[tuple] = []
    sequence = 0
    last_key: tuple[float, int] | None = None
    closed = False

    def push_run_event(index: int, event: tuple[float, str] | None) -> None:
        nonlocal sequence
        if event is None:
            return
        time, kind = event
        sequence += 1
        # Run events tie-break after arrivals (invariant 1) and between
        # themselves by run index; the sequence number keeps entries unique
        # so heapq never compares payloads.
        heapq.heappush(heap, (time, index, sequence, kind, index, None))

    def pull_arrival() -> None:
        nonlocal sequence, closed, last_key
        if closed:
            return
        request = next(arrivals, None)
        if request is None:
            closed = True
            for index, run in enumerate(runs):
                push_run_event(index, run.close())
            return
        key = (request.arrival_time, request.request_id)
        if last_key is not None and key < last_key:
            raise ConfigurationError(
                f"arrival source must be sorted by (arrival_time, "
                f"request_id); got {key} after {last_key}"
            )
        last_key = key
        sequence += 1
        heapq.heappush(heap,
                       (request.arrival_time, -1, sequence, ARRIVAL, None,
                        request))

    pull_arrival()
    while heap:
        time, _, _, kind, index, request = heapq.heappop(heap)
        if kind == ARRIVAL:
            target = route(request)
            if not 0 <= target < len(runs):
                raise ConfigurationError(
                    f"route() must return a run index in [0, {len(runs)}), "
                    f"got {target!r}"
                )
            if journal is not None:
                journal.append((time, ARRIVAL, target))
            if on_event:
                for hook in on_event:
                    hook(time, ARRIVAL, target)
            push_run_event(target, runs[target].offer(request))
            pull_arrival()
        else:
            if journal is not None:
                journal.append((time, kind, index))
            if on_event:
                for hook in on_event:
                    hook(time, kind, index)
            push_run_event(index, runs[index].advance())

    for index, run in enumerate(runs):
        if not run.finished:
            raise ConfigurationError(
                f"event loop drained with run {index} unfinished — a run "
                f"scheduled no event while holding work (driver invariant "
                f"violation)"
            )


def _drive_continuation(source, runs: list[ReplicaRun],
                        route: Callable[[Request], int],
                        journal: list | None = None,
                        observers: tuple = ()) -> None:
    """Closed-loop body of :func:`drive` (see :class:`ContinuationSource`).

    The one-ahead pull of the open-loop body is unsound here: a completion
    at time ``t`` may inject a turn earlier than an arrival already pulled
    into the heap.  Instead the source is *peeked* every iteration and an
    arrival is popped only when it precedes every scheduled run event
    (arrivals win ties, invariant 1), which keeps the offered order sorted:
    any turn injected later departs from a completion at or after the
    current heap minimum, so it can never predate an arrival already
    popped.  Runs are closed only when the source is exhausted — a
    momentarily-empty source still owes the arrivals its outstanding
    completions will trigger.  Runs driven closed-loop must therefore never
    block awaiting their next queue head (``EngineRun`` is built with
    ``eager_epochs=True``), or the loop would deadlock on the circular wait
    between an epoch's cut and the arrival it produces.
    """
    heap: list[tuple] = []
    sequence = 0
    closed = False
    on_event = observer_hooks(observers, "on_event")

    def push_run_event(index: int, event: tuple[float, str] | None) -> None:
        nonlocal sequence
        if event is None:
            return
        time, kind = event
        sequence += 1
        heapq.heappush(heap, (time, index, sequence, kind, index, None))

    while True:
        ready = source.peek_time()
        if ready is not None and (not heap
                                  or (ready, -1) <= (heap[0][0], heap[0][1])):
            request = source.pop_next()
            target = route(request)
            if not 0 <= target < len(runs):
                raise ConfigurationError(
                    f"route() must return a run index in [0, {len(runs)}), "
                    f"got {target!r}"
                )
            if journal is not None:
                journal.append((request.arrival_time, ARRIVAL, target))
            if on_event:
                for hook in on_event:
                    hook(request.arrival_time, ARRIVAL, target)
            push_run_event(target, runs[target].offer(request))
            continue
        if ready is None and source.exhausted and not closed:
            closed = True
            for index, run in enumerate(runs):
                push_run_event(index, run.close())
            continue
        if not heap:
            break
        time, _, _, kind, index, _ = heapq.heappop(heap)
        if journal is not None:
            journal.append((time, kind, index))
        if on_event:
            for hook in on_event:
                hook(time, kind, index)
        push_run_event(index, runs[index].advance())

    if not source.exhausted:
        raise ConfigurationError(
            "closed-loop event loop drained with the source still waiting "
            "for completions — a run dropped work without recording it"
        )
    for index, run in enumerate(runs):
        if not run.finished:
            raise ConfigurationError(
                f"event loop drained with run {index} unfinished — a run "
                f"scheduled no event while holding work (driver invariant "
                f"violation)"
            )


def _drive_with_faults(source, runs: list[ReplicaRun],
                       journal: list | None, observers: tuple,
                       faults) -> None:
    """Fault-injection body of :func:`drive`.

    Differences from the open-loop body, each forced by failures:

    * **fault events** — the coordinator's fail/recover timeline is pushed
      up front at priority ``-2``, so a failure at time ``t`` is processed
      before an arrival at ``t`` (routing sees current health) and before
      any run event at ``t`` (an epoch "ending" at the crash instant never
      lands);
    * **stale-event invalidation** — invariant 2 ("a scheduled run event
      never changes") breaks when a replica fails: its in-flight event is
      cancelled.  Each run's live event sequence number is tracked in
      ``valid``; popped run events whose sequence no longer matches are
      skipped;
    * **coordinator dispatch** — arrivals (and re-injected retries, pushed
      at priority ``-1`` like source arrivals) route through
      ``faults.dispatch``, which may shed or park them instead of
      returning a run index;
    * **late offers** — retries and parked arrivals may be offered after
      the source closed and out of ``(arrival_time, request_id)`` order;
      runs built for fault mode accept both (``EngineRun(fault_mode=True)``).
    """
    arrivals = iter(source)
    heap: list[tuple] = []
    sequence = 0
    last_key: tuple[float, int] | None = None
    closed = False
    #: Per-run sequence number of the one live scheduled event (0 = none);
    #: a failure zeroes it, orphaning the heap entry.
    valid = [0] * len(runs)
    on_event = observer_hooks(observers, "on_event")

    def emit(time: float, kind: str, index: int) -> None:
        if journal is not None:
            journal.append((time, kind, index))
        if on_event:
            for hook in on_event:
                hook(time, kind, index)

    def push_run_event(index: int, event: tuple[float, str] | None) -> None:
        nonlocal sequence
        if event is None:
            # No new event scheduled; any live one stays valid (only a
            # failure invalidates).
            return
        time, kind = event
        sequence += 1
        valid[index] = sequence
        heapq.heappush(heap, (time, index, sequence, kind, index, None))

    def push_arrival(time: float, marker, request: Request) -> None:
        nonlocal sequence
        sequence += 1
        heapq.heappush(heap, (time, -1, sequence, ARRIVAL, marker, request))

    def dispatch(time: float, request: Request, retrying: bool) -> None:
        target = faults.dispatch(time, request, retrying)
        emit(time, ARRIVAL, -1 if target is None else target)
        if target is not None:
            push_run_event(target, runs[target].offer(request, now=time))

    def pull_arrival() -> None:
        nonlocal closed, last_key
        if closed:
            return
        request = next(arrivals, None)
        if request is None:
            closed = True
            for index, run in enumerate(runs):
                push_run_event(index, run.close())
            return
        key = (request.arrival_time, request.request_id)
        if last_key is not None and key < last_key:
            raise ConfigurationError(
                f"arrival source must be sorted by (arrival_time, "
                f"request_id); got {key} after {last_key}"
            )
        last_key = key
        push_arrival(request.arrival_time, None, request)

    for time, kind, replica in faults.timeline():
        sequence += 1
        heapq.heappush(heap, (time, -2, sequence, kind, replica, None))

    pull_arrival()
    while heap:
        time, _, seq, kind, index, request = heapq.heappop(heap)
        if kind == ARRIVAL:
            from_source = request is not None and index is None
            dispatch(time, request, retrying=index is _RETRY)
            if from_source:
                pull_arrival()
        elif kind == REPLICA_FAIL:
            emit(time, REPLICA_FAIL, index)
            valid[index] = 0  # the run's in-flight event died with it
            for retry_time, retry_request in faults.fail(time, index):
                push_arrival(retry_time, _RETRY, retry_request)
        elif kind == REPLICA_RECOVER:
            emit(time, REPLICA_RECOVER, index)
            event, released = faults.recover(time, index)
            push_run_event(index, event)
            for parked_request, retrying in released:
                dispatch(time, parked_request, retrying)
        else:
            if seq != valid[index]:
                continue  # cancelled by a failure after it was scheduled
            emit(time, kind, index)
            push_run_event(index, runs[index].advance())

    faults.finish()
    for index, run in enumerate(runs):
        if not run.finished:
            raise ConfigurationError(
                f"event loop drained with run {index} unfinished — a run "
                f"scheduled no event while holding work (driver invariant "
                f"violation)"
            )
