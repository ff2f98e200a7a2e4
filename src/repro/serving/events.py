"""Discrete-event driver for the serving and cluster layers.

The clock-stepped serving loop advanced wall-clock time iteration by
iteration, so simulating an idle second cost as much as a busy one.  The
event-driven core instead jumps between the instants where something can
actually change:

* **arrival** — the next request of the arrival source reaches the
  front-end and is routed to exactly one replica run;
* **epoch-boundary** — a replica's priced decode epoch ends early because
  its queue head became admissible (the batch composition changes);
* **completion** — a replica's priced decode epoch ends because its
  shortest-remaining requests produce their last token;
* **replica-fail / replica-recover** — a fault schedule takes a replica
  down or brings it back (serves with ``faults=``).

:func:`drive` merges these into one loop over one :mod:`heapq` of run
events (``ContinuousBatchingEngine.start_run`` builds one run per
replica) and one :class:`ArrivalSource`, with a ``route`` callback that
picks the run each arrival joins.  Every source kind speaks the one
protocol: a sorted list or a ``RequestStream`` through
:class:`OrderedArrivals` (a one-ahead buffer), a closed-loop session
source natively.  The driver *peeks* the source every iteration and pops
an arrival only when it precedes the heap's earliest entry, so turns a
closed-loop source injects on a completion are served in true time
order.  Fault injection adds three steps to the same loop: the schedule's
timeline enters the heap up front, stale run events are skipped by
sequence number, and arrivals dispatch through the coordinator.  Both
serve layers drive through :func:`serve_runs`, the one serve body.

Heap invariants
---------------
Every entry is ``(time, priority, sequence, kind, index, request)``.  The
pending source arrival takes part in the order as ``(time, -1,
sequence)`` without sitting in the heap; ``sequence`` is a counter shared
by every push (and reserved for the next source arrival right after the
previous one is dispatched), so entries are unique and heapq never
compares payloads.  At one timestamp the order is therefore: fault events
(priority ``-2``), then source arrivals and retries (priority ``-1``, by
push sequence), then run events (priority = run index).

1. **Arrivals outrun run events at equal timestamps.**  Admission uses
   ``arrival_time <= clock``, so a request arriving exactly at an epoch
   boundary must already be queued when the boundary is processed —
   otherwise the next epoch would be priced against the wrong queue head.
   Fault events outrun even arrivals, so routing sees the current health
   and an epoch "ending" at a crash instant never lands.
2. **At most one live scheduled event per run, and it never changes.**  A
   run's next event is a pure function of its state; new arrivals only
   append to the run's FCFS queue tail, which cannot affect an
   already-priced epoch (the epoch cut depends only on the queue *head*).
   Only a failure kills a live event: each run's live sequence number is
   kept in ``valid``, a failure zeroes it, and a popped run event whose
   sequence no longer matches is skipped.
3. **A run prices an epoch only when its next queue head is known** — its
   pending queue is non-empty or the source is exhausted (``close``).  The
   epoch cut depends on the next routed request even when that request
   arrives after the epoch's natural end, so a run with an empty queue
   *blocks* (consumes zero work) until the next arrival is routed to it or
   the source closes.  This is the conservative-synchronization condition
   that keeps event-driven traces bit-identical to the clock-stepped loop.
   Runs are closed only once the source is exhausted — a closed-loop
   source that is momentarily empty still owes the arrivals its
   outstanding completions trigger, so its runs are built with
   ``eager_epochs=True`` and never block.
4. **One lazy arrival at a time.**  Only the source's next arrival is
   visible to the loop, so a million-request source never materializes:
   memory holds the heap (O(replicas) plus pending retries), each run's
   backlog, and the metric sinks.

``tests/test_serving_events.py`` checks each invariant on the journal of
runs with fixed event times.  Ordering is deterministic, which is what
makes serving traces a pure function of ``(trace seed, routing policy,
router seed)``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro._common import ConfigurationError
from repro.serving.trace import normalize_class_slos
from repro.workloads.arrivals import Request, RequestStream

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


class ReplicaRun(Protocol):
    """What :func:`drive` needs from a replica run (see ``EngineRun``)."""

    def offer(self, request: Request,
              now: float | None = None) -> tuple[float, str] | None:
        """Queue an arrival; return a newly scheduled ``(time, kind)``.

        ``now`` is the dispatch instant, passed only by fault serves
        (a retry is dispatched after its ``arrival_time``)."""

    def advance(self) -> tuple[float, str] | None:
        """Process the run's scheduled event; return the next one."""

    def close(self) -> tuple[float, str] | None:
        """No further arrivals will be offered; return a scheduled event."""

    @property
    def finished(self) -> bool:
        """True once the run has drained its queue and running batch."""


class ArrivalSource(Protocol):
    """The one arrival-source protocol every serve drives.

    A source's future arrivals may depend on completions the engine has
    not produced yet (a closed loop): popping returns ``None`` while the
    source is *waiting* (turns outstanding but none ready), and only
    :attr:`exhausted` says no arrival will ever come again.  Sorted lists
    and streams are adapted by :class:`OrderedArrivals`; a closed-loop
    session source (``repro.workloads.sessions.ClosedLoopSessions``)
    implements the protocol itself.
    """

    #: ``(max_input_len, max_output_len)`` over every request the source
    #: can emit — the KV-budget probe's bounds (``None``: no request).
    length_bounds: tuple[int, int] | None
    #: Callback the serve layer feeds every completed record (a closed
    #: loop schedules follow-up turns from it), or ``None`` for an open
    #: loop.  :func:`drive` itself only peeks and pops.
    on_completion: Callable | None

    def peek_time(self) -> float | None:
        """Arrival time of the earliest ready request (None when none)."""

    def pop_next(self) -> Request | None:
        """Pop the earliest ready request (None when none is ready)."""

    @property
    def exhausted(self) -> bool:
        """True once every request has been popped — none will ever follow."""


class OrderedArrivals:
    """An :class:`ArrivalSource` over an iterable sorted by
    ``(arrival_time, request_id)``, buffered one arrival ahead.

    The iterable is consumed through ``iter()`` one request at a time,
    and the next request is pulled only once the popped one has been
    dispatched (the next peek), so a
    :class:`~repro.workloads.arrivals.RequestStream` never materializes.
    An arrival out of order raises when it is pulled.
    """

    on_completion = None

    def __init__(self, arrivals,
                 length_bounds: tuple[int, int] | None = None) -> None:
        self.length_bounds = length_bounds
        self._arrivals = iter(arrivals)
        self._last_key: tuple[float, int] | None = None
        self._next: Request | None = None
        self._time: float | None = None
        self._pending = True  # the buffer awaits its next pull

    def _pull(self) -> None:
        self._pending = False
        request = self._next = next(self._arrivals, None)
        if request is None:
            self._time = None
            return
        key = (request.arrival_time, request.request_id)
        if self._last_key is not None and key < self._last_key:
            raise ConfigurationError(
                f"arrival source must be sorted by (arrival_time, "
                f"request_id); got {key} after {self._last_key}"
            )
        self._last_key = key
        self._time = request.arrival_time

    def peek_time(self) -> float | None:
        if self._pending:
            self._pull()
        return self._time

    def pop_next(self) -> Request | None:
        if self._pending:
            self._pull()
        request = self._next
        self._pending = request is not None
        return request

    @property
    def exhausted(self) -> bool:
        if self._pending:
            self._pull()
        return self._next is None


def arrival_source(requests) -> ArrivalSource:
    """The :class:`ArrivalSource` a serve of ``requests`` drives.

    A list is sorted into dispatch order ``(arrival_time, request_id)``
    and keeps its length maxima as bounds; a
    :class:`~repro.workloads.arrivals.RequestStream` brings its own
    bounds; anything with ``pop_next`` already is a source.
    """
    if hasattr(requests, "pop_next"):
        return requests
    if isinstance(requests, RequestStream):
        return OrderedArrivals(requests, requests.length_bounds)
    ordered = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    bounds = ((max(r.input_len for r in ordered),
               max(r.output_len for r in ordered)) if ordered else None)
    return OrderedArrivals(ordered, bounds)


def check_serve(source, faults, retry, shedding) -> None:
    """Reject the serve configurations whose combination has no meaning.

    Both serve layers call this with their ``source`` and fault
    arguments: ``retry``/``shedding`` need a ``faults`` schedule to act
    on, and fault injection does not support closed-loop sources.
    """
    if faults is None and (retry is not None or shedding is not None):
        raise ConfigurationError(
            "retry=/shedding= configure fault recovery and need a "
            "faults= schedule to act on"
        )
    if faults is not None and source.on_completion is not None:
        raise ConfigurationError(
            "fault injection does not support closed-loop sources — "
            "lower the session trace to its open-loop request stream"
        )


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

    ``source`` is an :class:`ArrivalSource`, or an iterable of requests in
    ``(arrival_time, request_id)`` order (adapted by
    :class:`OrderedArrivals`).  ``route(request)`` returns the index of
    the run each arrival joins, called exactly once per request in arrival
    order — dispatch-time routing, exactly as a front-end load balancer
    decides.  ``journal``, when given, receives ``(time, kind,
    run_index)`` tuples for every processed event (a test/debug surface;
    see ``tests/test_serving_events.py``).  ``observers`` receive the same
    stream through their ``on_event`` hook (see :mod:`repro.obs`),
    *before* the event is applied — discrete-event state is piecewise
    constant, so that is the state at the event instant.

    ``faults``, when given, is a bound
    :class:`repro.faults.FaultCoordinator`: its timeline joins the heap,
    arrivals and retries dispatch through ``faults.dispatch`` (which may
    shed or park them — journaled with run index ``-1``), and the runs
    must accept late, out-of-order offers (``EngineRun(fault_mode=True)``).
    """
    if not runs:
        raise ConfigurationError("drive needs at least one replica run")
    if not hasattr(source, "pop_next"):
        source = OrderedArrivals(source)
    on_event = observer_hooks(observers, "on_event")
    num_runs = len(runs)
    heap: list[tuple] = []
    sequence = 0
    closed = False
    #: Per-run sequence number of the one live scheduled event (0 = none);
    #: a failure zeroes it, orphaning the heap entry (invariant 2).
    valid = [0] * num_runs

    def emit(time: float, kind: str, index: int) -> None:
        if journal is not None:
            journal.append((time, kind, index))
        if on_event:
            for hook in on_event:
                hook(time, kind, index)

    def push_run_event(index: int, event: tuple[float, str] | None) -> None:
        nonlocal sequence
        if event is None:
            return  # nothing new scheduled; a live event stays valid
        time, kind = event
        sequence += 1
        valid[index] = sequence
        heapq.heappush(heap, (time, index, sequence, kind, index, None))

    def dispatch(time: float, request: Request, retrying: bool) -> None:
        if faults is None:
            target = route(request)
        else:
            target = faults.dispatch(time, request, retrying)
            if target is None:  # shed, or parked while every run is down
                emit(time, ARRIVAL, -1)
                return
        if not 0 <= target < num_runs:
            raise ConfigurationError(
                f"route() must return a run index in [0, {num_runs}), "
                f"got {target!r}"
            )
        emit(time, ARRIVAL, target)
        run = runs[target]
        push_run_event(target, run.offer(request) if faults is None
                       else run.offer(request, now=time))

    if faults is not None:
        for time, kind, replica in faults.timeline():
            sequence += 1
            heapq.heappush(heap, (time, -2, sequence, kind, replica, None))
    sequence += 1
    arrival_sequence = sequence  # the pending source arrival's push slot
    peek, pop = source.peek_time, source.pop_next
    while True:
        ready = peek()
        if ready is not None and (not heap
                                  or (ready, -1, arrival_sequence) < heap[0]):
            dispatch(ready, pop(), False)
            sequence += 1
            arrival_sequence = sequence
            continue
        if ready is None and not closed and source.exhausted:
            closed = True
            for index, run in enumerate(runs):
                push_run_event(index, run.close())
            continue
        if not heap:
            break
        time, priority, seq, kind, index, request = heapq.heappop(heap)
        if priority >= 0:
            if seq != valid[index]:
                continue  # cancelled by a failure after it was scheduled
            emit(time, kind, index)
            push_run_event(index, runs[index].advance())
        elif priority == -1:
            dispatch(time, request, True)
        elif kind == REPLICA_FAIL:
            emit(time, REPLICA_FAIL, index)
            valid[index] = 0  # the run's in-flight event died with it
            for retry_time, retry_request in faults.fail(time, index):
                sequence += 1
                heapq.heappush(heap, (retry_time, -1, sequence, ARRIVAL,
                                      None, retry_request))
        else:
            emit(time, REPLICA_RECOVER, index)
            event, released = faults.recover(time, index)
            push_run_event(index, event)
            for parked_request, retrying in released:
                dispatch(time, parked_request, retrying)

    if not source.exhausted:
        raise ConfigurationError(
            "closed-loop event loop drained with the source still waiting "
            "for completions — a run dropped work without recording it"
        )
    if faults is not None:
        faults.finish()
    for index, run in enumerate(runs):
        if not run.finished:
            raise ConfigurationError(
                f"event loop drained with run {index} unfinished — a run "
                f"scheduled no event while holding work (driver invariant "
                f"violation)"
            )


def serve_runs(source, runs: list[ReplicaRun],
               route: Callable[[Request], int], trace,
               journal: list | None = None, observers: tuple = (),
               faults=None, retry=None, shedding=None,
               router=None) -> list:
    """The one serve body: bind faults, drive ``runs``, finalize them.

    Each serve layer builds the ``trace`` it returns before the drive, and
    the runs feed it their records, so nothing here depends on the layer
    or the record mode.  ``faults`` (a :class:`~repro.faults.FaultSchedule`)
    binds a :class:`~repro.faults.FaultCoordinator` with ``retry``,
    ``shedding`` and the health-aware ``router``; once the runs are
    finalized it adds its failed and shed records and
    ``metadata["resilience"]`` to ``trace``.  Returns the run traces.
    """
    coordinator = None
    if faults is not None:
        from repro.faults import FaultCoordinator
        coordinator = FaultCoordinator(faults, retry=retry, shedder=shedding)
        coordinator.bind(runs, route, router=router, observers=observers)
    drive(source, runs, route, journal=journal, observers=observers,
          faults=coordinator)
    traces = [run.finalize() for run in runs]
    if coordinator is not None:
        coordinator.complete(trace, len(runs))
    return traces
