"""The fault-injection state machine bound into the event driver.

:class:`FaultCoordinator` owns everything that happens *between* a replica
failure and the affected requests' terminal records:

* it merges the :class:`~repro.faults.schedule.FaultSchedule` timeline
  into the driver's heap (``REPLICA_FAIL``/``REPLICA_RECOVER`` events);
* on a failure it marks the replica down in the health-aware router,
  collects the run's interrupted work, and re-injects each interrupted
  request as a retry arrival after its
  :class:`~repro.faults.retry.RetryPolicy` backoff (``drain`` interruptions
  carry their retained-KV wrapper, staged into the destination run so the
  migration is priced as a swap-in instead of a re-prefill);
* at dispatch it applies degraded-mode shedding
  (:class:`~repro.faults.shedding.LoadShedder` over the surviving runs'
  live gauges) and parks arrivals while no replica is up;
* it terminates requests that exhaust the retry budget (or are shed, or
  are still parked when the loop drains) as ``failed``/``shed``
  :class:`~repro.serving.trace.RequestRecord` entries, collected until
  :meth:`FaultCoordinator.complete` adds them to the serve's trace in
  either record mode, and annotates completed records with their retry
  count.

The coordinator is duck-typed against the runs and router (it never
imports :mod:`repro.serving.engine` or :mod:`repro.cluster`), which keeps
:mod:`repro.faults` import-cycle-free underneath both serve layers.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro._common import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.serving.trace import RequestRecord


class FaultCoordinator:
    """Binds a schedule + retry policy + shedder to one serve.

    Single-serve, like an observer: build a fresh coordinator per serve
    (:func:`repro.serving.events.serve_runs` does this for both serve
    layers from their ``faults=``/``retry=``/``shedding=`` keywords).
    """

    def __init__(self, schedule: FaultSchedule,
                 retry: RetryPolicy | None = None,
                 shedder=None) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ConfigurationError(
                f"faults must be a FaultSchedule, got {schedule!r}"
            )
        self.schedule = schedule
        self.retry = retry if retry is not None else RetryPolicy()
        self.shedder = shedder
        #: Terminal ``failed``/``shed`` records, added to the serve's trace
        #: by :meth:`complete`.
        self.records: list[RequestRecord] = []
        self.num_failures = 0
        self.num_retries = 0
        self.num_shed = 0
        self.num_failed = 0
        self._windows: dict[int, deque] = {}
        for event in schedule.events:
            self._windows.setdefault(event.replica, deque()).append(event)
        self._down: set[int] = set()
        self._fail_started: dict[int, float] = {}
        #: Observed ``(fail, recover)`` spans; clipped to the serve's
        #: duration by :meth:`resilience` (a recovery scheduled past the
        #: last completion still ends the span for accounting).
        self._spans: list[tuple[float, float]] = []
        self._attempts: dict[int, int] = {}
        self._staged: dict[int, object] = {}
        self._parked: list[tuple] = []

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def bind(self, runs, route, router=None, observers=()) -> None:
        """Attach the serve's runs, routing and observers before driving.

        ``route(request) -> index`` must only ever return an up replica
        (the health-aware router guarantees this; the coordinator parks
        arrivals itself while *no* replica is up).  A schedule naming a
        replica the serve does not have raises here.
        """
        if self.schedule.max_replica() >= len(runs):
            raise ConfigurationError(
                f"fault schedule names replica "
                f"{self.schedule.max_replica()} but the serve has only "
                f"{len(runs)} replicas"
            )
        self._runs = list(runs)
        self._route = route
        self._router = router
        self._observers = tuple(observers)
        self._gauges = [run.gauges() for run in self._runs]
        for run in self._runs:
            run.set_record_filter(self.annotate)

    def timeline(self):
        """The schedule's merged ``(time, kind, replica)`` event stream."""
        return self.schedule.timeline()

    # ------------------------------------------------------------------ #
    # driver hooks (see events.drive)
    # ------------------------------------------------------------------ #
    def dispatch(self, time: float, request, retrying: bool) -> int | None:
        """Route one arrival; ``None`` means it was shed or parked."""
        if (not retrying and self.shedder is not None
                and self.shedder.should_shed(
                    request, bool(self._down),
                    [self._gauges[i] for i in range(len(self._runs))
                     if i not in self._down])):
            self.num_shed += 1
            self._terminate(request, time, "shed")
            for observer in self._observers:
                observer.on_shed(time, request)
            return None
        if len(self._down) == len(self._runs):
            self._parked.append((request, time, retrying))
            return None
        target = self._route(request)
        if target in self._down:
            raise ConfigurationError(
                f"route() returned down replica {target} — health-aware "
                f"routing must exclude failed replicas"
            )
        wrapper = self._staged.pop(request.request_id, None)
        if wrapper is not None:
            self._runs[target].stage_resumption(wrapper)
        return target

    def fail(self, time: float, replica: int) -> list[tuple]:
        """Take ``replica`` down; return ``(retry_time, request)`` retries."""
        event = self._windows[replica].popleft()
        self._down.add(replica)
        self._fail_started[replica] = time
        self.num_failures += 1
        if self._router is not None:
            self._router.mark_down(replica)
        for observer in self._observers:
            observer.on_replica_fail(replica, time, event.mode)
        injections = []
        for ready_time, request, wrapper in self._runs[replica].fail(
                time, event.mode):
            attempt = self._attempts.get(request.request_id, 0) + 1
            if attempt > self.retry.max_retries:
                self.num_failed += 1
                self._terminate(request, ready_time, "failed")
                continue
            self._attempts[request.request_id] = attempt
            self.num_retries += 1
            if wrapper is not None:
                self._staged[request.request_id] = wrapper
            retry_time = ready_time + self.retry.delay(attempt)
            for observer in self._observers:
                observer.on_retry(replica, retry_time, request, attempt)
            injections.append((retry_time, request))
        return injections

    def recover(self, time: float, replica: int):
        """Bring ``replica`` back (cold); release any parked arrivals."""
        self._down.discard(replica)
        self._spans.append((self._fail_started.pop(replica), time))
        if self._router is not None:
            self._router.mark_up(replica)
        event = self._runs[replica].recover(time)
        for observer in self._observers:
            observer.on_replica_recover(replica, time)
        released, self._parked = self._parked, []
        return event, [(request, retrying)
                       for request, _, retrying in released]

    def finish(self) -> None:
        """Terminate whatever is still parked once the loop drains."""
        for request, parked_at, _ in self._parked:
            self.num_failed += 1
            self._terminate(request, parked_at, "failed")
        self._parked = []
        self._staged.clear()

    # ------------------------------------------------------------------ #
    # record plumbing
    # ------------------------------------------------------------------ #
    def annotate(self, record: RequestRecord) -> RequestRecord:
        """Stamp a completed record with its retry count (record filter)."""
        retries = self._attempts.get(record.request_id, 0)
        if retries:
            return dataclasses.replace(record, retries=retries)
        return record

    def _terminate(self, request, time: float, status: str) -> None:
        instant = max(time, request.arrival_time)
        self.records.append(RequestRecord(
            request_id=request.request_id,
            arrival_time=request.arrival_time,
            admission_time=instant,
            first_token_time=instant,
            completion_time=instant,
            input_len=request.input_len,
            output_len=request.output_len,
            slo_class=request.slo_class,
            prefix_len=getattr(request, "prefix_len", 0),
            status=status,
            retries=self._attempts.get(request.request_id, 0),
        ))

    # ------------------------------------------------------------------ #
    # resilience accounting
    # ------------------------------------------------------------------ #
    def complete(self, trace, num_replicas: int) -> None:
        """Finish the serve's trace: add the terminal records (a full
        trace merges them in ``(completion_time, request_id)`` order, a
        streaming one folds them — they fold only counts and the
        makespan, so late is exact), then write ``metadata["resilience"]``
        over the resulting duration."""
        trace.extend_sorted(self.records)
        trace.metadata["resilience"] = self.resilience(trace.duration,
                                                       num_replicas)

    def resilience(self, duration: float, num_replicas: int) -> dict:
        """The serve's ``metadata["resilience"]`` block.

        Downtime sums the fail→recover spans clipped to ``[0, duration]``
        (an outage that outlives the serve counts only up to its end), so
        ``availability = 1 - downtime / (num_replicas * duration)`` is the
        replica-seconds the cluster actually lost.
        """
        downtime = 0.0
        for start, end in self._spans:
            downtime += max(0.0, min(end, duration) - min(start, duration))
        for start in self._fail_started.values():
            downtime += max(0.0, duration - start)
        capacity = num_replicas * duration
        availability = (1.0 - min(downtime, capacity) / capacity
                        if capacity > 0 else 1.0)
        return {
            "num_failures": self.num_failures,
            "num_retries": self.num_retries,
            "num_failed": self.num_failed,
            "num_shed": self.num_shed,
            "downtime_s": downtime,
            "availability": availability,
        }
