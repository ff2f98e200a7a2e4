"""Tests for the event-driven serving core (repro.serving.events).

Covers the tentpole contracts: the event heap reproduces the
clock-stepped reference loop (``tests/clock_reference.py``)
bit-identically in ``record_mode="full"``, streaming
traces agree on every exact aggregate, request streams are byte-identical
to materialized traces, and the merged cluster event stream matches
serving the routed shares directly.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clock_reference import serve_stepped
from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import ReplicaGroup, StreamingClusterTrace
from repro.core.engine import AlisaSystem
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine, ServingTrace, StreamingTrace
from repro.cluster.router import Router
from repro.faults import (
    FaultCoordinator,
    FaultEvent,
    FaultSchedule,
    LoadShedder,
    RetryPolicy,
)
from repro.serving.events import (
    ADMISSION,
    ARRIVAL,
    COMPLETION,
    EPOCH_BOUNDARY,
    REPLICA_FAIL,
    REPLICA_RECOVER,
    drive,
)
from repro.workloads.arrivals import Request, RequestStream, generate_requests

MODEL = "opt-6.7b"

#: Exact aggregates both record modes must agree on (same float op order).
EXACT_KEYS = ("num_requests", "generated_tokens", "duration_s",
              "throughput_tokens_per_s", "mean_queueing_delay_s")


def engine(system=FlexGenSystem, **kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(system(MODEL, V100_16GB_NODE, **kwargs))


def requests(n=24, rate=4.0, seed=3, **kwargs):
    return generate_requests(n, rate, pattern="bursty", seed=seed,
                             max_len=512, **kwargs)


class TestEventLoopBitIdentity:
    @pytest.mark.parametrize("system", [FlexGenSystem, VLLMSystem])
    def test_event_serve_matches_clock_loop_exactly(self, system):
        trace_event = engine(system).serve(requests())
        trace_clock = serve_stepped(engine(system), requests())
        assert trace_event.records == trace_clock.records
        assert trace_event.summary() == trace_clock.summary()
        for key in ("kv_budget_tokens", "peak_reserved_tokens", "num_epochs",
                    "num_decode_steps", "pcie_bytes", "comm_time_s",
                    "comm_time_share", "shards"):
            assert trace_event.metadata[key] == trace_clock.metadata[key], key

    def test_alisa_event_serve_matches_clock_loop(self):
        def build(model, node, **kwargs):
            return AlisaSystem(model, node, kv_sparsity=0.8, **kwargs)
        trace_event = engine(build).serve(requests(n=12))
        trace_clock = serve_stepped(engine(build), requests(n=12))
        assert trace_event.records == trace_clock.records

    def test_full_mode_golden_pin(self):
        # Frozen observable outputs of one event-driven serve: any change
        # to admission order, epoch cuts, or pricing shows up here first.
        trace = engine().serve(requests(n=16))
        assert trace.num_requests == 16
        assert trace.generated_tokens == 2937
        assert trace.duration == pytest.approx(12.026624695478137, abs=1e-12)
        assert trace.metadata["kv_budget_tokens"] == 4946
        assert trace.metadata["peak_reserved_tokens"] == 4896
        assert trace.metadata["num_epochs"] == 24
        assert trace.metadata["num_decode_steps"] == 605
        first = trace.records[0]
        assert first.request_id == 0
        assert first.completion_time == \
            pytest.approx(1.0687576079965968, abs=1e-12)
        last = trace.records[-1]
        assert last.request_id == 8
        assert last.completion_time == \
            pytest.approx(12.026624695478137, abs=1e-12)


class TestSeedDeterminism:
    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    def test_identical_runs_are_identical(self, record_mode):
        summaries, journals = [], []
        for _ in range(2):
            group = ReplicaGroup.from_layout(
                lambda node, parallelism: FlexGenSystem(
                    MODEL, node, parallelism=parallelism),
                "2x(none)", V100_16GB_NODE, policy="least-loaded")
            journal = []
            trace = group.serve(requests(), record_mode=record_mode,
                                ttft_slo_s=5.0, tpot_slo_s=0.5,
                                event_journal=journal)
            summaries.append(trace.summary())
            journals.append(journal)
        assert summaries[0] == summaries[1]
        # Event ordering is part of the contract: the merged heap pops the
        # same (time, kind, replica) sequence run-to-run.
        assert journals[0] == journals[1]
        kinds = {kind for _, kind, _ in journals[0]}
        assert kinds == {ARRIVAL, ADMISSION, EPOCH_BOUNDARY, COMPLETION}


class TestStreamingEquivalence:
    def test_streaming_engine_serve_matches_full(self):
        full = engine().serve(requests())
        stream = engine().serve(requests(), record_mode="streaming",
                                ttft_slo_s=5.0, tpot_slo_s=0.5)
        assert isinstance(stream, StreamingTrace)
        full_summary, stream_summary = full.summary(), stream.summary()
        for key in EXACT_KEYS:
            assert stream_summary[key] == full_summary[key], key
        assert stream.goodput(ttft_slo_s=5.0, tpot_slo_s=0.5) == \
            full.goodput(ttft_slo_s=5.0, tpot_slo_s=0.5)
        for key in ("p50_ttft_s", "p99_latency_s", "p50_tpot_s"):
            assert stream_summary[key] == \
                pytest.approx(full_summary[key], rel=0.3, abs=1e-3)
        assert stream.metadata["record_mode"] == "streaming"
        assert stream.metadata["kv_budget_tokens"] == \
            full.metadata["kv_budget_tokens"]

    def test_streaming_cluster_matches_full(self):
        def factory(node, parallelism):
            return VLLMSystem(MODEL, node, parallelism=parallelism)
        group = ReplicaGroup.from_layout(factory, "2x(none)",
                                         V100_16GB_NODE, policy="jsq")
        full = group.serve(requests())
        stream = group.serve(requests(), record_mode="streaming",
                             ttft_slo_s=5.0, tpot_slo_s=0.5)
        assert isinstance(stream, StreamingClusterTrace)
        full_summary, stream_summary = full.summary(), stream.summary()
        for key in EXACT_KEYS + ("num_replicas", "tokens_imbalance"):
            assert stream_summary[key] == full_summary[key], key
        assert stream.metadata["routing"] == full.metadata["routing"]
        assert stream.metadata["replicas"] == full.metadata["replicas"]

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["faults=None", "crash"])
    @pytest.mark.parametrize("policy", ["round-robin", "jsq"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_streaming_replica_breakdown_matches_full(self, policy, seed,
                                                      faulted):
        # Every per-replica field — counts, tokens, makespan, mean queueing
        # delay, budgets, peaks, comm share — is exact in both modes, with
        # crashes, retries and shedding too: each view tallies its run's
        # completed records in delivery order, and failed and shed records
        # reach no view.
        def factory(node, parallelism):
            return VLLMSystem(MODEL, node, parallelism=parallelism)
        group = ReplicaGroup.from_layout(factory, "2x(none)",
                                         V100_16GB_NODE, policy=policy)
        trace = requests(n=40, rate=8.0, seed=seed)
        kwargs = {}
        if faulted:
            trace = [replace(request, slo_class="interactive"
                             if index % 3 == 0 else "batch")
                     for index, request in enumerate(trace)]
            kwargs = {"faults": FaultSchedule([FaultEvent(0, 1.0, 2.0),
                                               FaultEvent(1, 2.5, 3.5)]),
                      "retry": RetryPolicy(max_retries=1, backoff_s=0.05),
                      "shedding": LoadShedder()}
        full = group.serve(trace, **kwargs)
        stream = group.serve(trace, record_mode="streaming", **kwargs)
        assert len(full.metadata["replicas"]) == 2
        assert stream.metadata["replicas"] == full.metadata["replicas"]
        assert stream.metadata["kv_budget_tokens"] == \
            full.metadata["kv_budget_tokens"]
        completed = full.num_requests - full.num_failed - full.num_shed
        assert completed == len(full.completed_records)
        if faulted:
            assert completed < full.num_requests
        for cluster in (full, stream):
            assert sum(replica["num_requests"] for replica
                       in cluster.metadata["replicas"]) == completed
        for view in full.replica_traces:
            retained = ServingTrace("sys", "m", records=view.records)
            assert (view.num_requests, view.generated_tokens,
                    view.duration, view.mean_queueing_delay) == \
                (retained.num_requests, retained.generated_tokens,
                 retained.duration, retained.mean_queueing_delay)
        assert all(view.records is None for view in stream.replica_traces)

    def test_unknown_record_mode_raises(self):
        with pytest.raises(ConfigurationError, match="record_mode"):
            engine().serve(requests(n=2), record_mode="sampled")

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=50),
           st.sampled_from([1.0, 4.0, 16.0]))
    @settings(max_examples=15, deadline=None)
    def test_property_event_loop_matches_step_loop(self, n, seed, rate):
        # For any workload: the event-driven serve is bit-identical to the
        # clock-stepped reference loop in full mode, the streaming sketch
        # trace agrees with both on every exact aggregate, and its
        # percentile estimates sit within the observed value range (P²
        # estimates never extrapolate).
        trace_requests = generate_requests(n, rate, pattern="poisson",
                                           seed=seed, max_len=256)
        full = engine().serve(trace_requests)
        stepped = serve_stepped(engine(), trace_requests)
        assert full.records == stepped.records
        stream = engine().serve(trace_requests, record_mode="streaming")
        for key in EXACT_KEYS:
            assert stream.summary()[key] == stepped.summary()[key], key
        ttfts = [record.ttft for record in full.records]
        for estimate in stream.ttft_percentiles().values():
            assert min(ttfts) <= estimate <= max(ttfts)


class TestEmptyTraces:
    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    def test_engine_serves_empty_list(self, record_mode):
        trace = engine().serve([], record_mode=record_mode)
        assert trace.num_requests == 0
        assert trace.duration == 0.0
        assert trace.throughput == 0.0
        assert trace.goodput() == 0.0
        assert trace.summary()["p99_ttft_s"] == 0.0
        assert trace.metadata["kv_budget_tokens"] == 0
        assert trace.metadata["shards"] == []

    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    def test_cluster_serves_empty_list(self, record_mode):
        group = ReplicaGroup.from_layout(
            lambda node, parallelism: FlexGenSystem(
                MODEL, node, parallelism=parallelism),
            "2x(none)", V100_16GB_NODE)
        trace = group.serve([], record_mode=record_mode)
        assert trace.num_requests == 0
        assert trace.tokens_imbalance == 1.0
        assert trace.metadata["routing"]["dispatch_counts"] == [0, 0]
        assert trace.metadata["kv_budget_tokens"] == 0
        assert trace.summary()["throughput_tokens_per_s"] == 0.0

    def test_starved_replica_finalizes_empty(self):
        # Round-robin over 3 replicas with 2 requests starves replica 2;
        # its run is never offered anything and must finalize cleanly.
        group = ReplicaGroup.from_layout(
            lambda node, parallelism: FlexGenSystem(
                MODEL, node, parallelism=parallelism),
            "3x(none)", V100_16GB_NODE)
        trace = group.serve(requests(n=2))
        assert trace.metadata["routing"]["dispatch_counts"] == [1, 1, 0]
        starved = trace.replica_traces[2]
        assert starved.num_requests == 0
        assert starved.metadata["kv_budget_tokens"] == 0


class TestRequestStream:
    def test_stream_matches_generated_list(self):
        stream = RequestStream(300, rate=4.0, pattern="bursty", seed=3,
                               max_len=512)
        assert len(stream) == 300
        materialized = list(stream)
        reference = generate_requests(300, 4.0, pattern="bursty", seed=3,
                                      max_len=512)
        assert [r.arrival_time for r in materialized] == \
            [r.arrival_time for r in reference]

    def test_stream_serve_matches_list_serve(self):
        stream = RequestStream(64, rate=4.0, pattern="poisson", seed=5,
                               input_len=128, output_len=64)
        trace_stream = engine().serve(stream, record_mode="streaming")
        reference = generate_requests(64, 4.0, pattern="poisson", seed=5,
                                      input_len=128, output_len=64)
        trace_list = engine().serve(reference)
        for key in EXACT_KEYS:
            assert trace_stream.summary()[key] == \
                trace_list.summary()[key], key

    def test_stream_cluster_reports_dispatch_counts(self):
        # Live routing tallies dispatches during the event loop; the counts
        # must reflect the served stream, not the router's initial state.
        group = ReplicaGroup.from_layout(
            lambda node, parallelism: FlexGenSystem(
                MODEL, node, parallelism=parallelism),
            "2x(none)", V100_16GB_NODE)
        stream = RequestStream(40, rate=4.0, pattern="poisson", seed=1,
                               input_len=128, output_len=64)
        trace = group.serve(stream, record_mode="streaming")
        counts = trace.metadata["routing"]["dispatch_counts"]
        assert sum(counts) == 40
        assert counts == [20, 20]  # round-robin split

    def test_stream_is_restartable_and_deterministic(self):
        stream = RequestStream(50, rate=2.0, pattern="poisson", seed=9,
                               max_len=256)
        first = [(r.arrival_time, r.input_len) for r in stream]
        second = [(r.arrival_time, r.input_len) for r in stream]
        assert first == second

    def test_stream_validation(self):
        with pytest.raises(ConfigurationError):
            RequestStream(0, rate=1.0)
        with pytest.raises(ConfigurationError):
            RequestStream(10, rate=0.0)
        with pytest.raises(ConfigurationError, match="generate_requests"):
            RequestStream(10, rate=1.0, pattern="fractal")

    def test_exact_stepping_rejects_streams(self):
        # The clock-stepped option is gone: systems refuse the keyword.
        with pytest.raises(TypeError, match="exact_stepping"):
            engine(exact_stepping=True)


class TestDriveValidation:
    def test_drive_needs_runs(self):
        with pytest.raises(ConfigurationError):
            drive([], [], lambda request: 0)

    @pytest.mark.parametrize("target", [5, -1])
    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["faults=None", "faults=coordinator"])
    def test_route_index_out_of_range(self, faulted, target):
        shared = engine()
        runs = [shared.start_run(shared.make_trace("full"),
                                 max_input_len=64, max_output_len=32,
                                 replica=index, fault_mode=faulted)
                for index in range(2)]

        def route(request):
            return target

        coordinator = None
        if faulted:
            coordinator = FaultCoordinator(FaultSchedule(
                [FaultEvent(0, 100.0, 101.0)]))
            coordinator.bind(runs, route)
        with pytest.raises(ConfigurationError, match="run index"):
            drive(requests(n=6, input_len=64, output_len=32), runs, route,
                  faults=coordinator)
        assert all(run.gauges().queue_depth == 0 for run in runs)

    def test_out_of_order_arrivals_rejected(self):
        shared = engine()
        run = shared.start_run(shared.make_trace("full"),
                               max_input_len=64, max_output_len=32)
        backwards = sorted(requests(n=4, input_len=64, output_len=32),
                           key=lambda r: -r.arrival_time)
        with pytest.raises(ConfigurationError, match="sorted"):
            drive(backwards, [run], lambda request: 0)


# --------------------------------------------------------------------- #
# Driver tie order, pinned with scripted runs
# --------------------------------------------------------------------- #
class ScriptedRun:
    """A replica run whose events sit at fixed, scripted times.

    Each offer to an idle run schedules its next scripted time, and each
    advance completes everything offered so far and schedules the next
    one.  ``log`` (shared by every run and the source) records the calls
    the driver makes, in order.
    """

    def __init__(self, index, times, log, on_advance=None):
        self.index = index
        self.times = list(times)
        self.log = log
        self.on_advance = on_advance
        self.scheduled = None
        self.holding = []
        self.closed = False

    def _schedule(self):
        if self.scheduled is None and self.times:
            self.scheduled = self.times.pop(0)
            return (self.scheduled, COMPLETION)
        return None

    def offer(self, request, now=None):
        self.log.append(("offer", self.index, request.request_id))
        self.holding.append(request)
        return self._schedule()

    def advance(self):
        # Invariant 2: the driver only ever advances the run's one live
        # event (a cancelled one is skipped, never advanced).
        assert self.scheduled is not None
        time, self.scheduled = self.scheduled, None
        self.log.append(("advance", self.index, time))
        self.holding = []
        if self.on_advance is not None:
            self.on_advance(time)
        return self._schedule()

    def close(self):
        self.log.append(("close", self.index))
        self.closed = True
        return self._schedule()

    @property
    def finished(self):
        return self.closed and self.scheduled is None and not self.times

    # fault surface (see repro.faults.FaultCoordinator)
    def gauges(self):
        return None

    def set_record_filter(self, record_filter):
        pass

    def stage_resumption(self, wrapper):
        pass

    def fail(self, time, mode):
        self.log.append(("fail", self.index, time))
        self.scheduled = None
        interrupted = [(time, request, None) for request in self.holding]
        self.holding = []
        return interrupted

    def recover(self, time):
        return self._schedule()


class LoggedArrivals:
    """A sorted request list whose pulls are logged (invariant 4)."""

    def __init__(self, requests, log):
        self.requests = requests
        self.log = log

    def __iter__(self):
        for request in self.requests:
            self.log.append(("pull", request.request_id))
            yield request


class ScriptedLoop:
    """A closed-loop source: a turn follows each completion of run 0
    ``think`` seconds later."""

    length_bounds = (64, 32)
    on_completion = None

    def __init__(self, first, follow_ups, think, log):
        self.ready = list(first)
        self.follow_ups = list(follow_ups)
        self.think = think
        self.log = log

    def release(self, time):
        if self.follow_ups:
            request = self.follow_ups.pop(0)
            self.ready.append(Request(request.request_id, time + self.think,
                                      request.input_len, request.output_len))

    def peek_time(self):
        return self.ready[0].arrival_time if self.ready else None

    def pop_next(self):
        request = self.ready.pop(0)
        self.log.append(("pull", request.request_id))
        return request

    @property
    def exhausted(self):
        return not self.ready and not self.follow_ups


def _request(request_id, time):
    return Request(request_id, time, 64, 32)


def _rank(event):
    """Order of an event kind at one timestamp: faults, then arrivals,
    then run events by run index."""
    _, kind, index = event
    if kind in (REPLICA_FAIL, REPLICA_RECOVER):
        return (0, 0)
    if kind == ARRIVAL:
        return (1, 0)
    return (2, index)


def check_heap_invariants(journal, log, runs):
    """Heap invariants 1-4 (see repro.serving.events) over one drive."""
    # 1. Time never runs backwards, and at one timestamp fault events
    #    precede arrivals, which precede run events (ordered by index).
    for before, after in zip(journal, journal[1:]):
        assert before[0] <= after[0]
        if before[0] == after[0]:
            assert _rank(before) <= _rank(after), (before, after)
    # 2. Every journaled run event is exactly one advance of that run's
    #    live event — cancelled events never surface.
    run_events = [(time, index) for time, kind, index in journal
                  if kind == COMPLETION]
    advances = [(time, index) for name, index, *rest in log
                if name == "advance" for time in rest]
    assert run_events == advances
    # 3. Each run is closed exactly once, after the last arrival left the
    #    source (only then is every run's next queue head known).
    closes = [position for position, entry in enumerate(log)
              if entry[0] == "close"]
    pulls = [position for position, entry in enumerate(log)
             if entry[0] == "pull"]
    assert len(closes) == len(runs)
    assert min(closes) > max(pulls)
    assert all(run.finished for run in runs)
    # 4. One lazy arrival at a time: at most one request has been pulled
    #    from the source and not yet offered.
    pulled, offered = set(), set()
    for entry in log:
        if entry[0] == "pull":
            pulled.add(entry[1])
        elif entry[0] == "offer":
            offered.add(entry[2])
        assert len(pulled - offered) <= 1


class TestDriverTieOrder:
    def test_list_source(self):
        # Run 0's event and arrival 2 tie at 1.0; run 1's event and
        # arrival 3 tie at 2.0.  The arrivals go first both times.
        log, journal = [], []
        runs = [ScriptedRun(0, [1.0, 2.0], log),
                ScriptedRun(1, [2.0], log)]
        arrivals = LoggedArrivals([_request(0, 0.5), _request(1, 0.5),
                                   _request(2, 1.0), _request(3, 2.0)], log)
        drive(arrivals, runs, lambda request: request.request_id % 2,
              journal=journal)
        assert journal == [
            (0.5, ARRIVAL, 0), (0.5, ARRIVAL, 1),
            (1.0, ARRIVAL, 0), (1.0, COMPLETION, 0),
            (2.0, ARRIVAL, 1), (2.0, COMPLETION, 0), (2.0, COMPLETION, 1),
        ]
        check_heap_invariants(journal, log, runs)

    def test_closed_loop_source(self):
        # Run 0's event at 1.0 releases a turn for 1.5, where it ties with
        # run 1's event; the turn, popped only once it is the earliest
        # entry, still goes first.
        log, journal = [], []
        source = ScriptedLoop([_request(0, 0.5), _request(1, 0.75)],
                              [_request(2, 0.0)], think=0.5, log=log)
        runs = [ScriptedRun(0, [1.0, 2.0], log, on_advance=source.release),
                ScriptedRun(1, [1.5], log)]
        drive(source, runs, lambda request: request.request_id % 2,
              journal=journal)
        assert journal == [
            (0.5, ARRIVAL, 0), (0.75, ARRIVAL, 1), (1.0, COMPLETION, 0),
            (1.5, ARRIVAL, 0), (1.5, COMPLETION, 1), (2.0, COMPLETION, 0),
        ]
        check_heap_invariants(journal, log, runs)

    def test_faulted_list(self):
        # Replica 1 fails at 0.625 holding request 1, whose retry lands at
        # 1.0 — where the recovery, the retry, source arrival 3 and run
        # 0's event all tie.  The recovery goes first, then the retry
        # (pushed at 0.625) before arrival 3 (its slot taken when arrival
        # 2 was dispatched at 0.75), then the run event.  Replica 1's
        # event scheduled for 1.0 died with the failure and never shows.
        log, journal = [], []
        runs = [ScriptedRun(0, [1.0, 3.0], log),
                ScriptedRun(1, [1.0, 2.0], log)]
        schedule = FaultSchedule([FaultEvent(1, 0.625, 1.0, mode="crash")])
        coordinator = FaultCoordinator(
            schedule, retry=RetryPolicy(max_retries=2, backoff_s=0.375))
        router = Router(2, "round-robin", seed=0)

        def route(request):
            return router.assign(request, [1.0, 1.0])

        coordinator.bind(runs, route, router=router)
        arrivals = LoggedArrivals([_request(0, 0.25), _request(1, 0.5),
                                   _request(2, 0.75), _request(3, 1.0)], log)
        drive(arrivals, runs, route, journal=journal, faults=coordinator)
        assert journal == [
            (0.25, ARRIVAL, 0), (0.5, ARRIVAL, 1),
            (0.625, REPLICA_FAIL, 1), (0.75, ARRIVAL, 0),
            (1.0, REPLICA_RECOVER, 1), (1.0, ARRIVAL, 1),
            (1.0, ARRIVAL, 0), (1.0, COMPLETION, 0),
            (2.0, COMPLETION, 1), (3.0, COMPLETION, 0),
        ]
        offers = [entry[2] for entry in log if entry[0] == "offer"]
        assert offers == [0, 1, 2, 1, 3]  # the retry of 1 before 3
        check_heap_invariants(journal, log, runs)
        assert coordinator.num_retries == 1
