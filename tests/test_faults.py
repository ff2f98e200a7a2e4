"""Tests for fault injection and failure recovery (repro.faults).

Pins the tentpole contracts: fault-free serves stay bit-identical to the
golden journal pins, a mid-trace crash on a 2-replica cluster completes
every retryable request through health-aware re-routing plus retry,
drain-mode outages migrate resident work with priced KV transfers,
retry exhaustion terminates requests as ``failed`` records, degraded-mode
shedding protects interactive goodput, and — property-tested — every
arrival terminates as exactly one of ``completed``/``failed``/``shed``
under arbitrary fault schedules, deterministically per seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import ReplicaGroup
from repro.cluster.router import Router
from repro.core.engine import AlisaSystem
from repro.faults import (
    FAULT_MODES,
    FaultEvent,
    FaultSchedule,
    LoadShedder,
    RetryPolicy,
)
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import Observer, SpanTracer
from repro.obs.report import render
from repro.serving import (
    REPLICA_FAIL,
    REPLICA_RECOVER,
    ContinuousBatchingEngine,
)
from repro.serving.trace import REQUEST_STATUSES
from repro.workloads.arrivals import Request, generate_requests
from repro.workloads.sessions import sessions

MODEL = "opt-6.7b"
CLASS_SLOS = {"interactive": (2.0, 0.2), "batch": (30.0, 2.0)}


def engine(**kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(FlexGenSystem(MODEL, V100_16GB_NODE),
                                    **kwargs)


def requests(n=16, rate=4.0, seed=3, **kwargs):
    return generate_requests(n, rate, pattern="bursty", seed=seed,
                             max_len=512, **kwargs)


def group(policy="jsq", seed=3, **engine_kwargs) -> ReplicaGroup:
    def build(node, parallelism):
        return FlexGenSystem(MODEL, node, parallelism=parallelism)
    return ReplicaGroup.from_layout(build, "2x(none)", V100_16GB_NODE,
                                    policy=policy, seed=seed,
                                    **engine_kwargs)


def mixed_classes():
    """Batch-heavy load plus interactive arrivals (generate_requests emits
    interactive-only traces, so the class mix is built explicitly)."""
    reqs = []
    for i in range(8):
        reqs.append(Request(request_id=i, arrival_time=0.4 * i,
                            input_len=256, output_len=64, slo_class="batch"))
    for j in range(6):
        reqs.append(Request(request_id=100 + j, arrival_time=0.9 + 0.5 * j,
                            input_len=64, output_len=32,
                            slo_class="interactive"))
    return sorted(reqs, key=lambda r: (r.arrival_time, r.request_id))


def crash_at(fail=2.0, recover=4.0, replica=0, mode="crash"):
    return FaultSchedule([FaultEvent(replica, fail, recover, mode=mode)])


# --------------------------------------------------------------------- #
# Schedule and policy validation
# --------------------------------------------------------------------- #
class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(0, 1.0, 2.0, mode="meteor")
        with pytest.raises(ConfigurationError):
            FaultEvent(-1, 1.0, 2.0)
        with pytest.raises(ConfigurationError):
            FaultEvent(0, 2.0, 2.0)  # recover must exceed fail
        with pytest.raises(ConfigurationError):
            FaultEvent(0, -0.5, 2.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ConfigurationError, match="overlapping"):
            FaultSchedule([FaultEvent(0, 1.0, 3.0), FaultEvent(0, 2.0, 4.0)])
        # Same windows on different replicas are fine.
        FaultSchedule([FaultEvent(0, 1.0, 3.0), FaultEvent(1, 2.0, 4.0)])

    def test_non_event_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule([(0, 1.0, 2.0)])

    def test_timeline_recover_sorts_before_fail_at_ties(self):
        schedule = FaultSchedule([FaultEvent(0, 1.0, 2.0),
                                  FaultEvent(1, 2.0, 3.0)])
        timeline = schedule.timeline()
        assert timeline == [(1.0, REPLICA_FAIL, 0),
                            (2.0, REPLICA_RECOVER, 0),
                            (2.0, REPLICA_FAIL, 1),
                            (3.0, REPLICA_RECOVER, 1)]

    def test_stochastic_is_seed_deterministic(self):
        args = dict(num_replicas=2, mtbf_s=5.0, mttr_s=1.0, horizon_s=60.0)
        assert FaultSchedule.stochastic(**args, seed=7) == \
            FaultSchedule.stochastic(**args, seed=7)
        assert FaultSchedule.stochastic(**args, seed=7) != \
            FaultSchedule.stochastic(**args, seed=8)

    def test_stochastic_windows_respect_horizon_and_modes(self):
        schedule = FaultSchedule.stochastic(3, mtbf_s=4.0, mttr_s=0.5,
                                            horizon_s=40.0, seed=1,
                                            mode="drain")
        assert len(schedule) > 0
        for event in schedule.events:
            assert event.fail_time < 40.0
            assert event.mode == "drain"
            assert event.mode in FAULT_MODES

    def test_downtime_clips_to_horizon(self):
        schedule = FaultSchedule([FaultEvent(0, 2.0, 1000.0)])
        assert schedule.downtime_s(10.0) == pytest.approx(8.0)
        assert schedule.downtime_s(2000.0) == pytest.approx(998.0)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        retry = RetryPolicy(max_retries=3, backoff_s=0.1, backoff_factor=2.0)
        assert retry.delay(1) == pytest.approx(0.1)
        assert retry.delay(2) == pytest.approx(0.2)
        assert retry.delay(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.0)


class TestLoadShedder:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadShedder(classes=("steerage",))
        with pytest.raises(ConfigurationError):
            LoadShedder(classes=())
        with pytest.raises(ConfigurationError):
            LoadShedder(kv_occupancy=1.5)

    def test_sheds_only_degraded_sheddable_classes(self):
        shedder = LoadShedder()
        batch = Request(request_id=0, arrival_time=0.0, input_len=8,
                        output_len=4, slo_class="batch")
        interactive = Request(request_id=1, arrival_time=0.0, input_len=8,
                              output_len=4, slo_class="interactive")
        assert not shedder.should_shed(batch, False, [])
        assert shedder.should_shed(batch, True, [])
        assert not shedder.should_shed(interactive, True, [])


# --------------------------------------------------------------------- #
# Bit-identity: faults=None perturbs nothing
# --------------------------------------------------------------------- #
class TestNoFaultBitIdentity:
    def test_engine_serve_reproduces_golden_pin(self):
        trace = engine().serve(requests(), faults=None)
        assert trace.num_requests == 16
        assert trace.generated_tokens == 2937
        assert trace.duration == pytest.approx(12.026624695478137, abs=1e-12)
        assert trace.num_failed == 0 and trace.num_shed == 0
        assert trace.num_retries == 0
        assert "resilience" not in trace.metadata
        assert all(r.status == "completed" for r in trace.records)

    def test_retry_and_shedding_require_faults(self):
        with pytest.raises(ConfigurationError, match="faults"):
            engine().serve(requests(), retry=RetryPolicy())
        with pytest.raises(ConfigurationError, match="faults"):
            engine().serve(requests(), shedding=LoadShedder())

    @pytest.mark.parametrize("layer", ["engine", "group"])
    def test_closed_loop_sources_rejected(self, layer):
        source = sessions(4, rate=2.0, seed=1).closed_loop()
        server = engine() if layer == "engine" else group()
        with pytest.raises(ConfigurationError, match="closed-loop"):
            server.serve(source, faults=crash_at())
        assert not source.assignments  # rejected before anything ran

    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    @pytest.mark.parametrize("policy", ["round-robin", "jsq"])
    @pytest.mark.parametrize("system", [FlexGenSystem, VLLMSystem])
    def test_empty_schedule_equals_no_faults_on_a_list(self, system, policy,
                                                       record_mode):
        # A list routes live either way, so an empty schedule changes
        # nothing but the fault blocks: the same records, summary and
        # metadata, per-replica KV budgets included.
        def build(node, parallelism):
            return system(MODEL, node, parallelism=parallelism)

        def serve(**fault_kwargs):
            cluster = ReplicaGroup.from_layout(build, "2x(none)",
                                               V100_16GB_NODE, policy=policy,
                                               seed=3)
            return cluster.serve(requests(), record_mode=record_mode,
                                 class_slos=CLASS_SLOS, **fault_kwargs)

        def without_fault_blocks(value):
            if isinstance(value, dict):
                return {key: without_fault_blocks(item)
                        for key, item in value.items()
                        if key not in ("faults", "resilience",
                                       "wall_clock_s")}
            if isinstance(value, list):
                return [without_fault_blocks(item) for item in value]
            return value

        plain, empty = serve(), serve(faults=FaultSchedule([]))
        assert "resilience" in empty.metadata
        if record_mode == "full":
            assert empty.records == plain.records
        assert empty.summary() == plain.summary()
        assert empty.per_class_summary() == plain.per_class_summary()
        assert without_fault_blocks(empty.metadata) == \
            without_fault_blocks(plain.metadata)

    def test_exact_stepping_rejects_faults(self):
        # The clock-stepped option is gone: neither the system nor the
        # engine accepts the keyword.
        with pytest.raises(TypeError, match="exact_stepping"):
            FlexGenSystem(MODEL, V100_16GB_NODE, exact_stepping=True)
        with pytest.raises(TypeError, match="exact_stepping"):
            engine(exact_stepping=True)


# --------------------------------------------------------------------- #
# Single-engine failure and recovery
# --------------------------------------------------------------------- #
class TestEngineFaults:
    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_outage_completes_every_request_via_retry(self, mode):
        trace = engine().serve(requests(), faults=crash_at(mode=mode))
        assert trace.num_requests == 16
        assert len(trace.completed_records) == 16
        assert trace.num_failed == 0 and trace.num_shed == 0
        assert trace.num_retries > 0
        resilience = trace.metadata["resilience"]
        assert resilience["num_failures"] == 1
        assert resilience["downtime_s"] == pytest.approx(2.0)
        assert 0.0 < resilience["availability"] < 1.0
        assert trace.metadata["faults"]["num_failures"] == 1

    def test_retried_records_keep_original_arrival(self):
        plain = engine().serve(requests())
        trace = engine().serve(requests(), faults=crash_at())
        arrivals = {r.request_id: r.arrival_time for r in plain.records}
        retried = [r for r in trace.records if r.retries > 0]
        assert retried
        for record in trace.records:
            assert record.arrival_time == arrivals[record.request_id]
        assert sum(r.retries for r in trace.records) == trace.num_retries

    def test_drain_prices_kv_migration(self):
        crash = engine().serve(requests(), faults=crash_at(mode="crash"))
        drain = engine().serve(requests(), faults=crash_at(mode="drain"))
        assert crash.metadata["faults"]["drained_bytes"] == 0.0
        assert drain.metadata["faults"]["drained_bytes"] > 0.0

    def test_retry_exhaustion_terminates_as_failed(self):
        # The outage never recovers within the trace and retries are
        # forbidden, so everything interrupted (or arriving while down)
        # must terminate as a failed record.
        trace = engine().serve(
            requests(), faults=crash_at(fail=2.0, recover=10_000.0),
            retry=RetryPolicy(max_retries=0))
        assert trace.num_failed > 0
        assert len(trace.completed_records) + trace.num_failed == 16
        for record in trace.records:
            if record.status != "failed":
                continue
            # Failed records collapse to their termination instant.
            assert record.admission_time == record.completion_time
            assert record.first_token_time == record.completion_time
            assert record.completion_time >= record.arrival_time

    def test_metrics_cover_only_completed_records(self):
        trace = engine().serve(
            requests(), faults=crash_at(fail=2.0, recover=10_000.0),
            retry=RetryPolicy(max_retries=0))
        completed = trace.completed_records
        assert trace.generated_tokens == sum(r.output_len for r in completed)
        assert trace.duration == max(r.completion_time
                                     for r in trace.records)

    def test_streaming_summary_matches_full(self):
        # The engine retries; the 2-replica group sheds batch arrivals
        # while degraded and fails what the crash interrupts, so both
        # terminal statuses are added to the trace after the drive.
        cases = [
            (engine, requests, dict(faults=crash_at(fail=2.0, recover=4.0),
                                    retry=RetryPolicy(max_retries=1))),
            (group, mixed_classes, dict(faults=crash_at(fail=1.0,
                                                        recover=2.5),
                                        retry=RetryPolicy(max_retries=0),
                                        shedding=LoadShedder())),
        ]
        for server, source, kwargs in cases:
            full = server().serve(source(), **kwargs)
            streaming = server().serve(source(), record_mode="streaming",
                                       **kwargs)
            full_summary = full.summary()
            stream_summary = streaming.summary()
            for key in ("num_requests", "generated_tokens", "duration_s",
                        "num_failed", "num_shed", "num_retries",
                        "throughput_tokens_per_s"):
                assert stream_summary[key] == full_summary[key], key
            assert (streaming.metadata["resilience"]
                    == full.metadata["resilience"])
        assert full.num_failed > 0 and full.num_shed > 0

    def test_schedule_naming_missing_replica_rejected(self):
        with pytest.raises(ConfigurationError, match="replica"):
            engine().serve(requests(), faults=crash_at(replica=1))

    @pytest.mark.parametrize("record_mode", ["full", "streaming"])
    def test_empty_list_drives_its_schedule_like_one_replica_group(
            self, record_mode):
        # An empty serve runs an idle run through the fault timeline, so
        # the engine counts the crash exactly as a one-replica group does.
        one = ReplicaGroup.from_layout(
            lambda node, parallelism: FlexGenSystem(
                MODEL, node, parallelism=parallelism),
            "1x(none)", V100_16GB_NODE)
        served = [server.serve([], faults=crash_at(), record_mode=record_mode)
                  for server in (engine(), one)]
        resilience = [trace.metadata["resilience"] for trace in served]
        assert resilience[0] == resilience[1]
        assert resilience[0]["num_failures"] == 1
        assert served[0].metadata["faults"]["num_failures"] == 1
        assert served[0].num_requests == 0


# --------------------------------------------------------------------- #
# Cluster failure and recovery (the acceptance scenario)
# --------------------------------------------------------------------- #
class TestClusterFaults:
    def test_mid_trace_crash_jsq_completes_every_request(self):
        journal = []
        trace = group().serve(requests(), faults=crash_at(replica=1),
                              event_journal=journal)
        assert trace.num_requests == 16
        assert len(trace.completed_records) == 16
        assert trace.num_failed == 0 and trace.num_shed == 0
        kinds = {kind for _, kind, _ in journal}
        assert REPLICA_FAIL in kinds and REPLICA_RECOVER in kinds
        # Health-aware routing skews dispatch to the survivor.
        counts = trace.metadata["routing"]["dispatch_counts"]
        assert sum(counts) >= 16  # retries re-dispatch through the router
        assert trace.metadata["resilience"]["num_failures"] == 1

    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_cluster_modes_conserve_requests(self, mode):
        trace = group().serve(requests(), faults=crash_at(replica=1,
                                                          mode=mode))
        assert len(trace.records) == 16
        assert len({r.request_id for r in trace.records}) == 16

    def test_availability_clips_to_trace_duration(self):
        # The recovery lands long after the last completion: only the
        # in-trace part of the outage may count as downtime.
        trace = group().serve(requests(),
                              faults=crash_at(fail=2.0, recover=1000.0,
                                              replica=1))
        resilience = trace.metadata["resilience"]
        assert resilience["downtime_s"] <= trace.duration
        expected = 1.0 - (trace.duration - 2.0) / (2 * trace.duration)
        assert resilience["availability"] == pytest.approx(expected)

    def test_total_outage_parks_and_recovers(self):
        faults = FaultSchedule([FaultEvent(0, 1.0, 3.0),
                                FaultEvent(1, 1.5, 2.5)])
        trace = group().serve(requests(), faults=faults)
        assert len(trace.records) == 16
        assert len(trace.completed_records) == 16

    def test_event_journal_is_seed_deterministic(self):
        faults = FaultSchedule.stochastic(2, mtbf_s=4.0, mttr_s=0.5,
                                          horizon_s=8.0, seed=5)
        journals = []
        for _ in range(2):
            journal = []
            trace = group().serve(requests(), faults=faults,
                                  event_journal=journal)
            journals.append((journal, trace.summary()))
        assert journals[0][0] == journals[1][0]
        assert journals[0][1] == journals[1][1]

    def test_retry_is_not_admitted_before_its_redispatch(self):
        # A request migrated off a draining replica is retried onto a
        # replica whose clock lags the re-dispatch instant.  Admitting it
        # at that lagging clock once put its completion before the first
        # token it had produced on the drained replica, and the serve
        # raised on record validation.
        def build(node, parallelism):
            return AlisaSystem(MODEL, node, kv_sparsity=0.8,
                               parallelism=parallelism)

        cluster = ReplicaGroup.from_layout(build, "2x(none)",
                                           V100_16GB_NODE, policy="jsq")
        arrivals = generate_requests(48, 4.0, pattern="bursty", seed=3400)
        faults = FaultSchedule([FaultEvent(1, 1.2, 2.1, mode="crash"),
                                FaultEvent(0, 3.6, 4.2, mode="drain")])
        log = _AdmissionLog()
        trace = cluster.serve(arrivals, faults=faults,
                              retry=RetryPolicy(max_retries=4,
                                                backoff_s=0.05),
                              observers=[log])
        assert len(trace.completed_records) == 48
        assert trace.num_retries > 0
        assert log.late_admissions == []
        # Latency still counts from the first arrival.
        arrival_of = {r.request_id: r.arrival_time for r in arrivals}
        for record in trace.records:
            assert record.arrival_time == arrival_of[record.request_id]


class _AdmissionLog(Observer):
    """Admissions that happened before the request's latest retry."""

    def __init__(self):
        self.retried_at = {}
        self.late_admissions = []

    def on_retry(self, replica, time, request, attempt):
        self.retried_at[request.request_id] = time

    def on_admission(self, replica, time, request, prefix_hit=False,
                     resumed=False):
        retried_at = self.retried_at.get(request.request_id)
        if retried_at is not None and time < retried_at:
            self.late_admissions.append((request.request_id, time,
                                         retried_at))


class TestRouterHealth:
    def test_mark_down_excludes_replica(self):
        router = Router(2, policy="jsq")
        router.mark_down(0)
        request = Request(request_id=0, arrival_time=0.0, input_len=8,
                          output_len=4)
        assert router.assign(request, [1.0, 1.0]) == 1
        router.mark_up(0)
        with pytest.raises(ConfigurationError):
            router.mark_down(5)

    def test_round_robin_skips_down(self):
        router = Router(3, policy="round-robin")
        router.mark_down(1)
        request = Request(request_id=0, arrival_time=0.0, input_len=8,
                          output_len=4)
        picks = [router.assign(request, [1.0] * 3) for _ in range(4)]
        assert 1 not in picks

    def test_all_down_raises(self):
        router = Router(2, policy="jsq")
        router.mark_down(0)
        router.mark_down(1)
        request = Request(request_id=0, arrival_time=0.0, input_len=8,
                          output_len=4)
        with pytest.raises(ConfigurationError, match="down"):
            router.assign(request, [1.0, 1.0])

    def test_session_affinity_replaces_pinned_down_session(self):
        from repro.workloads.sessions import SessionRequest
        router = Router(2, policy="session-affinity", seed=0)
        first = SessionRequest(request_id=0, arrival_time=0.0, input_len=8,
                               output_len=4, session_id=9, final_turn=False)
        pinned = router.assign(first, [1.0, 1.0])
        router.mark_down(pinned)
        second = SessionRequest(request_id=1, arrival_time=1.0, input_len=8,
                                output_len=4, session_id=9, final_turn=False)
        assert router.assign(second, [1.0, 1.0]) != pinned


# --------------------------------------------------------------------- #
# Degraded-mode load shedding
# --------------------------------------------------------------------- #
class TestShedding:
    def test_shedding_protects_interactive_goodput(self):
        faults = crash_at(fail=1.0, recover=2.5)
        base = engine(preemption="retain").serve(
            mixed_classes(), faults=faults, class_slos=CLASS_SLOS)
        shed = engine(preemption="retain").serve(
            mixed_classes(), faults=faults, class_slos=CLASS_SLOS,
            shedding=LoadShedder())
        assert base.num_shed == 0
        assert shed.num_shed > 0
        def interactive_goodput(trace):
            return trace.per_class_summary(CLASS_SLOS)["interactive"][
                "goodput_tokens_per_s"]
        assert interactive_goodput(shed) > interactive_goodput(base)

    def test_shed_records_are_batch_class_instants(self):
        trace = engine(preemption="retain").serve(
            mixed_classes(), faults=crash_at(fail=1.0, recover=2.5),
            shedding=LoadShedder())
        shed = [r for r in trace.records if r.status == "shed"]
        assert shed
        for record in shed:
            assert record.slo_class == "batch"
            assert record.completion_time == record.arrival_time
        assert len(trace.records) == len(mixed_classes())


# --------------------------------------------------------------------- #
# Observability integration
# --------------------------------------------------------------------- #
class _FaultLog(Observer):
    def __init__(self):
        self.fails = []
        self.recovers = []
        self.retries = []
        self.sheds = []

    def on_replica_fail(self, replica, time, mode):
        self.fails.append((replica, time, mode))

    def on_replica_recover(self, replica, time):
        self.recovers.append((replica, time))

    def on_retry(self, replica, time, request, attempt):
        self.retries.append((replica, request.request_id, attempt))

    def on_shed(self, time, request):
        self.sheds.append(request.request_id)


class TestObservabilityIntegration:
    def test_fault_hooks_fire(self):
        log = _FaultLog()
        trace = group().serve(requests(), faults=crash_at(replica=1),
                              observers=[log])
        assert log.fails == [(1, 2.0, "crash")]
        assert log.recovers == [(1, 4.0)]
        assert len(log.retries) == trace.num_retries

    def test_shed_hook_fires(self):
        log = _FaultLog()
        trace = engine(preemption="retain").serve(
            mixed_classes(), faults=crash_at(fail=1.0, recover=2.5),
            shedding=LoadShedder(), observers=[log])
        assert len(log.sheds) == trace.num_shed > 0

    def test_chrome_trace_carries_fault_markers(self):
        tracer = SpanTracer()
        trace = group().serve(requests(), faults=crash_at(replica=1),
                              observers=[tracer], class_slos=CLASS_SLOS)
        chrome = tracer.to_chrome_trace()
        faults = [e for e in chrome["traceEvents"]
                  if e.get("cat") == "fault"]
        outages = [e for e in faults if e["name"] == "outage"]
        assert len(outages) == 1
        assert outages[0]["ph"] == "X" and outages[0]["pid"] == 1
        assert outages[0]["ts"] == pytest.approx(2.0 * 1e6)
        assert outages[0]["dur"] == pytest.approx(2.0 * 1e6)
        instants = {e["name"] for e in faults if e["ph"] == "i"}
        assert {"replica-fail", "replica-recover", "retry"} <= instants
        assert chrome["otherData"]["resilience"] == \
            trace.metadata["resilience"]

    def test_report_renders_resilience_section(self):
        tracer = SpanTracer()
        group().serve(requests(), faults=crash_at(replica=1),
                      observers=[tracer], class_slos=CLASS_SLOS)
        text = render(tracer.to_chrome_trace())
        assert "Resilience (fault injection)" in text
        assert "availability=" in text

    def test_no_fault_export_has_no_markers(self):
        tracer = SpanTracer()
        engine().serve(requests(), observers=[tracer])
        chrome = tracer.to_chrome_trace()
        assert not [e for e in chrome["traceEvents"]
                    if e.get("cat") == "fault"]
        assert chrome["otherData"]["resilience"] is None


# --------------------------------------------------------------------- #
# Property: conservation of arrivals under arbitrary schedules
# --------------------------------------------------------------------- #
@st.composite
def fault_schedules(draw):
    events = []
    for replica in range(2):
        if not draw(st.booleans()):
            continue
        fail = draw(st.floats(min_value=0.1, max_value=6.0,
                              allow_nan=False, allow_infinity=False))
        length = draw(st.floats(min_value=0.2, max_value=5.0,
                                allow_nan=False, allow_infinity=False))
        mode = draw(st.sampled_from(FAULT_MODES))
        events.append(FaultEvent(replica, fail, fail + length, mode=mode))
    return FaultSchedule(events)


class TestTerminationProperty:
    @settings(max_examples=12, deadline=None)
    @given(schedule=fault_schedules(),
           max_retries=st.integers(min_value=0, max_value=2),
           shed=st.booleans())
    def test_every_arrival_terminates_exactly_once(self, schedule,
                                                   max_retries, shed):
        arrivals = mixed_classes()
        trace = group().serve(
            arrivals, faults=schedule,
            retry=RetryPolicy(max_retries=max_retries),
            shedding=LoadShedder() if shed else None)
        assert len(trace.records) == len(arrivals)
        assert {r.request_id for r in trace.records} == \
            {r.request_id for r in arrivals}
        for record in trace.records:
            assert record.status in REQUEST_STATUSES
        assert len(trace.completed_records) + trace.num_failed \
            + trace.num_shed == len(arrivals)
