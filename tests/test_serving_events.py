"""Tests for the event-driven serving core (repro.serving.events).

Covers the tentpole contracts: the event heap reproduces the retained
clock-stepped loop bit-identically in ``record_mode="full"``, streaming
traces agree on every exact aggregate, request streams are byte-identical
to materialized traces, and the merged cluster event stream matches
serving the routed shares directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import ReplicaGroup, StreamingClusterTrace
from repro.core.engine import AlisaSystem
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine, ServingTrace, StreamingTrace
from repro.serving.events import (
    ADMISSION,
    ARRIVAL,
    COMPLETION,
    EPOCH_BOUNDARY,
    drive,
)
from repro.workloads.arrivals import RequestStream, generate_requests

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
        trace_clock = engine(system, exact_stepping=True).serve(requests())
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
        trace_clock = engine(build, exact_stepping=True).serve(requests(n=12))
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

    @pytest.mark.parametrize("policy", ["round-robin", "jsq"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_streaming_replica_breakdown_matches_full(self, policy, seed):
        # Every per-replica field — counts, tokens, makespan, mean queueing
        # delay, budgets, peaks, comm share — is exact in both modes.
        def factory(node, parallelism):
            return VLLMSystem(MODEL, node, parallelism=parallelism)
        group = ReplicaGroup.from_layout(factory, "2x(none)",
                                         V100_16GB_NODE, policy=policy)
        trace = requests(n=40, rate=8.0, seed=seed)
        full = group.serve(trace)
        stream = group.serve(trace, record_mode="streaming")
        assert len(full.metadata["replicas"]) == 2
        assert stream.metadata["replicas"] == full.metadata["replicas"]
        assert stream.metadata["kv_budget_tokens"] == \
            full.metadata["kv_budget_tokens"]

    def test_unknown_record_mode_raises(self):
        with pytest.raises(ConfigurationError, match="record_mode"):
            engine().serve(requests(n=2), record_mode="sampled")

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=50),
           st.sampled_from([1.0, 4.0, 16.0]))
    @settings(max_examples=15, deadline=None)
    def test_property_event_loop_matches_step_loop(self, n, seed, rate):
        # For any workload: the event-driven serve is bit-identical to the
        # retained clock-stepped loop in full mode, the streaming sketch
        # trace agrees with both on every exact aggregate, and its
        # percentile estimates sit within the observed value range (P²
        # estimates never extrapolate).
        trace_requests = generate_requests(n, rate, pattern="poisson",
                                           seed=seed, max_len=256)
        full = engine().serve(trace_requests)
        stepped = engine(exact_stepping=True).serve(trace_requests)
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
        stream = RequestStream(10, rate=2.0, input_len=64, output_len=32)
        with pytest.raises(ConfigurationError, match="exact_stepping"):
            engine(exact_stepping=True).serve(stream)


class TestDriveValidation:
    def test_drive_needs_runs(self):
        with pytest.raises(ConfigurationError):
            drive([], [], lambda request: 0)

    def test_route_index_out_of_range(self):
        run = engine().start_run(
            engine().make_trace("full"), max_input_len=64, max_output_len=32)
        with pytest.raises(ConfigurationError, match="run index"):
            drive(requests(n=2, input_len=64, output_len=32), [run],
                  lambda request: 5)

    def test_out_of_order_arrivals_rejected(self):
        shared = engine()
        run = shared.start_run(shared.make_trace("full"),
                               max_input_len=64, max_output_len=32)
        backwards = sorted(requests(n=4, input_len=64, output_len=32),
                           key=lambda r: -r.arrival_time)
        with pytest.raises(ConfigurationError, match="sorted"):
            drive(backwards, [run], lambda request: 0)
