"""Tests for multi-turn sessions, prefix reuse, and SLO-class preemption.

Pins the PR's tentpole contracts: session traces lower to the exact
single-shot stream when reuse is off (hypothesis invariant), prefix-reuse
admission charges only the suffix and reports hit/miss/evicted ledgers,
priority preemption lifts interactive-tier goodput over FIFO at equal GPU
count, and — the regression that matters most — preemption-free serves
stay bit-identical to the event core's frozen golden pin.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clock_reference import serve_stepped
from session_reference import scripts_numpy_scalar
from repro._common import ConfigurationError, rng
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.cluster import ReplicaGroup, Router
from repro.core.engine import AlisaSystem
from repro.hardware.presets import V100_16GB_NODE
from repro.obs import Observer
from repro.serving import PREEMPTION_MODES, ContinuousBatchingEngine
from repro.serving.events import ADMISSION, ARRIVAL, COMPLETION, EPOCH_BOUNDARY
from repro.workloads.arrivals import (
    ARRIVAL_PATTERNS,
    SLO_CLASSES,
    Request,
    generate_requests,
)
from repro.workloads.sessions import (
    SessionRequest,
    SessionTrace,
    replay_requests,
    sessions,
)

MODEL = "opt-6.7b"


def engine(system=FlexGenSystem, *, max_batch_size=None, preemption=None,
           prefix_reuse=True, prefill_chunk_tokens=None,
           **kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(
        system(MODEL, V100_16GB_NODE, **kwargs),
        max_batch_size=max_batch_size, preemption=preemption,
        prefix_reuse=prefix_reuse, prefill_chunk_tokens=prefill_chunk_tokens)


def chat(num_sessions=12, rate=2.0, seed=3, **kwargs) -> SessionTrace:
    kwargs.setdefault("interactive_fraction", 0.5)
    kwargs.setdefault("mean_turns", 3.0)
    kwargs.setdefault("max_context", 1024)
    kwargs.setdefault("mean_new_input", 48)
    kwargs.setdefault("mean_output", 64)
    return sessions(num_sessions, rate, seed=seed, **kwargs)


# --------------------------------------------------------------------- #
# Lowering contract
# --------------------------------------------------------------------- #
class TestSessionLowering:
    def test_turns_sorted_with_positional_ids(self):
        turns = chat().requests()
        assert [t.request_id for t in turns] == list(range(len(turns)))
        arrivals = [t.arrival_time for t in turns]
        assert arrivals == sorted(arrivals)

    def test_prefix_is_previous_context(self):
        by_session: dict[int, list[SessionRequest]] = {}
        for turn in chat().requests():
            by_session.setdefault(turn.session_id, []).append(turn)
        for turns in by_session.values():
            turns.sort(key=lambda t: t.turn_index)
            assert turns[0].prefix_len == 0
            assert turns[-1].final_turn
            for prev, cur in zip(turns, turns[1:]):
                assert not prev.final_turn
                assert cur.prefix_len == prev.input_len + prev.output_len
                assert cur.suffix_len >= 1

    def test_context_cap_respected(self):
        trace = chat(max_context=512)
        assert all(t.max_seq_len <= 512 for t in trace.requests())

    def test_slo_class_constant_per_session(self):
        classes: dict[int, set] = {}
        for turn in chat().requests():
            classes.setdefault(turn.session_id, set()).add(turn.slo_class)
        assert all(len(seen) == 1 for seen in classes.values())
        assert set().union(*classes.values()) <= set(SLO_CLASSES)

    def test_rateless_spec_needs_with_rate(self):
        spec = sessions(8)
        with pytest.raises(ConfigurationError, match="no arrival rate"):
            spec.requests()
        assert spec.with_rate(2.0).num_turns > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sessions(8, 2.0, interactive_fraction=1.5)
        with pytest.raises(ConfigurationError):
            sessions(8, 2.0, mean_turns=0.5)
        with pytest.raises(ConfigurationError):
            SessionRequest(request_id=0, arrival_time=0.0, input_len=4,
                           output_len=4, prefix_len=4)

    @given(num_sessions=st.integers(1, 16),
           seed=st.integers(0, 2**16),
           mean_turns=st.floats(1.0, 6.0),
           interactive_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_reuse_off_equals_single_shot(self, num_sessions, seed,
                                          mean_turns, interactive_fraction):
        # The ISSUE invariant: disabling prefix reuse in the lowering gives
        # a trace request-for-request identical to the single-shot view on
        # every Request field — a session-blind stack sees no difference.
        trace = sessions(num_sessions, 2.0, seed=seed, mean_turns=mean_turns,
                         interactive_fraction=interactive_fraction)
        lowered = trace.requests(prefix_reuse=False)
        flat = trace.single_shot()
        assert len(lowered) == len(flat)
        for turn, single in zip(lowered, flat):
            assert turn.prefix_len == 0 and turn.final_turn
            assert dataclasses.astuple(single) == (
                turn.request_id, turn.arrival_time, turn.input_len,
                turn.output_len, turn.slo_class)

    def test_replay_requests_round_trip(self):
        trace = engine().serve(chat().requests())
        replayed = replay_requests(trace.records)
        assert [r.request_id for r in replayed] == \
            sorted(r.request_id for r in replayed)
        by_id = {r.request_id: r for r in trace.records}
        for request in replayed:
            record = by_id[request.request_id]
            assert request.arrival_time == record.arrival_time
            assert request.input_len == record.input_len
            assert request.output_len == record.output_len
            assert request.slo_class == record.slo_class


# --------------------------------------------------------------------- #
# Scalar lowering vs. the NumPy-scalar reference
# --------------------------------------------------------------------- #
def lowered(spec):
    """Everything a spec lowers to, as exact reprs (types and float bits)."""
    source = spec.closed_loop()
    return {
        "scripts": repr(spec._scripts()),
        "requests": repr(spec.requests()),
        "single_shot": repr(spec.single_shot()),
        "closed_loop": repr((source._scripts, source.num_turns,
                             source.length_bounds)),
    }


def lowered_by_reference(spec):
    with mock.patch.object(SessionTrace, "_scripts", scripts_numpy_scalar):
        return lowered(spec)


class TestScalarLowering:
    """The scalar draws reproduce the NumPy-scalar lowering bit for bit.

    Draw order (input, output, think time, then the early-end check) is
    the contract: one generator drives every draw, so a reordered or
    skipped draw shifts every later session.
    """

    @given(seed=st.integers(0, 2**16),
           pattern=st.sampled_from(sorted(ARRIVAL_PATTERNS)),
           num_sessions=st.integers(1, 12),
           mean_turns=st.floats(1.0, 8.0),
           sigma=st.sampled_from([0.1, 0.8, 1.7, 3.0]),
           max_context=st.sampled_from([2, 3, 17, 96, 2048]),
           mean_new_input=st.integers(1, 300),
           mean_output=st.integers(1, 300),
           interactive_fraction=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_lowering_equals_reference(self, seed, pattern, num_sessions,
                                       mean_turns, sigma, max_context,
                                       mean_new_input, mean_output,
                                       interactive_fraction):
        spec = sessions(num_sessions, 3.0, seed=seed, pattern=pattern,
                        mean_turns=mean_turns, sigma=sigma,
                        max_context=max_context,
                        mean_new_input=mean_new_input,
                        mean_output=mean_output,
                        interactive_fraction=interactive_fraction)
        got, expected = lowered(spec), lowered_by_reference(spec)
        for part in expected:
            assert got[part] == expected[part], part

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    @pytest.mark.parametrize("pattern", sorted(ARRIVAL_PATTERNS))
    def test_caps_and_early_ends_are_exercised(self, seed, pattern):
        # A heavy tail against a small context: lengths hit both caps and
        # sessions end before their drawn turn count, and the lowering
        # still equals the reference.
        spec = sessions(24, 2.0, seed=seed, pattern=pattern, sigma=2.5,
                        max_context=64, mean_turns=6.0, mean_new_input=24,
                        mean_output=24)
        scripts = spec._scripts()
        turn_counts = np.minimum(
            rng(seed + 1).geometric(1.0 / spec.mean_turns,
                                    size=spec.num_sessions),
            spec.max_turns)
        turns = [turn for _, _, script in scripts for turn in script]
        assert any(turn[1] == 32 for turn in turns)  # input cap
        assert any(turn[2] == 32 for turn in turns)  # output cap
        assert any(len(script) < count for (_, _, script), count
                   in zip(scripts, turn_counts.tolist()))
        assert lowered(spec) == lowered_by_reference(spec)


# --------------------------------------------------------------------- #
# Prefix-reuse admission
# --------------------------------------------------------------------- #
class TestPrefixReuse:
    def test_hit_ledger_and_metadata(self):
        trace = engine().serve(chat().requests())
        stats = trace.metadata["prefix_cache"]
        assert stats["hits"] + stats["misses"] > 0
        assert stats["hit_rate"] == pytest.approx(
            stats["hits"] / (stats["hits"] + stats["misses"]))
        assert stats["reused_tokens"] > 0
        assert trace.prefix_hit_rate == pytest.approx(stats["hit_rate"])
        hits = [r for r in trace.records if r.prefix_hit]
        assert len(hits) == stats["hits"]
        assert all(r.prefix_len > 0 for r in hits)

    def test_reuse_improves_on_single_shot_serve(self):
        # Charging only the suffix KV + prefill must not be slower than
        # serving the equivalent single-shot trace from scratch.
        workload = chat()
        reused = engine().serve(workload.requests())
        cold = engine().serve(workload.single_shot())
        assert reused.metadata["prefix_cache"]["hits"] > 0
        assert reused.duration <= cold.duration
        assert "prefix_cache" not in cold.metadata

    def test_reuse_disabled_engine_matches_single_shot(self):
        workload = chat()
        blind = engine(prefix_reuse=False).serve(workload.requests())
        cold = engine().serve(workload.single_shot())
        assert blind.summary() == cold.summary()
        # Declared prefixes are still judged — they just never hit, because
        # a reuse-disabled engine retains nothing.
        stats = blind.metadata["prefix_cache"]
        assert stats["hits"] == 0 and stats["misses"] > 0

    def test_event_and_clock_paths_agree_on_sessions(self):
        workload = chat()
        trace_event = engine().serve(workload.requests())
        trace_clock = serve_stepped(engine(), workload.requests())
        assert trace_event.records == trace_clock.records
        assert trace_event.metadata["prefix_cache"] == \
            trace_clock.metadata["prefix_cache"]

    def test_alisa_sessions_event_clock_parity(self):
        def build(model, node, **kwargs):
            return AlisaSystem(model, node, kv_sparsity=0.8, **kwargs)
        workload = chat(num_sessions=8)
        trace_event = engine(build).serve(workload.requests())
        trace_clock = serve_stepped(engine(build), workload.requests())
        assert trace_event.records == trace_clock.records


# --------------------------------------------------------------------- #
# Priority classes and preemption
# --------------------------------------------------------------------- #
class TestPreemption:
    CONTENDED = dict(num_sessions=24, rate=8.0, seed=5,
                     interactive_fraction=0.4, mean_turns=3.0,
                     max_context=1024, mean_new_input=64, mean_output=96)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="preemption"):
            engine(preemption="swap")
        assert set(PREEMPTION_MODES) == {None, "retain", "recompute"}

    @pytest.mark.parametrize("mode", ["retain", "recompute"])
    def test_interactive_goodput_improves_over_fifo(self, mode):
        # The ISSUE acceptance bar: at equal GPU count, letting interactive
        # turns preempt batch work at epoch boundaries must lift the
        # interactive tier's goodput over FIFO admission.
        slos = {"interactive": (2.0, 0.1), "batch": (20.0, 1.0)}
        requests = chat(**self.CONTENDED).requests()
        fifo = engine(max_batch_size=4).serve(requests, class_slos=slos)
        preempting = engine(max_batch_size=4, preemption=mode).serve(
            requests, class_slos=slos)
        assert preempting.num_preemptions > 0
        assert fifo.num_preemptions == 0
        fifo_classes = fifo.per_class_summary(slos)
        preempt_classes = preempting.per_class_summary(slos)
        assert preempt_classes["interactive"]["goodput_tokens_per_s"] > \
            fifo_classes["interactive"]["goodput_tokens_per_s"]
        assert preempt_classes["interactive"]["mean_ttft_s"] < \
            fifo_classes["interactive"]["mean_ttft_s"]
        meta = preempting.metadata["preemption"]
        assert meta["mode"] == mode
        assert meta["count"] == preempting.num_preemptions
        if mode == "retain":
            assert meta["swap_bytes"] > 0
        else:
            assert meta["recompute_tokens"] > 0

    def test_preempted_work_still_completes(self):
        requests = chat(**self.CONTENDED).requests()
        trace = engine(max_batch_size=4, preemption="recompute").serve(
            requests)
        assert trace.num_requests == len(requests)
        assert sum(r.preemptions for r in trace.records) == \
            trace.num_preemptions

    def test_uncontended_preemption_engine_is_bit_identical(self):
        # With no contention, a preemption-enabled engine must never fire
        # and its trace must equal the FIFO engine's bit-for-bit.
        workload = chat(num_sessions=6, rate=0.2)
        fifo = engine().serve(workload.requests())
        armed = engine(preemption="retain").serve(workload.requests())
        assert armed.num_preemptions == 0
        assert armed.records == fifo.records
        assert "preemption" in armed.metadata  # mode recorded even if idle

    @pytest.mark.parametrize("slo_class", SLO_CLASSES)
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("system", [VLLMSystem, FlexGenSystem,
                                        AlisaSystem])
    def test_one_class_preemption_serve_equals_fifo(self, system, seed,
                                                    slo_class):
        # With every request in one SLO class, its lane is the only one in
        # use and no running request sits in a lower lane, so priority
        # admission and its epoch cut must reduce to FCFS exactly.
        requests = [dataclasses.replace(request, slo_class=slo_class)
                    for request in generate_requests(
                        20, 4.0, pattern="bursty", seed=seed, max_len=512)]
        fifo = engine(system).serve(requests)
        armed = engine(system, preemption="retain").serve(requests)
        assert armed.records == fifo.records

    def test_arrived_head_offered_to_a_blocked_run_cuts_after_one_step(self):
        # The first request's prefill carries the run's clock past the
        # second's arrival while the run waits for its next queue head, so
        # ``offer`` queues the second already arrived.  It fits, so the
        # epoch ends after one step and admits it, not at a completion.
        class Journal(Observer):
            def __init__(self):
                self.kinds = []

            def on_event(self, time, kind, replica):
                self.kinds.append(kind)

        journal = Journal()
        requests = [Request(0, 0.0, 512, 64), Request(1, 1e-6, 32, 8)]
        trace = engine(preemption="retain").serve(requests,
                                                  observers=[journal])
        assert journal.kinds[:5] == [ARRIVAL, ADMISSION, ARRIVAL,
                                     EPOCH_BOUNDARY, COMPLETION]
        first, second = sorted(trace.records, key=lambda r: r.request_id)
        assert second.admission_time == first.first_token_time


# --------------------------------------------------------------------- #
# PR-6 golden pin: the single-shot path is untouched
# --------------------------------------------------------------------- #
class TestGoldenPin:
    def test_preemption_free_serve_matches_pr6_pin(self):
        # Frozen observables from the event-core PR: the sessions/priority
        # machinery must degrade to `+0` arithmetic on plain traces.
        requests = generate_requests(16, 4.0, pattern="bursty", seed=3,
                                     max_len=512)
        trace = engine().serve(requests)
        assert trace.num_requests == 16
        assert trace.generated_tokens == 2937
        assert trace.duration == pytest.approx(12.026624695478137, abs=1e-12)
        assert trace.metadata["kv_budget_tokens"] == 4946
        assert trace.metadata["peak_reserved_tokens"] == 4896
        assert trace.metadata["num_epochs"] == 24
        assert trace.metadata["num_decode_steps"] == 605
        assert trace.prefix_hit_rate == 0.0
        assert trace.num_preemptions == 0
        assert "prefix_cache" not in trace.metadata
        assert all(r.slo_class == SLO_CLASSES[0] and r.prefix_len == 0
                   and not r.prefix_hit and r.preemptions == 0
                   for r in trace.records)


# --------------------------------------------------------------------- #
# Per-class accounting and cluster routing
# --------------------------------------------------------------------- #
class TestClassesAndCluster:
    #: Aggregates every record mode computes with the same float op order —
    #: exact equality required (quantile columns are P² estimates instead).
    PARITY_KEYS = ("num_requests", "generated_tokens", "duration_s",
                   "throughput_tokens_per_s", "mean_queueing_delay_s",
                   "prefix_hit_rate", "num_preemptions",
                   "prefill_chunks_per_request")

    def test_streaming_per_class_matches_full(self):
        slos = {"interactive": (2.0, 0.1), "batch": (10.0, 0.5)}
        requests = chat().requests()
        full = engine().serve(requests, class_slos=slos)
        streaming = engine().serve(requests, record_mode="streaming",
                                   class_slos=slos)
        # Quantiles are P-squared estimates in streaming mode; every exact
        # aggregate — including the new session columns — must agree.
        full_summary, stream_summary = full.summary(), streaming.summary()
        for key in self.PARITY_KEYS:
            assert stream_summary[key] == full_summary[key], key
        # Nothing preempted: the latency column is exactly zero both ways.
        assert full_summary["p99_preemption_latency_s"] == 0.0
        assert stream_summary["p99_preemption_latency_s"] == 0.0
        assert streaming.per_class_summary(slos) == \
            full.per_class_summary(slos)

    @staticmethod
    def _assert_mode_parity(full, streaming, slos):
        full_summary, stream_summary = full.summary(), streaming.summary()
        for key in TestClassesAndCluster.PARITY_KEYS:
            assert stream_summary[key] == full_summary[key], key
        # The preemption-latency column is a P² estimate in streaming mode:
        # exact below five observations, interpolated (within the observed
        # range) beyond.
        waits = full.preemption_waits
        if len(waits) < 5:
            assert stream_summary["p99_preemption_latency_s"] == \
                full_summary["p99_preemption_latency_s"]
        else:
            assert min(waits) <= stream_summary["p99_preemption_latency_s"] \
                <= max(waits)
            assert stream_summary["p99_preemption_latency_s"] == \
                pytest.approx(full_summary["p99_preemption_latency_s"],
                              rel=0.5)
        assert streaming.per_class_summary(slos) == \
            full.per_class_summary(slos)

    def test_cross_mode_parity_matrix_engine(self):
        # The full-mode assertions of this file, replayed in streaming mode
        # under the PR 8 machinery (chunked prefill + preemption): every
        # exact column agrees, sketch columns agree within tolerance.
        slos = {"interactive": (2.0, 0.1), "batch": (20.0, 1.0)}
        requests = chat(**TestPreemption.CONTENDED).requests()

        def serve(record_mode):
            return engine(max_batch_size=4, preemption="recompute",
                          prefill_chunk_tokens=128).serve(
                requests, record_mode=record_mode, class_slos=slos)

        full = serve("full")
        assert full.num_preemptions > 0
        assert full.prefill_chunks_per_request > 0.0
        self._assert_mode_parity(full, serve("streaming"), slos)

    def test_cross_mode_parity_matrix_cluster(self):
        slos = {"interactive": (2.0, 0.1), "batch": (20.0, 1.0)}
        workload = chat(**TestPreemption.CONTENDED)

        def factory(node, parallelism):
            return FlexGenSystem(MODEL, node, parallelism=parallelism)

        def serve(record_mode):
            group = ReplicaGroup.from_layout(
                factory, "2x(none)", V100_16GB_NODE,
                policy="session-affinity", max_batch_size=2,
                preemption="recompute", prefill_chunk_tokens=128)
            return group.serve(workload.requests(),
                               record_mode=record_mode, class_slos=slos)

        full = serve("full")
        assert full.num_preemptions > 0
        assert full.prefill_chunks_per_request > 0.0
        assert full.prefix_hit_rate > 0.0
        self._assert_mode_parity(full, serve("streaming"), slos)

    def test_session_affinity_keeps_hit_rate(self):
        workload = chat(num_sessions=16)

        def factory(node, parallelism):
            return FlexGenSystem(MODEL, node, parallelism=parallelism)

        def serve(policy):
            group = ReplicaGroup.from_layout(factory, "2x(none)",
                                             V100_16GB_NODE)
            return group.serve(workload.requests(), policy=policy)

        sticky = serve("session-affinity")
        scattered = serve("jsq")
        assert sticky.prefix_hit_rate == 1.0
        assert scattered.prefix_hit_rate < sticky.prefix_hit_rate

    def test_affinity_pin_dropped_on_final_turn(self):
        router = Router(2, policy="session-affinity")
        turns = chat(num_sessions=4).requests()
        for turn in turns:
            router.assign(turn, [0.1, 0.1])
        assert router._sessions == {}  # every session ended

    def test_affinity_routes_plain_requests_by_jsq(self):
        plain = generate_requests(12, 4.0, seed=0, max_len=256)
        sticky = Router(2, policy="session-affinity", seed=0)
        jsq = Router(2, policy="jsq", seed=0)
        picks = [(sticky.assign(r, [0.1, 0.1]), jsq.assign(r, [0.1, 0.1]))
                 for r in plain]
        assert all(a == b for a, b in picks)


# --------------------------------------------------------------------- #
# Prefix-cache ledger conservation (regression: superseded retentions)
# --------------------------------------------------------------------- #
class TestPrefixCacheLedger:
    @staticmethod
    def _assert_ledger_balances(trace):
        stats = trace.metadata["prefix_cache"]
        # Every retained entry is eventually consumed by a follow-up,
        # evicted (superseded or pushed out for KV room), or still
        # resident when the serve drains — no entry is lost or counted
        # twice.  Before the fix, a same-session retain over an unconsumed
        # entry leaked the old entry's tokens from the ledger.
        assert stats["retained"] == \
            stats["consumed"] + stats["evicted"] + stats["resident"]
        bearing = sum(1 for r in trace.records if r.prefix_len > 0)
        assert stats["hits"] + stats["misses"] == bearing
        assert len([r for r in trace.records if r.prefix_hit]) == \
            stats["hits"]

    def test_overlapping_turns_supersede_retained_entries(self):
        # Near-zero think times make turn t+1 arrive while turn t is still
        # decoding: the follow-up misses, and turn t's later retention is
        # itself superseded by turn t+1's — the exact leak the ledger fix
        # closes.  The superseded entry must be counted as evicted.
        trace = engine().serve(
            chat(num_sessions=12, rate=4.0, mean_think_s=0.01,
                 service_tokens_per_s=10_000.0).requests())
        stats = trace.metadata["prefix_cache"]
        assert stats["misses"] > 0
        assert stats["evicted"] > 0
        self._assert_ledger_balances(trace)

    @given(seed=st.integers(0, 2**16),
           num_sessions=st.integers(1, 12),
           mean_think_s=st.sampled_from([0.01, 0.5, 2.0]),
           rate=st.sampled_from([1.0, 4.0, 16.0]))
    @settings(max_examples=25, deadline=None)
    def test_property_ledger_conserves_lookups(self, seed, num_sessions,
                                               mean_think_s, rate):
        trace = engine().serve(
            chat(num_sessions=num_sessions, rate=rate, seed=seed,
                 mean_think_s=mean_think_s).requests())
        if "prefix_cache" not in trace.metadata:
            return  # single-turn draw: no prefixes were ever judged
        self._assert_ledger_balances(trace)

    def test_ledger_balances_under_preemption_and_chunking(self):
        trace = engine(max_batch_size=4, preemption="recompute",
                       prefill_chunk_tokens=128).serve(
            chat(**TestPreemption.CONTENDED).requests())
        assert trace.num_preemptions > 0
        self._assert_ledger_balances(trace)
