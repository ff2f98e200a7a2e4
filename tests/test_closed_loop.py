"""Tests for closed-loop sessions (PR 8 tentpole).

Pins the closed-loop contracts: turn ``t+1`` of every session arrives at
turn ``t``'s *simulated* completion plus the script's think-time draw
(exact float causality), closed-loop serves are a pure function of
``(spec seed, engine configuration)`` (seed-determinism pin), per-turn
scripts are identical to the open-loop lowering, and the source composes
with the cluster layer and the rate-sweep front end.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem
from repro.cluster import ReplicaGroup
from repro.experiments import run_experiment
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine
from repro.workloads.sessions import ClosedLoopSessions, sessions

MODEL = "opt-6.7b"

EXACT_KEYS = ("num_requests", "generated_tokens", "duration_s",
              "throughput_tokens_per_s", "mean_queueing_delay_s",
              "prefix_hit_rate", "num_preemptions")


def engine(*, max_batch_size=None, preemption=None,
           **kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(
        FlexGenSystem(MODEL, V100_16GB_NODE, **kwargs),
        max_batch_size=max_batch_size, preemption=preemption)


def chat(num_sessions=12, rate=2.0, seed=3, **kwargs):
    kwargs.setdefault("interactive_fraction", 0.5)
    kwargs.setdefault("mean_turns", 3.0)
    kwargs.setdefault("max_context", 1024)
    kwargs.setdefault("mean_new_input", 48)
    kwargs.setdefault("mean_output", 64)
    return sessions(num_sessions, rate, seed=seed, **kwargs)


def group(replicas=2, policy="session-affinity"):
    def factory(node, parallelism):
        return FlexGenSystem(MODEL, node, parallelism=parallelism)
    return ReplicaGroup.from_layout(factory, f"{replicas}x(none)",
                                    V100_16GB_NODE, policy=policy)


# --------------------------------------------------------------------- #
# Source contract
# --------------------------------------------------------------------- #
class TestSourceContract:
    def test_spec_builds_fresh_single_use_sources(self):
        spec = chat()
        source = spec.closed_loop()
        assert isinstance(source, ClosedLoopSessions)
        assert source.spec is spec
        assert source.num_turns == spec.num_turns
        assert not source.exhausted
        assert spec.closed_loop() is not source

    def test_scripts_match_open_loop_lengths(self):
        spec = chat()
        expected = {(t.session_id, t.turn_index):
                    (t.prefix_len, t.input_len, t.output_len, t.slo_class,
                     t.final_turn)
                    for t in spec.requests()}
        seen = {}
        source = spec.closed_loop()
        # Walk the scripts with a zero-service-time fake server: complete
        # each pop instantly so every turn becomes ready in order.
        while not source.exhausted:
            request = source.pop_next()
            seen[(request.session_id, request.turn_index)] = (
                request.prefix_len, request.input_len, request.output_len,
                request.slo_class, request.final_turn)
            source.on_completion(SimpleNamespace(
                request_id=request.request_id,
                completion_time=request.arrival_time))
        assert seen == expected

    def test_rateless_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="no arrival rate"):
            sessions(8).closed_loop()

    def test_unknown_completion_id_raises(self):
        source = chat(num_sessions=2).closed_loop()
        request = source.pop_next()
        done = SimpleNamespace(request_id=request.request_id,
                               completion_time=request.arrival_time + 1.0)
        source.on_completion(done)
        with pytest.raises(ConfigurationError, match="unknown or already"):
            source.on_completion(done)
        with pytest.raises(ConfigurationError, match="unknown or already"):
            source.on_completion(SimpleNamespace(request_id=10**6,
                                                 completion_time=0.0))


# --------------------------------------------------------------------- #
# Engine serves: causality and determinism
# --------------------------------------------------------------------- #
class TestClosedLoopServe:
    def test_seed_determinism_pin(self):
        spec = chat()
        first = engine().serve(spec.closed_loop())
        second = engine().serve(spec.closed_loop())
        assert first.num_requests == spec.num_turns
        assert first.records == second.records
        assert first.summary() == second.summary()

    def test_causality_is_exact(self):
        spec = chat()
        source = spec.closed_loop()
        trace = engine().serve(source)
        assert source.exhausted
        scripts = spec._scripts()
        by_turn: dict[int, dict[int, object]] = {}
        for record in trace.records:
            session_id, turn_index = source.assignments[record.request_id]
            by_turn.setdefault(session_id, {})[turn_index] = record
        for session_id, (start, _, script) in enumerate(scripts):
            turns = by_turn.get(session_id, {})
            assert len(turns) == len(script)
            if script:
                assert turns[0].arrival_time == start
            for turn_index in range(len(script) - 1):
                think = script[turn_index][3]
                prev, cur = turns[turn_index], turns[turn_index + 1]
                # The tentpole contract, as an exact float identity: the
                # next turn arrives at the previous turn's simulated
                # completion plus the scripted think time.
                assert cur.arrival_time == prev.completion_time + think
                assert cur.arrival_time >= prev.completion_time

    def test_arrivals_couple_to_simulated_service(self):
        # Open-loop arrivals bake in an a-priori service allowance; the
        # closed loop replaces it with the engine's own completions, so
        # follow-up arrival instants differ while lengths stay scripted.
        spec = chat()
        open_loop = {(t.session_id, t.turn_index): t.arrival_time
                     for t in spec.requests()}
        source = spec.closed_loop()
        trace = engine().serve(source)
        closed = {source.assignments[r.request_id]: r.arrival_time
                  for r in trace.records}
        assert set(closed) == set(open_loop)
        followups = [key for key in closed if key[1] > 0]
        assert followups
        assert any(closed[key] != open_loop[key] for key in followups)

    def test_streaming_mode_matches_full(self):
        spec = chat()
        full = engine().serve(spec.closed_loop())
        stream = engine().serve(spec.closed_loop(),
                                record_mode="streaming")
        full_summary, stream_summary = full.summary(), stream.summary()
        for key in EXACT_KEYS:
            assert stream_summary[key] == full_summary[key], key

    def test_drained_source_serves_empty(self):
        spec = chat(num_sessions=2)
        source = spec.closed_loop()
        engine().serve(source)
        assert source.exhausted
        leftover = engine().serve(source)
        assert leftover.num_requests == 0

    def test_exact_stepping_rejected(self):
        # The clock-stepped option is gone: systems refuse the keyword.
        with pytest.raises(TypeError, match="exact_stepping"):
            engine(exact_stepping=True)

    def test_composes_with_preemption_classes(self):
        spec = chat(num_sessions=16, rate=6.0, seed=5,
                    interactive_fraction=0.4, mean_new_input=64,
                    mean_output=96)
        trace = engine(max_batch_size=4,
                       preemption="recompute").serve(spec.closed_loop())
        assert trace.num_requests == spec.num_turns
        assert trace.num_preemptions > 0
        classes = {r.slo_class for r in trace.records}
        assert classes == {"interactive", "batch"}

    @given(seed=st.integers(0, 2**16),
           num_sessions=st.integers(1, 8),
           mean_turns=st.floats(1.0, 4.0))
    @settings(max_examples=12, deadline=None)
    def test_property_causality_and_determinism(self, seed, num_sessions,
                                                mean_turns):
        spec = sessions(num_sessions, 2.0, seed=seed, mean_turns=mean_turns,
                        max_context=512, mean_new_input=32, mean_output=32)
        source = spec.closed_loop()
        trace = engine().serve(source)
        assert trace.num_requests == spec.num_turns
        assert source.exhausted
        scripts = spec._scripts()
        completions = {source.assignments[r.request_id]: r.completion_time
                       for r in trace.records}
        for record in trace.records:
            session_id, turn_index = source.assignments[record.request_id]
            if turn_index == 0:
                assert record.arrival_time == scripts[session_id][0]
            else:
                think = scripts[session_id][2][turn_index - 1][3]
                assert record.arrival_time == \
                    completions[(session_id, turn_index - 1)] + think
        repeat = engine().serve(spec.closed_loop())
        assert repeat.records == trace.records


# --------------------------------------------------------------------- #
# Cluster composition
# --------------------------------------------------------------------- #
class TestClusterClosedLoop:
    def test_cluster_serve_covers_every_turn(self):
        spec = chat(num_sessions=16)
        trace = group().serve(spec.closed_loop())
        assert trace.num_requests == spec.num_turns
        assert trace.prefix_hit_rate == 1.0  # session affinity holds

    def test_cluster_serve_is_deterministic(self):
        spec = chat(num_sessions=16)
        first = group().serve(spec.closed_loop())
        second = group().serve(spec.closed_loop())
        assert first.summary() == second.summary()
        assert [(r.records, r.metadata) for r in first.replica_traces] == \
            [(r.records, r.metadata) for r in second.replica_traces]

    def test_streaming_cluster_matches_full(self):
        spec = chat(num_sessions=16)
        full = group().serve(spec.closed_loop())
        stream = group().serve(spec.closed_loop(), record_mode="streaming")
        full_summary, stream_summary = full.summary(), stream.summary()
        for key in EXACT_KEYS:
            assert stream_summary[key] == full_summary[key], key


# --------------------------------------------------------------------- #
# Sweep front end
# --------------------------------------------------------------------- #
class TestSweepClosedLoop:
    def test_closed_loop_requires_session_workload(self):
        with pytest.raises(ConfigurationError, match="closed_loop"):
            run_experiment("serving_rate_sweep", rates=(2.0,),
                           closed_loop=True)

    def test_sweep_rows_carry_new_columns(self):
        result = run_experiment(
            "serving_rate_sweep", rates=(2.0,),
            workload=chat(num_sessions=4), closed_loop=True,
            prefill_chunk_tokens=64)
        assert result.rows
        for row in result.rows:
            assert row["p99_preemption_latency_s"] >= 0.0
            assert row["prefill_chunks_per_request"] > 0.0
        assert result.notes["closed_loop"] is True
        assert result.notes["prefill_chunk_tokens"] == 64
