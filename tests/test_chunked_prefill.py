"""Tests for chunked prefill (PR 8 tentpole).

Pins the tentpole contracts: a ``prefill_chunk_tokens=None`` engine stays
event-journal-identical to the PR 7 core (golden-pinned), chunked serves
conserve every prefill token across chunk events, prefix hits chunk only
the suffix, mid-prefill preemption retains or recomputes completed chunks
per mode, and — the acceptance bar — a higher-priority arrival's
preemption wait is bounded by one chunk's priced duration.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine
from repro.serving.events import (
    ADMISSION,
    ARRIVAL,
    COMPLETION,
    EPOCH_BOUNDARY,
    PREEMPTION,
    PREFILL_CHUNK,
    drive,
)
from repro.workloads.arrivals import Request, generate_requests
from repro.workloads.sessions import sessions

MODEL = "opt-6.7b"


def engine(*, chunk=None, max_batch_size=None, preemption=None,
           **kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(
        FlexGenSystem(MODEL, V100_16GB_NODE, **kwargs),
        max_batch_size=max_batch_size, preemption=preemption,
        prefill_chunk_tokens=chunk)


def requests(n=16, rate=4.0, seed=3, **kwargs):
    return generate_requests(n, rate, pattern="bursty", seed=seed,
                             max_len=512, **kwargs)


def serve_with_journal(eng, reqs):
    trace = eng.make_trace("full")
    run = eng.start_run(trace,
                        max_input_len=max(r.input_len for r in reqs),
                        max_output_len=max(r.output_len for r in reqs))
    journal: list = []
    ordered = sorted(reqs, key=lambda r: (r.arrival_time, r.request_id))
    drive(ordered, [run], lambda request: 0, journal=journal)
    return run.finalize(), journal


def contended_mix():
    """Four long batch prompts at t=0 plus interactive turns that arrive
    while those prompts are still prefilling — each interactive admission
    must preempt its way into a full batch."""
    reqs = [Request(request_id=i, arrival_time=0.0, input_len=480,
                    output_len=48, slo_class="batch") for i in range(4)]
    for j, arrival in enumerate((0.03, 0.12, 0.25, 0.40)):
        reqs.append(Request(request_id=4 + j, arrival_time=arrival,
                            input_len=48, output_len=24,
                            slo_class="interactive"))
    return reqs


# --------------------------------------------------------------------- #
# Chunking disabled: bit-identical to the PR 7 event core
# --------------------------------------------------------------------- #
class TestDisabledIdentity:
    def test_none_budget_event_journal_identical(self):
        reference, ref_journal = serve_with_journal(engine(), requests())
        explicit, none_journal = serve_with_journal(engine(chunk=None),
                                                    requests())
        assert none_journal == ref_journal
        assert explicit.records == reference.records
        assert explicit.summary() == reference.summary()
        kinds = {kind for _, kind, _ in ref_journal}
        assert kinds == {ARRIVAL, ADMISSION, EPOCH_BOUNDARY, COMPLETION}
        assert PREFILL_CHUNK not in kinds

    def test_pr7_golden_pin_with_chunking_off(self):
        # Frozen observables from the event-core PR: the chunking machinery
        # must degrade to `+0` arithmetic when no budget is set.
        trace = engine(chunk=None).serve(requests())
        assert trace.num_requests == 16
        assert trace.generated_tokens == 2937
        assert trace.duration == pytest.approx(12.026624695478137, abs=1e-12)
        assert trace.metadata["kv_budget_tokens"] == 4946
        assert trace.metadata["peak_reserved_tokens"] == 4896
        assert trace.metadata["num_epochs"] == 24
        assert trace.metadata["num_decode_steps"] == 605
        assert "prefill_chunking" not in trace.metadata
        assert trace.prefill_chunks_per_request == 0.0
        assert trace.p99_preemption_latency == 0.0
        assert all(r.prefill_chunks == 0 and not r.preempting
                   for r in trace.records)


# --------------------------------------------------------------------- #
# Chunked serves: events, conservation, prefix composition
# --------------------------------------------------------------------- #
class TestChunkedServe:
    def test_journal_gains_chunk_events(self):
        _, journal = serve_with_journal(engine(chunk=96), requests())
        kinds = {kind for _, kind, _ in journal}
        assert kinds == {ARRIVAL, ADMISSION, PREFILL_CHUNK, EPOCH_BOUNDARY,
                         COMPLETION}

    def test_token_conservation_and_metadata(self):
        reqs = requests()
        chunked = engine(chunk=96).serve(reqs)
        plain = engine().serve(reqs)
        meta = chunked.metadata["prefill_chunking"]
        assert meta["chunk_tokens"] == 96
        # Every prefill token is applied by exactly one chunk event.
        assert meta["chunked_tokens"] == sum(r.input_len for r in reqs)
        assert meta["num_chunks"] > 0
        assert meta["max_chunk_s"] > 0.0
        assert chunked.num_requests == plain.num_requests
        assert chunked.generated_tokens == plain.generated_tokens
        per_request = [r.prefill_chunks for r in chunked.records]
        assert all(chunks >= 1 for chunks in per_request)
        by_id = {r.request_id: r for r in chunked.records}
        for request in reqs:
            assert by_id[request.request_id].prefill_chunks >= \
                math.ceil(request.input_len / 96)
        # A chunk event covers at least one request, so the per-request
        # participation counts dominate the event count.
        assert sum(per_request) >= meta["num_chunks"]
        assert chunked.prefill_chunks_per_request == pytest.approx(
            sum(per_request) / len(per_request))
        assert chunked.summary()["prefill_chunks_per_request"] == \
            chunked.prefill_chunks_per_request

    def test_prefix_hits_chunk_only_the_suffix(self):
        spec = sessions(10, 2.0, seed=3, interactive_fraction=0.5,
                        mean_turns=3.0, max_context=1024,
                        mean_new_input=48, mean_output=64)
        trace = engine(chunk=64).serve(spec.requests())
        assert trace.prefix_hit_rate > 0.0
        expected = sum(
            record.input_len - (record.prefix_len if record.prefix_hit
                                else 0)
            for record in trace.records)
        assert trace.metadata["prefill_chunking"]["chunked_tokens"] == \
            expected

    def test_streaming_mode_reports_chunk_columns(self):
        full = engine(chunk=96).serve(requests())
        stream = engine(chunk=96).serve(requests(),
                                        record_mode="streaming")
        assert stream.summary()["prefill_chunks_per_request"] == \
            full.summary()["prefill_chunks_per_request"]
        assert stream.summary()["p99_preemption_latency_s"] == 0.0

    def test_oversized_budget_is_one_chunk_per_request(self):
        reqs = requests(n=8)
        trace = engine(chunk=4096).serve(reqs)
        assert all(r.prefill_chunks == 1 for r in trace.records)
        assert trace.generated_tokens == engine().serve(reqs).generated_tokens

    @given(seed=st.integers(0, 2**16),
           chunk=st.sampled_from([16, 48, 128, 600]),
           n=st.integers(2, 12),
           rate=st.sampled_from([1.0, 4.0, 16.0]))
    @settings(max_examples=20, deadline=None)
    def test_property_token_conservation(self, seed, chunk, n, rate):
        # For any workload and budget: chunk events apply each prompt token
        # exactly once, every request participates in at least enough
        # chunks to cover its prompt, and decode output is untouched.
        reqs = generate_requests(n, rate, pattern="poisson", seed=seed,
                                 max_len=256)
        trace = engine(chunk=chunk).serve(reqs)
        meta = trace.metadata["prefill_chunking"]
        assert meta["chunked_tokens"] == sum(r.input_len for r in reqs)
        assert trace.generated_tokens == sum(r.output_len for r in reqs)
        by_id = {r.request_id: r for r in trace.records}
        for request in reqs:
            assert by_id[request.request_id].prefill_chunks >= \
                math.ceil(request.input_len / chunk)


# --------------------------------------------------------------------- #
# Mid-prefill preemption: completed chunks retained or recomputed
# --------------------------------------------------------------------- #
class TestMidPrefillPreemption:
    @pytest.mark.parametrize("mode", ["retain", "recompute"])
    def test_preempted_chunked_work_completes(self, mode):
        mix = contended_mix()
        trace = engine(chunk=32, max_batch_size=4,
                       preemption=mode).serve(mix)
        assert trace.num_requests == len(mix)
        assert trace.num_preemptions > 0
        meta = trace.metadata["preemption"]
        assert meta["mode"] == mode
        if mode == "retain":
            assert meta["swap_bytes"] > 0
        else:
            assert meta["recompute_tokens"] > 0

    def test_retain_conserves_recompute_replays_chunks(self):
        # Retain keeps a victim's completed chunks (only the remaining
        # suffix is chunked on resume), so the chunk ledger still balances
        # exactly; recompute re-prefills the resident context, so the same
        # scenario applies strictly more chunk tokens than the prompts.
        mix = contended_mix()
        need = sum(r.input_len for r in mix)
        retain = engine(chunk=32, max_batch_size=4,
                        preemption="retain").serve(mix)
        recompute = engine(chunk=32, max_batch_size=4,
                           preemption="recompute").serve(mix)
        assert retain.num_preemptions > 0
        assert retain.metadata["prefill_chunking"]["chunked_tokens"] == need
        assert recompute.metadata["prefill_chunking"]["chunked_tokens"] > need

    def test_chunk_events_journal_under_preemption(self):
        # Chunk-boundary preemptions happen inside admission rounds (no
        # scheduled PREEMPTION event needed) — the journal stays within
        # the known event vocabulary and records the chunk stream.
        eng = engine(chunk=32, max_batch_size=4, preemption="recompute")
        mix = contended_mix()
        trace = eng.make_trace("full")
        run = eng.start_run(trace,
                            max_input_len=max(r.input_len for r in mix),
                            max_output_len=max(r.output_len for r in mix))
        journal: list = []
        drive(mix, [run], lambda request: 0, journal=journal)
        served = run.finalize()
        assert served.num_preemptions > 0
        kinds = {kind for _, kind, _ in journal}
        assert PREFILL_CHUNK in kinds
        assert kinds <= {ARRIVAL, ADMISSION, EPOCH_BOUNDARY, COMPLETION,
                         PREEMPTION, PREFILL_CHUNK}


# --------------------------------------------------------------------- #
# Acceptance: preemption latency bounded by one chunk's priced time
# --------------------------------------------------------------------- #
class TestBoundedPreemptionWait:
    def test_interactive_wait_bounded_by_one_chunk(self):
        mix = contended_mix()
        chunked = engine(chunk=128, max_batch_size=4,
                         preemption="recompute").serve(mix)
        waits = chunked.preemption_waits
        assert waits  # interactive arrivals did preempt
        bound = chunked.metadata["prefill_chunking"]["max_chunk_s"]
        assert max(waits) <= bound + 1e-9
        assert chunked.p99_preemption_latency <= bound + 1e-9
        assert chunked.summary()["p99_preemption_latency_s"] == \
            chunked.p99_preemption_latency
        preemptors = [r for r in chunked.records if r.preempting]
        assert all(r.slo_class == "interactive" for r in preemptors)

    def test_monolithic_prefill_waits_longer(self):
        # Same scenario, no chunk budget: interactive arrivals landing
        # mid-prefill stall behind the whole 4x480-token prefill epoch —
        # with no admission round to refuse them there is nothing to
        # preempt, and their queueing delay dwarfs the chunked bound.
        mix = contended_mix()
        chunked = engine(chunk=128, max_batch_size=4,
                         preemption="recompute").serve(mix)
        monolithic = engine(max_batch_size=4,
                            preemption="recompute").serve(mix)

        def interactive_delays(trace):
            return [r.queueing_delay for r in trace.records
                    if r.slo_class == "interactive"]

        bound = chunked.metadata["prefill_chunking"]["max_chunk_s"]
        assert max(interactive_delays(monolithic)) > bound
        assert max(interactive_delays(monolithic)) > \
            max(interactive_delays(chunked))


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #
class TestValidation:
    def test_non_positive_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="prefill_chunk_tokens"):
            engine(chunk=0)
        with pytest.raises(ConfigurationError, match="prefill_chunk_tokens"):
            engine(chunk=-64)

    def test_exact_stepping_combination_rejected(self):
        # The clock-stepped option is gone: systems refuse the keyword.
        with pytest.raises(TypeError, match="exact_stepping"):
            engine(chunk=64, exact_stepping=True)
