"""Tests for the serving layer: arrival traces, continuous batching, metrics."""

import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.baselines import FlexGenSystem, VLLMSystem
from repro.core.engine import AlisaSystem
from repro.core.schedule_cache import (
    FULL_RESOLVE_POLICY,
    ScheduleCache,
    SchedulePolicy,
)
from repro.evaluation.metrics import percentiles, serving_goodput
from repro.experiments import list_experiments, run_experiment
from repro.hardware.presets import V100_16GB_NODE
from repro.serving import ContinuousBatchingEngine, RequestRecord, ServingTrace
from repro.workloads.arrivals import (
    Request,
    bursty_arrival_times,
    generate_requests,
    poisson_arrival_times,
    sharegpt_lengths,
)

MODEL = "opt-6.7b"


def flexgen_engine(**kwargs) -> ContinuousBatchingEngine:
    return ContinuousBatchingEngine(FlexGenSystem(MODEL, V100_16GB_NODE),
                                    **kwargs)


class TestArrivalTraces:
    def test_poisson_is_deterministic_and_increasing(self):
        a = poisson_arrival_times(64, rate=2.0, seed=7)
        b = poisson_arrival_times(64, rate=2.0, seed=7)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        assert not np.array_equal(a, poisson_arrival_times(64, 2.0, seed=8))

    def test_poisson_matches_requested_rate(self):
        times = poisson_arrival_times(2000, rate=4.0, seed=0)
        assert 2000 / times[-1] == pytest.approx(4.0, rel=0.1)

    def test_bursty_keeps_long_run_rate(self):
        times = bursty_arrival_times(2000, rate=4.0, seed=0, burst_size=8,
                                     burst_factor=8.0)
        assert np.all(np.diff(times) > 0)
        assert 2000 / times[-1] == pytest.approx(4.0, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        poisson = np.diff(poisson_arrival_times(2000, 4.0, seed=0))
        bursty = np.diff(bursty_arrival_times(2000, 4.0, seed=0))
        # Coefficient of variation of inter-arrival gaps: ~1 for Poisson,
        # larger for the Markov-modulated bursts.
        cv = lambda gaps: np.std(gaps) / np.mean(gaps)  # noqa: E731
        assert cv(bursty) > cv(poisson) * 1.3

    def test_sharegpt_lengths_heavy_tailed(self):
        inputs, outputs = sharegpt_lengths(4000, seed=0, mean_input=128,
                                           mean_output=256)
        assert inputs.min() >= 1 and outputs.min() >= 1
        assert np.mean(inputs) == pytest.approx(128, rel=0.15)
        assert np.mean(outputs) == pytest.approx(256, rel=0.15)
        # Heavy tail: the p99 length is far above the median.
        assert np.percentile(outputs, 99) > 3 * np.median(outputs)

    def test_generate_requests_fixed_and_sampled(self):
        fixed = generate_requests(10, 2.0, input_len=64, output_len=32, seed=0)
        assert all(r.input_len == 64 and r.output_len == 32 for r in fixed)
        assert [r.request_id for r in fixed] == list(range(10))
        sampled = generate_requests(10, 2.0, seed=0)
        assert len({r.input_len for r in sampled}) > 1

    def test_generate_requests_unknown_pattern(self):
        with pytest.raises(ConfigurationError):
            generate_requests(4, 1.0, pattern="fractal")

    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            Request(0, arrival_time=-1.0, input_len=8, output_len=8)
        with pytest.raises(ConfigurationError):
            Request(0, arrival_time=0.0, input_len=0, output_len=8)


class TestServingMetrics:
    def test_percentiles_match_numpy(self, rng):
        values = rng.exponential(1.0, size=257)
        result = percentiles(values, qs=(50, 90, 99))
        for q in (50, 90, 99):
            assert result[float(q)] == np.percentile(values, q)

    @pytest.mark.parametrize("size", [1, 2, 3, 10, 257, 1001])
    def test_percentiles_equal_one_call_per_rank(self, rng, size):
        # One kernel call for every rank must reproduce an np.percentile
        # call per rank bit for bit, with ties and on the smallest arrays.
        qs = (0, 25, 50, 90, 99, 99.9, 100)
        for values in (rng.exponential(1.0, size=size),
                       rng.integers(0, 3, size=size).astype(float)):
            result = percentiles(values, qs=qs)
            assert list(result) == [float(q) for q in qs]
            for q in qs:
                assert type(result[float(q)]) is float
                assert result[float(q)] == float(np.percentile(values, q))

    @given(values=st.lists(
               st.one_of(st.floats(-1e9, 1e9),
                         st.sampled_from([0.0, 0.5, 1.0, 3.0, math.inf])),
               min_size=1, max_size=300),
           zero=st.sampled_from([0.0, -0.0]),
           nan_at=st.one_of(st.none(), st.integers(0, 299)),
           drawn=st.lists(st.one_of(st.floats(0.0, 100.0),
                                    st.integers(0, 100)), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_percentiles_equal_numpy_bitwise(self, values, zero, nan_at,
                                             drawn):
        # Ties (the sampled pool), zeros, +inf (whose neighbours give
        # inf - inf = NaN inside NumPy's lerp) and NaN all included.  All
        # zeros share one sign: NumPy partitions where the kernel sorts, so
        # the two may order a tie of -0.0 and 0.0 differently (serving
        # figures are never negative).
        values = [zero if value == 0.0 else value for value in values]
        if nan_at is not None:
            values[nan_at % len(values)] = math.nan
        qs = [0, 50, 90, 99, 99.9, 100, *drawn]
        result = percentiles(iter(values), qs)
        arr = np.array(values)
        with np.errstate(invalid="ignore"):
            expected = [float(np.percentile(arr, q)) for q in qs]
        for q, want in zip(qs, expected):
            got = result[float(q)]
            assert type(got) is float
            if math.isnan(want):
                assert math.isnan(got), q
            else:
                assert struct.pack("d", got) == struct.pack("d", want), q

    @pytest.mark.parametrize("q", [-1, -1e-9, 100.0000001, 101, math.nan,
                                   math.inf, -math.inf])
    def test_percentiles_rank_out_of_range_raises(self, q):
        with pytest.raises(ValueError):
            np.percentile([1.0, 2.0], q)  # the behaviour being kept
        with pytest.raises(ValueError):
            percentiles([1.0, 2.0], (50, q))

    def test_percentiles_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentiles([])

    @pytest.mark.parametrize("values", [(), iter(()), np.array([])])
    def test_percentiles_empty_iterables_raise(self, values):
        with pytest.raises(ConfigurationError):
            percentiles(values)

    def _record(self, request_id, ttft, tpot, output_len=10):
        first = 1.0 + ttft
        return RequestRecord(
            request_id=request_id, arrival_time=1.0, admission_time=1.0,
            first_token_time=first,
            completion_time=first + tpot * (output_len - 1),
            input_len=8, output_len=output_len,
        )

    def test_goodput_filters_by_slo(self):
        records = [self._record(0, ttft=0.1, tpot=0.01),
                   self._record(1, ttft=5.0, tpot=0.01),
                   self._record(2, ttft=0.1, tpot=1.0)]
        duration = 10.0
        assert serving_goodput(records, duration) == pytest.approx(3.0)
        assert serving_goodput(records, duration,
                               ttft_slo_s=1.0) == pytest.approx(2.0)
        assert serving_goodput(records, duration, ttft_slo_s=1.0,
                               tpot_slo_s=0.1) == pytest.approx(1.0)
        assert serving_goodput(records, 0.0) == 0.0

    def test_record_derived_metrics(self):
        record = RequestRecord(request_id=0, arrival_time=1.0,
                               admission_time=2.0, first_token_time=3.0,
                               completion_time=7.0, input_len=16, output_len=5)
        assert record.queueing_delay == pytest.approx(1.0)
        assert record.ttft == pytest.approx(2.0)
        assert record.tpot == pytest.approx(1.0)
        assert record.e2e_latency == pytest.approx(6.0)

    def test_record_rejects_disordered_timestamps(self):
        with pytest.raises(ConfigurationError):
            RequestRecord(request_id=0, arrival_time=1.0, admission_time=0.5,
                          first_token_time=2.0, completion_time=3.0,
                          input_len=8, output_len=8)

    def test_trace_percentiles_match_numpy(self):
        trace = ServingTrace(system="s", model="m")
        for i, ttft in enumerate((0.1, 0.4, 0.2, 0.9, 0.3)):
            trace.observe(self._record(i, ttft=ttft, tpot=0.01))
        ttfts = [r.ttft for r in trace.records]
        assert trace.ttft_percentiles()[99.0] == np.percentile(ttfts, 99)
        assert trace.ttft_percentiles()[50.0] == np.percentile(ttfts, 50)

    def test_trace_refolds_after_new_records(self):
        # Figures are folded once and kept; each way records reach the
        # trace must drop the kept fold, and extend_sorted must leave the
        # records in (completion_time, request_id) order.
        trace = ServingTrace(system="s", model="m")
        trace.observe(self._record(0, ttft=0.5, tpot=0.1))
        assert (trace.num_requests, trace.generated_tokens) == (1, 10)
        trace.observe(self._record(1, ttft=0.2, tpot=0.1))
        assert (trace.num_requests, trace.generated_tokens) == (2, 20)
        shed = RequestRecord(request_id=2, arrival_time=0.5,
                             admission_time=1.0, first_token_time=1.0,
                             completion_time=1.0, input_len=8,
                             output_len=10, status="shed")
        trace.extend_sorted([shed])
        assert [r.request_id for r in trace.records] == [2, 1, 0]
        assert (trace.num_requests, trace.num_shed,
                trace.generated_tokens) == (3, 1, 20)


class TestContinuousBatchingEngine:
    def test_zero_arrival_trace_is_empty(self):
        trace = flexgen_engine().serve([])
        assert trace.num_requests == 0
        assert trace.records == []
        assert trace.throughput == 0.0
        assert trace.goodput() == 0.0
        assert trace.ttft_percentiles() == {}
        summary = trace.summary()
        assert summary["throughput_tokens_per_s"] == 0.0
        assert summary["p99_ttft_s"] == 0.0

    def test_all_requests_complete_with_ordered_timestamps(self):
        requests = generate_requests(12, rate=8.0, input_len=128,
                                     output_len=64, seed=1)
        trace = flexgen_engine().serve(requests)
        assert trace.num_requests == len(requests)
        assert sorted(r.request_id for r in trace.records) == list(range(12))
        for record in trace.records:
            assert record.ttft > 0
            assert record.tpot > 0
            assert record.e2e_latency >= record.ttft

    def test_admits_in_arrival_order(self):
        # High rate + long outputs force a backlog, so admission decisions
        # are non-trivial; FCFS must still admit strictly in arrival order.
        requests = generate_requests(16, rate=50.0, input_len=256,
                                     output_len=256, seed=2)
        trace = flexgen_engine().serve(requests)
        by_arrival = sorted(trace.records, key=lambda r: r.arrival_time)
        admissions = [r.admission_time for r in by_arrival]
        assert admissions == sorted(admissions)
        assert max(r.queueing_delay for r in by_arrival) > 0

    def test_never_exceeds_kv_budget(self):
        requests = generate_requests(16, rate=50.0, input_len=256,
                                     output_len=256, seed=2)
        engine = flexgen_engine()
        trace = engine.serve(requests)
        budget = trace.metadata["kv_budget_tokens"]
        assert budget == engine.kv_budget_tokens(requests)
        assert 0 < trace.metadata["peak_reserved_tokens"] <= budget

    def test_max_batch_size_caps_concurrency(self):
        requests = generate_requests(8, rate=100.0, input_len=32,
                                     output_len=32, seed=3)
        capped = flexgen_engine(max_batch_size=1).serve(requests)
        free = flexgen_engine().serve(requests)
        assert capped.metadata["peak_reserved_tokens"] == 64
        assert capped.duration > free.duration

    def test_oversized_request_rejected(self):
        engine = flexgen_engine()
        with pytest.raises(ConfigurationError):
            engine.serve([Request(0, 0.0, input_len=4000, output_len=4000)])

    def test_alisa_compression_doubles_admission_budget(self):
        requests = generate_requests(4, rate=4.0, input_len=64,
                                     output_len=32, seed=0)
        alisa = ContinuousBatchingEngine(
            AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8))
        ratio = (alisa.kv_budget_tokens(requests)
                 / flexgen_engine().kv_budget_tokens(requests))
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_vllm_and_alisa_serve_end_to_end(self):
        requests = generate_requests(6, rate=8.0, input_len=64,
                                     output_len=32, seed=4)
        for system in (VLLMSystem(MODEL, V100_16GB_NODE),
                       AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8)):
            trace = ContinuousBatchingEngine(system).serve(requests)
            assert trace.num_requests == len(requests)
            assert trace.throughput > 0


class TestIncrementalScheduling:
    """Serving behaviour of the scheduler cache (repro.core.schedule_cache)."""

    REQUESTS = dict(rate=16.0, input_len=256, output_len=128, seed=5)
    #: Bursty heavy-tailed lengths: epochs of mixed batches spill out of
    #: GPU memory, so the serve searches schedules (epochs that fit on
    #: the GPU search none).
    SPILLING = dict(rate=64.0, pattern="bursty", seed=3)

    def _serve(self, policy=None, cache=None, requests=None):
        if requests is None:
            requests = generate_requests(24, **self.SPILLING)
        engine = ContinuousBatchingEngine(
            AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8,
                        schedule_policy=policy, schedule_cache=cache))
        return engine.serve(requests)

    def test_exact_mode_reproduces_full_resolve_byte_identically(self):
        incremental_memo = self._serve(SchedulePolicy(exact=True))
        full_resolve = self._serve(FULL_RESOLVE_POLICY)
        for cached, reference in zip(incremental_memo.records,
                                     full_resolve.records):
            assert cached == reference
        assert incremental_memo.summary() == full_resolve.summary()

    def test_default_mode_drift_is_bounded(self):
        incremental = self._serve().summary()
        exact = self._serve(FULL_RESOLVE_POLICY).summary()
        for metric in ("p50_ttft_s", "p99_ttft_s", "p50_tpot_s",
                       "p99_tpot_s", "duration_s"):
            assert incremental[metric] == pytest.approx(exact[metric],
                                                        rel=0.05)

    def test_serve_reports_per_serve_solver_stats(self):
        requests = generate_requests(24, **self.SPILLING)
        engine = ContinuousBatchingEngine(
            AlisaSystem(MODEL, V100_16GB_NODE, kv_sparsity=0.8))
        simulator = engine.simulator
        answers = []

        # Prefill pricing asks the residency hook too, so only the
        # answers of epoch pricing are counted.
        def price_epoch(batch_size, context, num_steps, link,
                        price=engine._price_epoch):
            answers.append(simulator.epoch_stays_resident(
                batch_size, context, num_steps))
            return price(batch_size, context, num_steps, link)

        engine._price_epoch = price_epoch
        trace = engine.serve(requests)
        stats = trace.metadata["scheduler"]
        assert stats["full_solves"] >= 1
        searches = (stats["exact_hits"] + stats["canonical_hits"]
                    + stats["warm_solves"] + stats["full_solves"])
        # Every decode epoch is either priced fresh or served whole from
        # the engine's epoch-price memo.  A fresh epoch that spills runs
        # exactly one schedule search; one that fits is read from the step
        # table and searches nothing, and pricing a prefill searches
        # nothing either.
        epoch_cache = trace.metadata["epoch_cache"]
        assert len(answers) == epoch_cache["misses"]
        assert True in answers and False in answers
        assert searches == answers.count(False)
        assert (epoch_cache["hits"] + epoch_cache["misses"]
                == trace.metadata["num_epochs"])
        assert "scheduler" not in flexgen_engine().serve(
            generate_requests(4, **self.REQUESTS)).metadata

    def test_fitting_serve_searches_no_schedule(self):
        # Every epoch of this homogeneous trace fits on the GPU, so the
        # serve prices them all from the step table: the schedule cache
        # is never read or written, and every epoch is a memo hit or miss.
        cache = ScheduleCache()
        trace = self._serve(cache=cache,
                            requests=generate_requests(12, **self.REQUESTS))
        assert cache.stats.as_dict() == ScheduleCache().stats.as_dict()
        assert set(trace.metadata["scheduler"].values()) == {0}
        epoch_cache = trace.metadata["epoch_cache"]
        assert epoch_cache["misses"] >= 1
        assert (epoch_cache["hits"] + epoch_cache["misses"]
                == trace.metadata["num_epochs"])

    def test_shared_cache_across_engines_skips_research(self):
        cache = ScheduleCache()
        self._serve(cache=cache)
        solves_first = cache.stats.full_solves + cache.stats.warm_solves
        assert solves_first > 0
        self._serve(cache=cache)
        solves_second = (cache.stats.full_solves + cache.stats.warm_solves
                         - solves_first)
        assert solves_second == 0  # identical trace: every epoch memoized

    def test_cache_injection_rejected_for_non_planning_systems(self):
        # A schedule cache is the simulator's own (AlisaSystem takes one);
        # the engine has no such knob.
        with pytest.raises(TypeError, match="schedule_cache"):
            ContinuousBatchingEngine(FlexGenSystem(MODEL, V100_16GB_NODE),
                                     schedule_cache=ScheduleCache())


class TestServingExperiment:
    def test_registered(self):
        assert "serving_rate_sweep" in list_experiments()

    @pytest.fixture(scope="class")
    def result(self):
        # 16 x (256 + 128) = 6144 reserved KV tokens versus a ~5k-token FP16
        # budget: the baselines must queue at high rate while ALISA's INT8
        # cache still fits everything.
        return run_experiment("serving_rate_sweep", rates=(2.0, 16.0),
                              num_requests=16, input_len=256, output_len=128)

    def test_rows_cover_systems_and_rates(self, result):
        systems = {row["system"] for row in result.rows}
        assert systems == {"alisa", "vllm", "flexgen"}
        assert len(result.rows) == 6

    def test_tail_latency_grows_with_load(self, result):
        for system in ("alisa", "vllm", "flexgen"):
            rows = sorted(result.filter(system=system),
                          key=lambda r: r["rate_req_per_s"])
            assert rows[-1]["p99_ttft_s"] >= rows[0]["p99_ttft_s"]
            assert (rows[-1]["mean_queueing_delay_s"]
                    >= rows[0]["mean_queueing_delay_s"])

    def test_alisa_queues_less_under_load(self, result):
        alisa = result.filter(system="alisa", rate_req_per_s=16.0)[0]
        vllm = result.filter(system="vllm", rate_req_per_s=16.0)[0]
        assert alisa["kv_budget_tokens"] > vllm["kv_budget_tokens"]
        assert alisa["p99_ttft_s"] <= vllm["p99_ttft_s"]

    def test_rows_report_solver_stats(self):
        # Heavy-tailed bursty lengths, so some ALISA epochs spill out of
        # GPU memory and search a schedule (epochs that fit search none).
        result = run_experiment("serving_rate_sweep", rates=(64.0,),
                                num_requests=24, pattern="bursty",
                                input_len=None, output_len=None, seed=3)
        alisa_rows = result.filter(system="alisa")
        assert any(row["solver_full_solves"] + row["solver_warm_solves"] > 0
                   for row in alisa_rows)
        for row in result.filter(system="vllm"):
            assert row["solver_full_solves"] == 0

    def test_exact_schedules_knob_is_recorded(self):
        result = run_experiment("serving_rate_sweep", rates=(4.0,),
                                num_requests=4, input_len=64, output_len=32,
                                exact_schedules=True)
        assert result.notes["exact_schedules"] is True
        alisa_row = result.filter(system="alisa")[0]
        assert alisa_row["solver_warm_solves"] == 0
        assert alisa_row["solver_canonical_hits"] == 0


def test_serving_import_leaves_scipy_out():
    # The package is NumPy-only: importing the serving and cluster layers,
    # and computing Figure 4's Spearman correlations, load no scipy.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(src), os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serving, repro.cluster\n"
         "from repro.experiments import run_experiment\n"
         "rows = run_experiment('fig04_distributions', prompt_len=32, "
         "num_steps=8).rows\n"
         "assert len(rows) == 4, rows\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
