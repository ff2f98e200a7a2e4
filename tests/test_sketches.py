"""Tests for repro.serving.sketches: P² quantiles and streaming traces."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.serving.sketches import (
    DEFAULT_QUANTILES,
    P2Quantile,
    StreamingGoodput,
    StreamingMean,
    StreamingPercentiles,
    StreamingTrace,
)
from repro.serving.trace import RequestRecord, ServingTrace


class LoopP2:
    """Reference P² update with the marker loops written out as loops —
    the arithmetic :meth:`P2Quantile.observe` must reproduce exactly."""

    def __init__(self, q):
        self.q = q
        self.markers = []
        self.positions = None
        self.rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value):
        markers = self.markers
        if self.positions is None:
            bisect.insort(markers, value)
            if len(markers) == 5:
                q = self.q
                self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                                3.0 + 2.0 * q, 5.0]
            return
        positions, desired = self.positions, self.desired
        if value < markers[0]:
            markers[0] = value
            cell = 0
        elif value >= markers[4]:
            markers[4] = value
            cell = 3
        else:
            cell = 0
            while value >= markers[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(1, 5):
            desired[i] += self.rates[i]
        for i in (1, 2, 3):
            gap = desired[i] - positions[i]
            if ((gap >= 1.0 and positions[i + 1] - positions[i] > 1.0)
                    or (gap <= -1.0
                        and positions[i - 1] - positions[i] < -1.0)):
                step = 1.0 if gap >= 1.0 else -1.0
                outer = step / (positions[i + 1] - positions[i - 1])
                above = ((positions[i] - positions[i - 1] + step)
                         * (markers[i + 1] - markers[i])
                         / (positions[i + 1] - positions[i]))
                below = ((positions[i + 1] - positions[i] - step)
                         * (markers[i] - markers[i - 1])
                         / (positions[i] - positions[i - 1]))
                candidate = markers[i] + outer * (above + below)
                if not markers[i - 1] < candidate < markers[i + 1]:
                    j = i + int(step)
                    candidate = (markers[i] + step
                                 * (markers[j] - markers[i])
                                 / (positions[j] - positions[i]))
                markers[i] = candidate
                positions[i] += step


def record(request_id, arrival, admission, first, completion,
           input_len=64, output_len=32):
    return RequestRecord(request_id=request_id, arrival_time=arrival,
                         admission_time=admission, first_token_time=first,
                         completion_time=completion, input_len=input_len,
                         output_len=output_len)


class TestP2Quantile:
    def test_validates_quantile_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                P2Quantile(bad)

    def test_empty_estimator_raises(self):
        with pytest.raises(ConfigurationError):
            P2Quantile(0.5).value

    def test_small_samples_are_exact(self):
        # Below five observations the estimator holds the raw values, so it
        # must agree with numpy's linear-interpolation percentile exactly.
        values = [3.0, 1.0, 4.0, 1.5]
        estimator = P2Quantile(0.9)
        for index, value in enumerate(values):
            estimator.observe(value)
            expected = np.percentile(values[:index + 1], 90)
            assert estimator.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_below_five_samples_matches_numpy_exactly(self, q, n):
        # The marker phase has not started yet: the estimator is holding
        # the raw sorted values and must reproduce np.percentile bit for
        # bit, for every sample count below the five-marker threshold.
        rng = np.random.default_rng(41)
        values = list(rng.exponential(2.0, n))
        estimator = P2Quantile(q)
        for value in values:
            estimator.observe(value)
        assert estimator.count == n
        assert estimator.value == float(np.percentile(values, q * 100.0))

    @pytest.mark.parametrize("n", [3, 5, 50])
    def test_all_equal_samples_collapse_to_that_value(self, n):
        # Degenerate stream: every marker gap is zero, which exercises the
        # parabolic/linear fallback divisions — the estimate must stay the
        # constant without a ZeroDivisionError or drift.
        estimator = P2Quantile(0.9)
        for _ in range(n):
            estimator.observe(7.25)
        assert estimator.value == 7.25

    def test_nan_observation_is_rejected(self):
        # NaN makes every marker comparison False, silently corrupting the
        # sketch; observe() must refuse it and leave the state untouched.
        estimator = P2Quantile(0.5)
        for value in (1.0, 2.0, 3.0):
            estimator.observe(value)
        with pytest.raises(ConfigurationError):
            estimator.observe(float("nan"))
        assert estimator.count == 3
        assert estimator.value == 2.0
        # Also after the marker phase begins (>= 5 observations).
        for value in (4.0, 5.0, 6.0):
            estimator.observe(value)
        with pytest.raises(ConfigurationError):
            estimator.observe(float("nan"))
        assert estimator.count == 6

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed,sampler", [
        (0, lambda rng, n: rng.normal(10.0, 2.0, n)),
        (1, lambda rng, n: rng.exponential(3.0, n)),
        (2, lambda rng, n: rng.lognormal(0.0, 1.0, n)),
    ])
    def test_tracks_numpy_percentile_on_large_samples(self, q, seed, sampler):
        rng = np.random.default_rng(seed)
        values = sampler(rng, 5000)
        estimator = P2Quantile(q)
        for value in values:
            estimator.observe(float(value))
        exact = np.percentile(values, q * 100)
        spread = np.percentile(values, 99) - np.percentile(values, 1)
        # P² is an approximation; a few percent of the distribution's
        # spread is the accuracy class the original paper reports.
        assert abs(estimator.value - exact) < 0.05 * spread

    @settings(max_examples=60, deadline=None)
    @given(q=st.sampled_from([0.1, 0.5, 0.9, 0.99]),
           values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False), max_size=200))
    def test_matches_loop_reference_exactly(self, q, values):
        estimator, reference = P2Quantile(q), LoopP2(q)
        for value in values:
            estimator.observe(value)
            reference.observe(value)
        assert estimator._markers == reference.markers
        assert estimator._positions == reference.positions

    def test_monotone_input_is_tracked_closely(self):
        estimator = P2Quantile(0.5)
        for value in range(1, 1001):
            estimator.observe(float(value))
        assert estimator.value == pytest.approx(500.5, rel=0.02)


class TestStreamingPercentiles:
    def test_values_keys_are_floats(self):
        bank = StreamingPercentiles((50, 90, 99))
        assert bank.values() == {}
        for value in (1.0, 2.0, 3.0):
            bank.observe(value)
        assert set(bank.values()) == {50.0, 90.0, 99.0}

    def test_rejects_out_of_range_ranks(self):
        with pytest.raises(ConfigurationError):
            StreamingPercentiles((0,))
        with pytest.raises(ConfigurationError):
            StreamingPercentiles((100,))


class TestStreamingMeanAndGoodput:
    def test_mean_matches_running_average(self):
        mean = StreamingMean()
        assert mean.mean == 0.0
        values = [2.0, 4.0, 9.0]
        for value in values:
            mean.observe(value)
        assert mean.mean == pytest.approx(np.mean(values))
        assert mean.count == 3

    def test_goodput_counts_only_compliant_tokens(self):
        goodput = StreamingGoodput(ttft_slo_s=1.0, tpot_slo_s=0.1)
        # Compliant: ttft 0.5 <= 1.0, tpot (2.0-0.5)/(31) ~ 0.048 <= 0.1.
        goodput.observe(record(0, 0.0, 0.0, 0.5, 2.0, output_len=32))
        # TTFT violation: first token 5s after arrival.
        goodput.observe(record(1, 0.0, 0.0, 5.0, 6.0, output_len=32))
        assert goodput.goodput(10.0) == pytest.approx(32 / 10.0)
        assert goodput.goodput(0.0) == 0.0


class TestStreamingTrace:
    def serve_records(self):
        return [record(i, float(i), float(i), float(i) + 0.5,
                       float(i) + 2.0, output_len=16 + i)
                for i in range(50)]

    def full_and_streaming(self, **kwargs):
        full = ServingTrace(system="sys", model="m")
        stream = StreamingTrace(system="sys", model="m", **kwargs)
        for rec in self.serve_records():
            full.observe(rec)
            stream.observe(rec)
        return full, stream

    def test_exact_aggregates_match_retained_trace(self):
        full, stream = self.full_and_streaming()
        assert stream.num_requests == full.num_requests
        assert stream.generated_tokens == full.generated_tokens
        assert stream.duration == full.duration
        assert stream.throughput == full.throughput
        assert stream.mean_queueing_delay == full.mean_queueing_delay
        assert stream.goodput() == full.goodput()

    def test_summary_has_identical_keys(self):
        full, stream = self.full_and_streaming()
        assert set(stream.summary()) == set(full.summary())

    def test_percentiles_are_close_on_modest_traces(self):
        full, stream = self.full_and_streaming()
        for key in ("p50_ttft_s", "p99_latency_s", "p50_tpot_s"):
            assert stream.summary()[key] == \
                pytest.approx(full.summary()[key], rel=0.15, abs=1e-3)

    def test_quantiles_disabled_returns_empty(self):
        _, stream = self.full_and_streaming(quantiles=())
        assert stream.ttft_percentiles() == {}
        assert stream.tpot_percentiles() == {}
        assert stream.latency_percentiles() == {}
        summary = stream.summary()
        assert summary["p50_ttft_s"] == 0.0
        assert summary["num_requests"] == 50

    def test_unconfigured_percentile_rank_raises(self):
        _, stream = self.full_and_streaming()
        assert set(stream.ttft_percentiles()) == \
            {float(q) for q in DEFAULT_QUANTILES}
        with pytest.raises(ConfigurationError):
            stream.ttft_percentiles(qs=(75,))

    def test_goodput_slos_fixed_at_construction(self):
        _, stream = self.full_and_streaming(ttft_slo_s=1.0, tpot_slo_s=0.5)
        assert stream.goodput(ttft_slo_s=1.0, tpot_slo_s=0.5) >= 0.0
        assert stream.goodput() == stream.throughput
        with pytest.raises(ConfigurationError):
            stream.goodput(ttft_slo_s=2.0, tpot_slo_s=0.5)

    def test_goodput_without_slos_configured_raises(self):
        _, stream = self.full_and_streaming()
        with pytest.raises(ConfigurationError):
            stream.goodput(ttft_slo_s=1.0, tpot_slo_s=0.5)

    def test_empty_streaming_trace_is_safe(self):
        stream = StreamingTrace(system="sys", model="m")
        assert stream.num_requests == 0
        assert stream.duration == 0.0
        assert stream.throughput == 0.0
        assert stream.mean_queueing_delay == 0.0
        assert stream.goodput() == 0.0
        assert stream.ttft_percentiles() == {}
        summary = stream.summary()
        assert summary["num_requests"] == 0
        assert summary["p99_ttft_s"] == 0.0
