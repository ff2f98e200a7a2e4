"""Tests for repro.serving.sketches: P² quantiles and streaming traces."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.serving.sketches import (
    _FOLD_BUFFER,
    DEFAULT_QUANTILES,
    P2Quantile,
    StreamingMean,
    StreamingPercentiles,
    StreamingTrace,
)
from repro.serving.trace import (
    RequestRecord,
    ServingTrace,
    StreamingGoodput,
    normalize_class_slos,
)
from repro.workloads.arrivals import SLO_CLASSES


class LoopP2:
    """Reference P² update with the marker loops written out as loops —
    the arithmetic :meth:`P2Quantile.observe` must reproduce exactly."""

    def __init__(self, q):
        self.q = q
        self.count = 0
        self.markers = []
        self.positions = None
        self.desired = None
        self.rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value):
        self.count += 1
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


class UnbufferedBank(StreamingPercentiles):
    """A percentile bank that updates every estimator per observation."""

    def observe(self, value):
        for estimator in self._estimators:
            estimator.observe(value)


class ReferenceTrace:
    """Reference record fold, independent of the trace classes: every
    figure read through the record's properties, one accumulator per
    figure (:class:`StreamingMean`, :class:`StreamingGoodput`, unbuffered
    P² banks) — what the one fold of :class:`StreamingTrace` must
    reproduce exactly."""

    def __init__(self, system, model, quantiles=DEFAULT_QUANTILES,
                 ttft_slo_s=None, tpot_slo_s=None, class_slos=None):
        self.system, self.model = system, model
        self.slos = (ttft_slo_s, tpot_slo_s)
        self.class_slos = normalize_class_slos(class_slos)
        self.banks = [UnbufferedBank(quantiles) for _ in range(3)]
        self.preempt_wait = P2Quantile(0.99)
        self.count = self.failed = self.shed = self.retries = 0
        self.tokens = 0
        self.duration = 0.0
        self.queueing = StreamingMean()
        self.chunks = StreamingMean()
        self.good = StreamingGoodput(ttft_slo_s, tpot_slo_s)
        self.classes = {}
        self.prefix_bearing = self.prefix_hits = self.preemptions = 0

    def observe(self, record):
        self.count += 1
        self.retries += record.retries
        self.duration = max(self.duration, record.completion_time)
        if record.status != "completed":
            if record.status == "failed":
                self.failed += 1
            else:
                self.shed += 1
            return
        self.tokens += record.output_len
        self.queueing.observe(record.queueing_delay)
        self.chunks.observe(record.prefill_chunks)
        self.good.observe(record)
        for bank, value in zip(self.banks, (record.ttft, record.tpot,
                                            record.e2e_latency)):
            bank.observe(value)
        if record.preempting:
            self.preempt_wait.observe(record.queueing_delay)
        accumulator = self.classes.get(record.slo_class)
        if accumulator is None:
            ttft_slo_s, tpot_slo_s = self.class_slos.get(record.slo_class,
                                                         (None, None))
            accumulator = {"tokens": 0, "ttft": StreamingMean(),
                           "queueing": StreamingMean(),
                           "goodput": StreamingGoodput(ttft_slo_s,
                                                       tpot_slo_s)}
            self.classes[record.slo_class] = accumulator
        accumulator["tokens"] += record.output_len
        accumulator["ttft"].observe(record.ttft)
        accumulator["queueing"].observe(record.queueing_delay)
        accumulator["goodput"].observe(record)
        if record.prefix_len > 0:
            self.prefix_bearing += 1
            self.prefix_hits += record.prefix_hit
        self.preemptions += record.preemptions

    def rate(self, tokens):
        return tokens / self.duration if self.duration > 0 else 0.0

    def goodput(self, ttft_slo_s=None, tpot_slo_s=None):
        if ttft_slo_s is None and tpot_slo_s is None:
            return self.rate(self.tokens)
        assert (ttft_slo_s, tpot_slo_s) == self.slos
        return self.good.goodput(self.duration)

    @property
    def p99_preemption_latency(self):
        if self.preempt_wait.count == 0:
            return 0.0
        return self.preempt_wait.value

    def per_class_summary(self, class_slos=None):
        constrained = bool(normalize_class_slos(class_slos))
        if constrained:
            assert normalize_class_slos(class_slos) == self.class_slos
        out = {}
        for name in sorted(self.classes):
            accumulator = self.classes[name]
            out[name] = {
                "num_requests": accumulator["ttft"].count,
                "generated_tokens": accumulator["tokens"],
                "goodput_tokens_per_s": (
                    accumulator["goodput"].goodput(self.duration)
                    if constrained else self.rate(accumulator["tokens"])),
                "mean_ttft_s": accumulator["ttft"].mean,
                "mean_queueing_delay_s": accumulator["queueing"].mean,
            }
        return out

    def summary(self):
        ttft, tpot, latency = [bank.values() for bank in self.banks]
        return {
            "system": self.system,
            "model": self.model,
            "num_requests": self.count,
            "generated_tokens": self.tokens,
            "duration_s": self.duration,
            "throughput_tokens_per_s": self.rate(self.tokens),
            "mean_queueing_delay_s": self.queueing.mean,
            "p50_ttft_s": ttft.get(50.0, 0.0),
            "p90_ttft_s": ttft.get(90.0, 0.0),
            "p99_ttft_s": ttft.get(99.0, 0.0),
            "p50_tpot_s": tpot.get(50.0, 0.0),
            "p99_tpot_s": tpot.get(99.0, 0.0),
            "p50_latency_s": latency.get(50.0, 0.0),
            "p99_latency_s": latency.get(99.0, 0.0),
            "prefix_hit_rate": (self.prefix_hits / self.prefix_bearing
                                if self.prefix_bearing else 0.0),
            "num_preemptions": self.preemptions,
            "p99_preemption_latency_s": self.p99_preemption_latency,
            "prefill_chunks_per_request": self.chunks.mean,
            "num_failed": self.failed,
            "num_shed": self.shed,
            "num_retries": self.retries,
        }


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
        # Sketches cannot be switched off: a streaming trace needs at
        # least one percentile rank.
        with pytest.raises(ConfigurationError, match="percentile rank"):
            StreamingTrace(system="sys", model="m", quantiles=())

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


# ---------------------------------------------------------------------- #
# batch fold
# ---------------------------------------------------------------------- #
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def value_lists(draw):
    """Sketch inputs: arbitrary floats, heavy ties, monotone runs, heavy
    tails, and the warm-up edge sizes (fewer than five, exactly five)."""
    size = draw(st.one_of(st.integers(0, 6), st.integers(0, 600)))
    kind = draw(st.sampled_from(["floats", "ties", "runs", "heavy"]))
    if kind == "floats":
        return draw(st.lists(finite, min_size=size, max_size=size))
    if kind == "ties":
        return draw(st.lists(st.sampled_from([-3.0, 0.0, 1.0, 2.5]),
                             min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "heavy":
        return [float(v) for v in rng.pareto(1.1, size)]
    values = []
    while len(values) < size:  # ascending or descending runs
        run = sorted(rng.normal(0.0, 10.0, int(rng.integers(1, 80))))
        values.extend(float(v) for v in (run if rng.random() < 0.5
                                         else reversed(run)))
    return values[:size]


def chunked(values, sizes):
    """Cut ``values`` into consecutive chunks of ``sizes`` (cycled)."""
    chunks, start = [], 0
    for size in sizes * (len(values) + 1):
        if start >= len(values):
            break
        chunks.append(values[start:start + size])
        start += size
    return chunks


def p2_state(estimator):
    return (estimator._markers, estimator._positions, estimator._desired,
            estimator.count)


class TestP2Fold:
    @settings(max_examples=120, deadline=None)
    @given(q=st.sampled_from([0.1, 0.5, 0.9, 0.99]), values=value_lists(),
           sizes=st.lists(st.integers(1, 70), min_size=1, max_size=8))
    def test_fold_matches_observe_and_loop_reference(self, q, values, sizes):
        folded, stepped, reference = P2Quantile(q), P2Quantile(q), LoopP2(q)
        for chunk in chunked(values, sizes):
            folded.fold(chunk)
        for value in values:
            stepped.observe(value)
            reference.observe(value)
        assert p2_state(folded) == p2_state(stepped)
        assert p2_state(folded) == (reference.markers, reference.positions,
                                    reference.desired, reference.count)

    def test_fold_rejects_nan_without_folding_anything(self):
        estimator = P2Quantile(0.5)
        estimator.fold([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        before = [list(part) if isinstance(part, list) else part
                  for part in p2_state(estimator)]
        with pytest.raises(ConfigurationError):
            estimator.fold([7.0, float("nan"), 8.0])
        assert list(p2_state(estimator)) == before

    def test_empty_fold_is_a_no_op(self):
        estimator = P2Quantile(0.9)
        estimator.fold([])
        assert estimator.count == 0
        estimator.fold([1.0, 2.0])
        estimator.fold([])
        assert p2_state(estimator) == ([1.0, 2.0], None, None, 2)


class TestBufferedBank:
    QS = (50, 90, 99)

    @staticmethod
    def expected(estimators):
        if estimators[0].count == 0:
            return {}
        return {float(q): e.value
                for q, e in zip(TestBufferedBank.QS, estimators)}

    @settings(max_examples=60, deadline=None)
    @given(values=value_lists(), reads=st.sets(st.integers(0, 600)))
    def test_reads_between_observations_match_unbuffered(self, values,
                                                         reads):
        bank = StreamingPercentiles(self.QS)
        unbuffered = [P2Quantile(q / 100.0) for q in self.QS]
        for index, value in enumerate(values):
            if index in reads:
                assert bank.count == unbuffered[0].count
                assert bank.values() == self.expected(unbuffered)
            bank.observe(value)
            for estimator in unbuffered:
                estimator.observe(value)
            assert len(bank._buffer) < _FOLD_BUFFER
        assert bank.values() == self.expected(unbuffered)
        for estimator, reference in zip(bank._estimators, unbuffered):
            assert p2_state(estimator) == p2_state(reference)

    @pytest.mark.parametrize("n", [0, 3, _FOLD_BUFFER - 1, _FOLD_BUFFER + 7])
    def test_nan_raises_at_observe_and_leaves_bank_unchanged(self, n):
        rng = np.random.default_rng(n)
        values = [float(v) for v in rng.lognormal(0.0, 1.0, n)]
        bank, clean = (StreamingPercentiles(self.QS),
                       StreamingPercentiles(self.QS))
        for value in values:
            bank.observe(value)
            clean.observe(value)
        buffered = list(bank._buffer)
        with pytest.raises(ConfigurationError):
            bank.observe(float("nan"))
        assert bank._buffer == buffered
        assert bank.values() == clean.values()
        for estimator, reference in zip(bank._estimators, clean._estimators):
            assert p2_state(estimator) == p2_state(reference)


# ---------------------------------------------------------------------- #
# single-pass trace fold vs the per-accumulator reference
# ---------------------------------------------------------------------- #
gap = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def request_records(draw, request_id):
    arrival = draw(st.floats(min_value=0.0, max_value=1e3,
                             allow_nan=False))
    status = draw(st.sampled_from(["completed"] * 4 + ["failed", "shed"]))
    if status == "completed":
        admission = arrival + draw(gap)
        first = admission + draw(gap)
        completion = first + draw(gap)
    else:  # terminated: every timestamp is the termination instant
        admission = first = completion = arrival + draw(gap)
    return RequestRecord(
        request_id=request_id, arrival_time=arrival,
        admission_time=admission, first_token_time=first,
        completion_time=completion, input_len=draw(st.integers(1, 512)),
        output_len=draw(st.sampled_from([1, 1, 2, 7, 64])),
        slo_class=draw(st.sampled_from(SLO_CLASSES)),
        prefix_len=draw(st.sampled_from([0, 0, 16])),
        prefix_hit=draw(st.booleans()),
        preemptions=draw(st.integers(0, 2)),
        preempting=draw(st.booleans()),
        prefill_chunks=draw(st.integers(0, 3)),
        status=status, retries=draw(st.integers(0, 2)))


def random_records(seed, n):
    """``n`` records drawn with NumPy: enough to fill the fold buffer."""
    rng = np.random.default_rng(seed)
    records = []
    for index in range(n):
        arrival = float(rng.uniform(0.0, 100.0))
        status = str(rng.choice(["completed"] * 8 + ["failed", "shed"]))
        if status == "completed":
            admission = arrival + float(rng.exponential(0.5))
            first = admission + float(rng.exponential(0.2))
            completion = first + float(rng.exponential(3.0))
        else:
            admission = first = completion = arrival + float(rng.random())
        records.append(RequestRecord(
            request_id=index, arrival_time=arrival,
            admission_time=admission, first_token_time=first,
            completion_time=completion, input_len=128,
            output_len=int(rng.choice([1, 2, 16, 64])),
            slo_class=str(rng.choice(SLO_CLASSES)),
            prefix_len=int(rng.choice([0, 32])),
            prefix_hit=bool(rng.random() < 0.5),
            preemptions=int(rng.integers(0, 3)),
            preempting=bool(rng.random() < 0.2),
            prefill_chunks=int(rng.integers(0, 3)),
            status=status, retries=int(rng.integers(0, 2))))
    return records


slo = st.one_of(st.none(), st.floats(min_value=0.0, max_value=60.0))


class TestTraceFoldMatchesReference:
    @staticmethod
    def assert_same(records, quantiles, ttft_slo_s, tpot_slo_s,
                    class_slos):
        kwargs = dict(quantiles=quantiles, ttft_slo_s=ttft_slo_s,
                      tpot_slo_s=tpot_slo_s, class_slos=class_slos)
        trace = StreamingTrace("sys", "m", **kwargs)
        reference = ReferenceTrace("sys", "m", **kwargs)
        for rec in records:
            trace.observe(rec)
            reference.observe(rec)
        assert trace.summary() == reference.summary()
        assert trace.per_class_summary(class_slos) == \
            reference.per_class_summary(class_slos)
        assert trace.per_class_summary() == reference.per_class_summary()
        assert trace.goodput(ttft_slo_s, tpot_slo_s) == \
            reference.goodput(ttft_slo_s, tpot_slo_s)
        assert trace.goodput() == reference.goodput()
        assert trace.p99_preemption_latency == \
            reference.p99_preemption_latency
        # A full trace folds its retained records through the same
        # accumulator: every exact figure agrees bit for bit.
        full = ServingTrace("sys", "m")
        for rec in records:
            full.observe(rec)
        exact = [key for key in trace.summary()
                 if not key.startswith(("p50_", "p90_", "p99_"))]
        assert {key: full.summary()[key] for key in exact} == \
            {key: trace.summary()[key] for key in exact}
        assert full.goodput(ttft_slo_s, tpot_slo_s) == \
            trace.goodput(ttft_slo_s, tpot_slo_s)
        assert full.per_class_summary(class_slos) == \
            trace.per_class_summary(class_slos)
        assert full.per_class_summary() == trace.per_class_summary()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           ttft_slo_s=slo, tpot_slo_s=slo, class_ttft=slo, class_tpot=slo)
    def test_drawn_records(self, data, ttft_slo_s, tpot_slo_s, class_ttft,
                           class_tpot):
        n = data.draw(st.integers(0, 40))
        records = [data.draw(request_records(i)) for i in range(n)]
        self.assert_same(records, DEFAULT_QUANTILES, ttft_slo_s, tpot_slo_s,
                         {"interactive": (class_ttft, class_tpot)})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_past_the_fold_buffer(self, seed):
        records = random_records(seed, 3 * _FOLD_BUFFER + 11)
        self.assert_same(records, DEFAULT_QUANTILES, 2.0, 0.5,
                         {"interactive": (1.0, 0.2), "batch": (None, 1.0)})

    def test_float_totals_are_left_to_right_sums(self):
        # 1.0 + 1e-16 rounds back to 1.0, so ten tiny delays after a large
        # one vanish from a left-to-right sum but not from a compensated
        # one (Python 3.12's ``sum``): both record modes must agree on
        # the former.
        delays = [1.0] + [1e-16] * 10
        records = [RequestRecord(request_id=i, arrival_time=0.0,
                                 admission_time=delay,
                                 first_token_time=delay,
                                 completion_time=delay + 1.0,
                                 input_len=8, output_len=2,
                                 slo_class="interactive")
                   for i, delay in enumerate(delays)]
        self.assert_same(records, DEFAULT_QUANTILES, 2.0, 0.5,
                         {"interactive": (1.0, 0.2)})
        full = ServingTrace("sys", "m", records=records)
        assert full.mean_queueing_delay == 1.0 / len(delays)
        assert full.per_class_summary()["interactive"]["mean_ttft_s"] == \
            1.0 / len(delays)
