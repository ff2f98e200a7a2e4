"""Streaming metric sketches: serving summaries in bounded memory.

A retained :class:`~repro.serving.trace.ServingTrace` holds one
:class:`~repro.serving.trace.RequestRecord` per request, so its memory grows
linearly with trace length — fine for a 24-request sweep row, fatal for the
ROADMAP's "millions of users".  This module provides the streaming
counterpart: every metric the serving summary reports is folded into O(1)
state per metric as records are observed, and the records themselves are
dropped.

* :class:`P2Quantile` — the P² piecewise-parabolic online quantile
  estimator of Jain & Chlamtac (1985): five markers per quantile, exact
  below five observations, O(1) update and memory after that;
* :class:`StreamingPercentiles` — a bank of :class:`P2Quantile` mirroring
  :func:`repro.evaluation.metrics.percentiles`, fed through a bounded
  buffer that :meth:`P2Quantile.fold` drains in batches;
* :class:`StreamingMean` / :class:`StreamingGoodput` — exact count/mean and
  SLO-conditioned goodput accumulators;
* :class:`StreamingTrace` — the ``record_mode="streaming"`` stand-in for
  :class:`~repro.serving.trace.ServingTrace`: same summary surface
  (``num_requests``, ``duration``, ``throughput``, ``*_percentiles``,
  ``goodput``, ``summary``), no retained records.

Exactness contract: counts, token totals, duration, throughput, mean
queueing delay, and goodput are *exact* (identical float arithmetic to the
retained trace, records observed in the same order).  Percentiles are P²
*estimates* — exact for traces of fewer than five requests, approximate
beyond that — so comparisons against retained traces belong inside sketch
error bounds (see ``tests/test_sketches.py`` and the equivalence tests in
``tests/test_serving_events.py``).

Because SLO compliance must be judged the moment a record is observed (the
record is then gone), a streaming trace fixes its goodput SLOs at
construction; :meth:`StreamingTrace.goodput` answers only for those SLOs
(or for the unconstrained case, which needs no per-record state).
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from repro._common import ConfigurationError
from repro.serving.trace import RequestRecord, normalize_class_slos

#: Percentile ranks tracked by default — the ones ``summary()`` reports.
DEFAULT_QUANTILES = (50, 90, 99)

_NAN_MESSAGE = "cannot observe NaN: P² marker comparisons are undefined"


class P2Quantile:
    """P² online estimator of a single quantile (Jain & Chlamtac, 1985).

    Keeps five markers whose heights approximate the quantile curve: the
    minimum, the maximum, the target quantile ``q``, and the midpoints
    ``q/2`` and ``(1+q)/2``.  Each observation shifts marker positions and
    adjusts heights by a piecewise-parabolic (hence P²) interpolation, so
    the estimate converges without retaining observations.  Below five
    observations the exact values are kept and the quantile is computed
    directly (matching :func:`numpy.percentile`).
    """

    __slots__ = ("quantile", "count", "_markers", "_positions", "_desired",
                 "_rates")

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ConfigurationError(
                f"quantile must lie strictly in (0, 1), got {quantile!r}"
            )
        self.quantile = float(quantile)
        self.count = 0
        self._markers: list[float] = []
        self._positions: list[float] | None = None
        self._desired: list[float] | None = None
        q = self.quantile
        self._rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            # NaN poisons every marker comparison silently (all orderings
            # are False), so the sketch would drift without any error —
            # reject it at the door instead.
            raise ConfigurationError(_NAN_MESSAGE)
        self.count += 1
        markers = self._markers
        positions = self._positions
        if positions is None:
            bisect.insort(markers, value)
            if len(markers) == 5:
                q = self.quantile
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                                 3.0 + 2.0 * q, 5.0]
            return
        # Find the cell the value falls in and shift the positions of every
        # marker above it.  The five-marker loops are unrolled: this runs
        # once per observation of every sketch.
        if value < markers[0]:
            markers[0] = value
            positions[1] += 1.0
            positions[2] += 1.0
            positions[3] += 1.0
        elif value >= markers[4]:
            markers[4] = value
        elif value < markers[1]:
            positions[1] += 1.0
            positions[2] += 1.0
            positions[3] += 1.0
        elif value < markers[2]:
            positions[2] += 1.0
            positions[3] += 1.0
        elif value < markers[3]:
            positions[3] += 1.0
        positions[4] += 1.0
        # Advance the desired positions and re-centre each interior marker
        # that drifted a full position off its desired one (in marker
        # order: marker i+1's check reads marker i's adjusted position).
        desired = self._desired
        rates = self._rates
        desired[4] += rates[4]
        desired[1] += rates[1]
        gap = desired[1] - positions[1]
        if ((gap >= 1.0 and positions[2] - positions[1] > 1.0)
                or (gap <= -1.0 and positions[0] - positions[1] < -1.0)):
            self._adjust(1, 1.0 if gap >= 1.0 else -1.0)
        desired[2] += rates[2]
        gap = desired[2] - positions[2]
        if ((gap >= 1.0 and positions[3] - positions[2] > 1.0)
                or (gap <= -1.0 and positions[1] - positions[2] < -1.0)):
            self._adjust(2, 1.0 if gap >= 1.0 else -1.0)
        desired[3] += rates[3]
        gap = desired[3] - positions[3]
        if ((gap >= 1.0 and positions[4] - positions[3] > 1.0)
                or (gap <= -1.0 and positions[2] - positions[3] < -1.0)):
            self._adjust(3, 1.0 if gap >= 1.0 else -1.0)

    def fold(self, values) -> None:
        """Observe every value of ``values`` in order, in one pass.

        Leaves exactly the state that calling :meth:`observe` on each value
        would: the same update runs with the markers, positions and
        desired positions held in local variables for the whole batch
        (the :meth:`_adjust` arithmetic inlined in the same expression
        order) and written back once.  Every value is validated before any
        is folded, so a NaN anywhere leaves the estimator unchanged.
        """
        values = [float(value) for value in values]
        if any(math.isnan(value) for value in values):
            raise ConfigurationError(_NAN_MESSAGE)
        self._fold(values)

    def _fold(self, values: list[float]) -> None:
        """:meth:`fold` over already-validated floats."""
        start = 0
        if self._positions is None:
            # Warm-up: the first five values are kept exactly.
            for value in values:
                if self._positions is not None:
                    break
                self.observe(value)
                start += 1
            if start == len(values):
                return
            values = values[start:]
        m0, m1, m2, m3, m4 = self._markers
        n0, n1, n2, n3, n4 = self._positions
        desired = self._desired
        d1, d2, d3, d4 = desired[1], desired[2], desired[3], desired[4]
        _, r1, r2, r3, r4 = self._rates
        for value in values:
            if value < m0:
                m0 = value
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif value >= m4:
                m4 = value
            elif value < m1:
                n1 += 1.0
                n2 += 1.0
                n3 += 1.0
            elif value < m2:
                n2 += 1.0
                n3 += 1.0
            elif value < m3:
                n3 += 1.0
            n4 += 1.0
            d4 += r4
            d1 += r1
            gap = d1 - n1
            if ((gap >= 1.0 and n2 - n1 > 1.0)
                    or (gap <= -1.0 and n0 - n1 < -1.0)):
                step = 1.0 if gap >= 1.0 else -1.0
                candidate = m1 + step / (n2 - n0) * (
                    (n1 - n0 + step) * (m2 - m1) / (n2 - n1)
                    + (n2 - n1 - step) * (m1 - m0) / (n1 - n0))
                if not m0 < candidate < m2:
                    if step > 0.0:
                        candidate = m1 + step * (m2 - m1) / (n2 - n1)
                    else:
                        candidate = m1 + step * (m0 - m1) / (n0 - n1)
                m1 = candidate
                n1 = n1 + step
            d2 += r2
            gap = d2 - n2
            if ((gap >= 1.0 and n3 - n2 > 1.0)
                    or (gap <= -1.0 and n1 - n2 < -1.0)):
                step = 1.0 if gap >= 1.0 else -1.0
                candidate = m2 + step / (n3 - n1) * (
                    (n2 - n1 + step) * (m3 - m2) / (n3 - n2)
                    + (n3 - n2 - step) * (m2 - m1) / (n2 - n1))
                if not m1 < candidate < m3:
                    if step > 0.0:
                        candidate = m2 + step * (m3 - m2) / (n3 - n2)
                    else:
                        candidate = m2 + step * (m1 - m2) / (n1 - n2)
                m2 = candidate
                n2 = n2 + step
            d3 += r3
            gap = d3 - n3
            if ((gap >= 1.0 and n4 - n3 > 1.0)
                    or (gap <= -1.0 and n2 - n3 < -1.0)):
                step = 1.0 if gap >= 1.0 else -1.0
                candidate = m3 + step / (n4 - n2) * (
                    (n3 - n2 + step) * (m4 - m3) / (n4 - n3)
                    + (n4 - n3 - step) * (m3 - m2) / (n3 - n2))
                if not m2 < candidate < m4:
                    if step > 0.0:
                        candidate = m3 + step * (m4 - m3) / (n4 - n3)
                    else:
                        candidate = m3 + step * (m2 - m3) / (n2 - n3)
                m3 = candidate
                n3 = n3 + step
        self.count += len(values)
        self._markers[:] = (m0, m1, m2, m3, m4)
        self._positions[:] = (n0, n1, n2, n3, n4)
        desired[1], desired[2], desired[3], desired[4] = d1, d2, d3, d4

    def _adjust(self, i: int, step: float) -> None:
        """Move interior marker ``i`` one position by ``step`` (±1)."""
        markers, positions = self._markers, self._positions
        below, here, above = positions[i - 1], positions[i], positions[i + 1]
        low, height, high = markers[i - 1], markers[i], markers[i + 1]
        # Piecewise-parabolic candidate; P² falls back to linear
        # interpolation toward the neighbour whenever the parabola would
        # break marker monotonicity.
        candidate = height + step / (above - below) * (
            (here - below + step) * (high - height) / (above - here)
            + (above - here - step) * (height - low) / (here - below))
        if not low < candidate < high:
            if step > 0.0:
                candidate = height + step * (high - height) / (above - here)
            else:
                candidate = height + step * (low - height) / (below - here)
        markers[i] = candidate
        positions[i] = here + step

    @property
    def value(self) -> float:
        """Current estimate of the tracked quantile."""
        if self.count == 0:
            raise ConfigurationError(
                "the quantile of an empty stream is undefined"
            )
        if self._positions is None:
            # Fewer than five observations: exact, matching np.percentile.
            return float(np.percentile(self._markers, self.quantile * 100.0))
        return self._markers[2]


#: Observations a :class:`StreamingPercentiles` buffers before folding them
#: into its estimators.  Constant, so a bank's memory stays O(1).
_FOLD_BUFFER = 256


class StreamingPercentiles:
    """A bank of :class:`P2Quantile` keyed like ``metrics.percentiles``.

    Observations collect in a bounded buffer and are folded into every
    estimator with :meth:`P2Quantile.fold` when it fills and before any
    read (``count``, ``values``), so each estimator runs its update loop
    once per batch instead of once per call.  Folding in order is exactly
    observing in order: every read returns what an unbuffered bank would.
    """

    __slots__ = ("qs", "_estimators", "_buffer")

    def __init__(self, qs=DEFAULT_QUANTILES) -> None:
        qs = tuple(float(q) for q in qs)
        if not qs:
            raise ConfigurationError("need at least one percentile rank")
        for q in qs:
            if not 0.0 < q < 100.0:
                raise ConfigurationError(
                    f"percentile ranks must lie in (0, 100), got {q!r}"
                )
        self.qs = qs
        self._estimators = [P2Quantile(q / 100.0) for q in qs]
        self._buffer: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            # Rejected before buffering, so a bad value never enters the
            # estimators' state.
            raise ConfigurationError(_NAN_MESSAGE)
        buffer = self._buffer
        buffer.append(value)
        if len(buffer) >= _FOLD_BUFFER:
            self._flush()

    def _flush(self) -> None:
        buffer = self._buffer
        if buffer:
            for estimator in self._estimators:
                estimator._fold(buffer)
            buffer.clear()

    @property
    def count(self) -> int:
        self._flush()
        return self._estimators[0].count

    def values(self) -> dict[float, float]:
        """``{rank: estimate}`` like :func:`~repro.evaluation.metrics.percentiles`
        (``{}`` when nothing was observed, matching the empty-trace shape)."""
        if self.count == 0:
            return {}
        return {q: estimator.value
                for q, estimator in zip(self.qs, self._estimators)}


class StreamingMean:
    """Exact running count/sum/mean (mean 0.0 when nothing observed)."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += float(value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count


class StreamingGoodput:
    """Tokens from SLO-compliant requests, folded record by record.

    Mirrors :func:`repro.evaluation.metrics.serving_goodput` (a request is
    compliant when ``ttft <= ttft_slo_s`` and ``tpot <= tpot_slo_s``; a
    ``None`` SLO leaves that dimension unconstrained) — but the judgment is
    made when each record is observed, so the SLOs are fixed up front.
    """

    __slots__ = ("ttft_slo_s", "tpot_slo_s", "observed", "compliant",
                 "good_tokens")

    def __init__(self, ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None) -> None:
        self.ttft_slo_s = ttft_slo_s
        self.tpot_slo_s = tpot_slo_s
        self.observed = 0
        self.compliant = 0
        self.good_tokens = 0

    def observe(self, record: RequestRecord) -> None:
        self.observe_latencies(record.ttft, record.tpot, record.output_len)

    def observe_latencies(self, ttft: float, tpot: float,
                          output_len: int) -> None:
        """:meth:`observe` from a record's already-derived figures."""
        self.observed += 1
        if self.ttft_slo_s is not None and ttft > self.ttft_slo_s:
            return
        if self.tpot_slo_s is not None and tpot > self.tpot_slo_s:
            return
        self.compliant += 1
        self.good_tokens += output_len

    def goodput(self, duration_s: float) -> float:
        if duration_s <= 0:
            return 0.0
        return self.good_tokens / duration_s


class _ClassTotals:
    """One SLO class's exact accumulators inside a :class:`StreamingTrace`."""

    __slots__ = ("count", "tokens", "ttft_total", "queueing_total",
                 "goodput")

    def __init__(self, ttft_slo_s: float | None,
                 tpot_slo_s: float | None) -> None:
        self.count = 0
        self.tokens = 0
        self.ttft_total = 0.0
        self.queueing_total = 0.0
        self.goodput = StreamingGoodput(ttft_slo_s=ttft_slo_s,
                                        tpot_slo_s=tpot_slo_s)


class StreamingTrace:
    """Bounded-memory stand-in for :class:`~repro.serving.trace.ServingTrace`.

    Selected by ``record_mode="streaming"`` on
    :meth:`~repro.serving.engine.ContinuousBatchingEngine.serve` and
    :meth:`~repro.cluster.group.ReplicaGroup.serve`.  Implements the same
    summary surface — ``num_requests``, ``duration``, ``generated_tokens``,
    ``throughput``, ``mean_queueing_delay``, ``*_percentiles``, ``goodput``,
    ``summary`` — over O(1) state, so memory does not grow with trace
    length.  There is deliberately no ``records`` attribute: anything that
    needs per-request records needs ``record_mode="full"``.

    ``quantiles=None`` disables percentile sketches entirely (the
    percentile methods then return ``{}``); the cluster layer uses this for
    its per-replica sinks, whose summaries only need counts and totals.
    """

    def __init__(self, system: str, model: str, metadata: dict | None = None,
                 quantiles=DEFAULT_QUANTILES,
                 ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None,
                 class_slos: dict | None = None) -> None:
        self.system = system
        self.model = model
        self.metadata = dict(metadata or {})
        self.ttft_slo_s = ttft_slo_s
        self.tpot_slo_s = tpot_slo_s
        self.class_slos = normalize_class_slos(class_slos)
        quantiles = tuple(quantiles) if quantiles else None
        if quantiles is not None:
            self._ttft = StreamingPercentiles(quantiles)
            self._tpot = StreamingPercentiles(quantiles)
            self._latency = StreamingPercentiles(quantiles)
        else:
            self._ttft = self._tpot = self._latency = None
        self._quantiles = quantiles
        self._count = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._retries = 0
        self._tokens = 0
        self._duration = 0.0
        self._queueing_total = 0.0
        self._goodput = StreamingGoodput(ttft_slo_s=ttft_slo_s,
                                         tpot_slo_s=tpot_slo_s)
        # Per-SLO-class accumulators (created lazily on first observation
        # of each class) plus prefix-reuse counters — the streaming side of
        # ServingTrace.per_class_summary / prefix_hit_rate.  Per-class
        # goodput SLOs are fixed at construction via ``class_slos``, for
        # the same reason the trace-level SLOs are.
        self._classes: dict[str, _ClassTotals] = {}
        self._prefix_bearing = 0
        self._prefix_hits = 0
        self._preemptions = 0
        # Chunked-prefill / preemption-latency columns: the chunk total is
        # exact; the preemption-wait P99 is a P² estimate and follows the
        # ``quantiles`` gate like every other sketch.
        self._prefill_chunks = 0
        self._preempt_wait = (P2Quantile(0.99) if quantiles is not None
                              else None)

    # ------------------------------------------------------------------ #
    # record sink
    # ------------------------------------------------------------------ #
    def observe(self, record: RequestRecord) -> None:
        """Fold one terminated-request record into the running summary.

        Mirrors :class:`~repro.serving.trace.ServingTrace`'s status
        filtering: ``failed``/``shed`` records (fault injection only)
        extend the makespan and the resilience counters but contribute to
        no latency/token metric — they never generated tokens.
        """
        self._count += 1
        self._retries += record.retries
        completion = record.completion_time
        if completion > self._duration:
            self._duration = completion
        status = record.status
        if status != "completed":
            if status == "failed":
                self._failed += 1
            else:
                self._shed += 1
            return
        self._completed += 1
        # The derived figures are computed once, from the timestamps, with
        # the float expressions of the RequestRecord properties; every
        # accumulator below shares them.
        arrival = record.arrival_time
        first = record.first_token_time
        output_len = record.output_len
        queueing = record.admission_time - arrival
        ttft = first - arrival
        tpot = ((completion - first) / (output_len - 1)
                if output_len > 1 else 0.0)
        self._tokens += output_len
        self._queueing_total += queueing
        self._goodput.observe_latencies(ttft, tpot, output_len)
        if self._ttft is not None:
            self._ttft.observe(ttft)
            self._tpot.observe(tpot)
            self._latency.observe(completion - arrival)
        slo_class = record.slo_class
        totals = self._classes.get(slo_class)
        if totals is None:
            totals = _ClassTotals(*self.class_slos.get(slo_class,
                                                       (None, None)))
            self._classes[slo_class] = totals
        totals.count += 1
        totals.tokens += output_len
        totals.ttft_total += ttft
        totals.queueing_total += queueing
        totals.goodput.observe_latencies(ttft, tpot, output_len)
        if record.prefix_len > 0:
            self._prefix_bearing += 1
            self._prefix_hits += record.prefix_hit
        self._preemptions += record.preemptions
        self._prefill_chunks += record.prefill_chunks
        if record.preempting and self._preempt_wait is not None:
            self._preempt_wait.observe(queueing)

    # ------------------------------------------------------------------ #
    # aggregate metrics (ServingTrace surface)
    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        return self._count

    @property
    def duration(self) -> float:
        """Makespan: serve start (t=0) to the last observed completion."""
        return self._duration

    @property
    def generated_tokens(self) -> int:
        return self._tokens

    @property
    def throughput(self) -> float:
        if self._duration <= 0:
            return 0.0
        return self._tokens / self._duration

    @property
    def mean_queueing_delay(self) -> float:
        if self._completed == 0:
            return 0.0
        return self._queueing_total / self._completed

    @property
    def num_failed(self) -> int:
        """Requests that exhausted their retry budget under failures."""
        return self._failed

    @property
    def num_shed(self) -> int:
        """Requests dropped by degraded-mode load shedding."""
        return self._shed

    @property
    def num_retries(self) -> int:
        """Total re-dispatches across all terminated requests."""
        return self._retries

    def _percentiles(self, bank: StreamingPercentiles | None, qs) \
            -> dict[float, float]:
        if bank is None or self._completed == 0:
            return {}
        values = bank.values()
        missing = [q for q in qs if float(q) not in values]
        if missing:
            raise ConfigurationError(
                f"streaming trace tracks percentiles {list(bank.qs)}; "
                f"{missing} were not configured at construction"
            )
        return {float(q): values[float(q)] for q in qs}

    def ttft_percentiles(self, qs=DEFAULT_QUANTILES) -> dict[float, float]:
        return self._percentiles(self._ttft, qs)

    def tpot_percentiles(self, qs=DEFAULT_QUANTILES) -> dict[float, float]:
        return self._percentiles(self._tpot, qs)

    def latency_percentiles(self, qs=DEFAULT_QUANTILES) -> dict[float, float]:
        return self._percentiles(self._latency, qs)

    def goodput(self, ttft_slo_s: float | None = None,
                tpot_slo_s: float | None = None) -> float:
        """SLO-conditioned token goodput for the SLOs fixed at construction.

        The unconstrained case (both ``None``) needs no per-record state and
        is always answerable; any other SLO pair must equal the one this
        trace was built with, because compliance was judged as records
        streamed by.
        """
        if ttft_slo_s is None and tpot_slo_s is None:
            if self._duration <= 0:
                return 0.0
            return self._tokens / self._duration
        if (ttft_slo_s, tpot_slo_s) != (self.ttft_slo_s, self.tpot_slo_s):
            raise ConfigurationError(
                f"streaming goodput was accumulated for SLOs "
                f"(ttft={self.ttft_slo_s!r}, tpot={self.tpot_slo_s!r}); "
                f"(ttft={ttft_slo_s!r}, tpot={tpot_slo_s!r}) would need the "
                f"retained records (record_mode='full')"
            )
        return self._goodput.goodput(self._duration)

    # ------------------------------------------------------------------ #
    # session / SLO-class columns (ServingTrace surface)
    # ------------------------------------------------------------------ #
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-bearing requests whose prefix was resident."""
        if self._prefix_bearing == 0:
            return 0.0
        return self._prefix_hits / self._prefix_bearing

    @property
    def num_preemptions(self) -> int:
        """Total preemptions suffered across all observed requests."""
        return self._preemptions

    @property
    def p99_preemption_latency(self) -> float:
        """P² estimate of the P99 preemptor queueing delay (0.0 when
        nothing preempted, or when sketches are disabled)."""
        if self._preempt_wait is None or self._preempt_wait.count == 0:
            return 0.0
        return self._preempt_wait.value

    @property
    def prefill_chunks_per_request(self) -> float:
        """Mean prefill chunks per request — exact, like the token totals."""
        if self._completed == 0:
            return 0.0
        return self._prefill_chunks / self._completed

    def per_class_summary(self, class_slos: dict | None = None) -> dict:
        """Per-SLO-class breakdown with ``ServingTrace``'s keys.

        Like :meth:`goodput`, per-class SLO compliance was judged as
        records streamed by, so ``class_slos`` must either be
        ``None``/empty (unconstrained goodput — always answerable, it is
        just per-class throughput) or match the mapping this trace was
        built with.
        """
        requested = normalize_class_slos(class_slos)
        unconstrained = not requested
        if not unconstrained and requested != self.class_slos:
            raise ConfigurationError(
                f"streaming per-class goodput was accumulated for class "
                f"SLOs {self.class_slos!r}; {requested!r} would need the "
                f"retained records (record_mode='full')"
            )
        duration = self._duration
        out = {}
        for name in sorted(self._classes):
            totals = self._classes[name]
            if unconstrained:
                goodput = totals.tokens / duration if duration > 0 else 0.0
            else:
                goodput = totals.goodput.goodput(duration)
            out[name] = {
                "num_requests": totals.count,
                "generated_tokens": totals.tokens,
                "goodput_tokens_per_s": goodput,
                "mean_ttft_s": totals.ttft_total / totals.count,
                "mean_queueing_delay_s": totals.queueing_total / totals.count,
            }
        return out

    def summary(self) -> dict:
        """Flat summary with the same keys as ``ServingTrace.summary()``."""
        ttft = self.ttft_percentiles() if self._ttft is not None else {}
        tpot = self.tpot_percentiles() if self._tpot is not None else {}
        latency = (self.latency_percentiles()
                   if self._latency is not None else {})
        return {
            "system": self.system,
            "model": self.model,
            "num_requests": self.num_requests,
            "generated_tokens": self.generated_tokens,
            "duration_s": self.duration,
            "throughput_tokens_per_s": self.throughput,
            "mean_queueing_delay_s": self.mean_queueing_delay,
            "p50_ttft_s": ttft.get(50.0, 0.0),
            "p90_ttft_s": ttft.get(90.0, 0.0),
            "p99_ttft_s": ttft.get(99.0, 0.0),
            "p50_tpot_s": tpot.get(50.0, 0.0),
            "p99_tpot_s": tpot.get(99.0, 0.0),
            "p50_latency_s": latency.get(50.0, 0.0),
            "p99_latency_s": latency.get(99.0, 0.0),
            "prefix_hit_rate": self.prefix_hit_rate,
            "num_preemptions": self.num_preemptions,
            "p99_preemption_latency_s": self.p99_preemption_latency,
            "prefill_chunks_per_request": self.prefill_chunks_per_request,
            "num_failed": self.num_failed,
            "num_shed": self.num_shed,
            "num_retries": self.num_retries,
        }
