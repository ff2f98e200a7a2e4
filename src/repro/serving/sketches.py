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
* :class:`StreamingMean` — an exact running count/mean;
* :class:`StreamingTrace` — the ``record_mode="streaming"`` form of
  :class:`~repro.serving.trace.ServingTrace`: the same summary surface
  (``num_requests``, ``duration``, ``throughput``, ``*_percentiles``,
  ``goodput``, ``summary``), no retained records.

Exactness contract: counts, token totals, duration, throughput, mean
delays, and goodput are *exact*: both record modes read them from one
:class:`~repro.serving.trace.TraceTotals` fold, so a streaming trace and a
full trace that fold the same records in the same order agree bit for bit.
Percentiles are P² *estimates* — exact for traces of fewer than five
requests, approximate beyond that — so comparisons against retained traces
belong inside sketch error bounds (see ``tests/test_sketches.py`` and the
equivalence tests in ``tests/test_serving_events.py``).

Because SLO compliance must be judged the moment a record is observed (the
record is then gone), a streaming trace fixes its goodput SLOs at
construction; :meth:`StreamingTrace.goodput` answers only for those SLOs
(or for the unconstrained case, which needs no per-record state).
"""

from __future__ import annotations

import bisect
import math

from repro._common import ConfigurationError
from repro.evaluation.metrics import percentiles
from repro.serving.trace import RequestRecord, ServingTrace, TraceTotals

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
    observations the exact values are kept and the quantile comes from
    :func:`repro.evaluation.metrics.percentiles`, the exact kernel the
    retained traces use (equal to :func:`numpy.percentile` bit for bit).
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
        self.fold((value,))

    def fold(self, values) -> None:
        """Observe every value of ``values`` in order, in one pass.

        The P² update runs with the markers, positions and desired
        positions held in local variables for the whole batch and written
        back once, so folding in chunks leaves exactly the state observing
        value by value would.  Every value is validated before any is
        folded, so a NaN anywhere leaves the estimator unchanged.
        """
        values = [float(value) for value in values]
        if any(math.isnan(value) for value in values):
            # NaN poisons every marker comparison silently (all orderings
            # are False), so the sketch would drift without any error —
            # reject it at the door instead.
            raise ConfigurationError(_NAN_MESSAGE)
        self._fold(values)

    def _fold(self, values: list[float]) -> None:
        """:meth:`fold` over already-validated floats."""
        if self._positions is None:
            # Warm-up: the first five values are kept exactly.
            markers = self._markers
            taken = min(5 - len(markers), len(values))
            for value in values[:taken]:
                bisect.insort(markers, value)
            self.count += taken
            if len(markers) < 5:
                return
            q = self.quantile
            self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                             3.0 + 2.0 * q, 5.0]
            values = values[taken:]
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

    @property
    def value(self) -> float:
        """Current estimate of the tracked quantile."""
        if self.count == 0:
            raise ConfigurationError(
                "the quantile of an empty stream is undefined"
            )
        if self._positions is None:
            # Fewer than five observations: exact, as a retained trace.
            rank = self.quantile * 100.0
            return percentiles(self._markers, (rank,))[rank]
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


class StreamingTrace(ServingTrace):
    """Bounded-memory stand-in for :class:`~repro.serving.trace.ServingTrace`.

    Selected by ``record_mode="streaming"`` on
    :meth:`~repro.serving.engine.ContinuousBatchingEngine.serve` and
    :meth:`~repro.cluster.group.ReplicaGroup.serve`.  It is the same summary
    over the same :class:`~repro.serving.trace.TraceTotals` fold, made as
    each record is observed; only three things differ from full mode:

    * no records are retained (``records`` is ``None``): anything that
      needs per-request records needs ``record_mode="full"``;
    * percentiles, :attr:`p99_preemption_latency` included, are P²
      sketches, so memory does not grow with trace length;
    * goodput can only be judged against the SLOs fixed at construction,
      since each record is gone once folded.

    ``quantiles`` are the percentile ranks the sketches track; at least
    one is needed.
    """

    def __init__(self, system: str, model: str, metadata: dict | None = None,
                 quantiles=DEFAULT_QUANTILES,
                 ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None,
                 class_slos: dict | None = None) -> None:
        super().__init__(system, model, records=None,
                         metadata=dict(metadata or {}),
                         ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s,
                         class_slos=class_slos)
        self._folded = TraceTotals(ttft_slo_s, tpot_slo_s, self.class_slos)
        quantiles = tuple(quantiles)
        self._banks = {figure: StreamingPercentiles(quantiles)
                       for figure in ("ttft", "tpot", "e2e_latency")}
        self._preempt_wait = P2Quantile(0.99)

    def observe(self, record: RequestRecord) -> None:
        """Fold one terminated-request record into the running summary
        and its derived figures into the sketches."""
        figures = self._folded.fold(record)
        if figures is None:
            return
        ttft, tpot, latency, queueing = figures
        banks = self._banks
        banks["ttft"].observe(ttft)
        banks["tpot"].observe(tpot)
        banks["e2e_latency"].observe(latency)
        if record.preempting:
            self._preempt_wait.observe(queueing)

    def extend_sorted(self, records) -> None:
        """Fold ``records``: no records are kept, so none are reordered."""
        for record in records:
            self.observe(record)

    def _fold(self, ttft_slo_s, tpot_slo_s, class_slos) -> TraceTotals:
        """A fold at SLOs other than the built ones: impossible, since
        each record is gone once folded."""
        built = (self.ttft_slo_s, self.tpot_slo_s, self.class_slos)
        raise ConfigurationError(
            f"streaming goodput was accumulated for SLOs (ttft, tpot, "
            f"class) {built!r}; {(ttft_slo_s, tpot_slo_s, class_slos)!r} "
            f"would need the retained records (record_mode='full')"
        )

    def _percentiles(self, figure: str, qs) -> dict[float, float]:
        if self._folded.completed == 0:
            return {}
        bank = self._banks[figure]
        values = bank.values()
        missing = [q for q in qs if float(q) not in values]
        if missing:
            raise ConfigurationError(
                f"streaming trace tracks percentiles {list(bank.qs)}; "
                f"{missing} were not configured at construction"
            )
        return {float(q): values[float(q)] for q in qs}

    @property
    def p99_preemption_latency(self) -> float:
        """P² estimate of the P99 preemptor queueing delay (0.0 when
        nothing preempted)."""
        if self._preempt_wait.count == 0:
            return 0.0
        return self._preempt_wait.value
