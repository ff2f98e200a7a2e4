"""Per-request records and aggregate traces for the serving layer.

Follows the idioms of :mod:`repro.systems.trace`: frozen per-event records
collected into a mutable trace whose properties derive the figures-of-merit.
Where :class:`~repro.systems.trace.InferenceTrace` summarises one offline
``(b, s, n)`` run (the paper's Section VI protocol), :class:`ServingTrace`
summarises an online run of many requests, using the standard LLM-serving
latency definitions:

* **TTFT** (time to first token) — arrival to first generated token,
  including queueing and prefill;
* **TPOT** (time per output token) — mean inter-token gap after the first
  token;
* **end-to-end latency** — arrival to final token;
* **goodput** — generated tokens per second from requests that met their
  TTFT/TPOT SLOs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro._common import ConfigurationError
from repro.evaluation.metrics import percentiles
from repro.workloads.arrivals import SLO_CLASSES

#: Terminal states a request can reach.  Every arrival terminates as
#: exactly one record in exactly one of these states; only ``completed``
#: requests generated tokens, so latency/throughput/goodput metrics are
#: computed over completed records while ``failed`` (retry budget
#: exhausted under replica failures) and ``shed`` (dropped by degraded-mode
#: load shedding) records carry the termination instant for availability
#: accounting.  Fault-free serves only ever produce ``completed`` records.
REQUEST_STATUSES = ("completed", "failed", "shed")


def normalize_class_slos(class_slos: dict | None) -> dict:
    """Canonicalise a per-class SLO mapping to ``{name: (ttft, tpot)}``.

    Accepts ``{name: (ttft_slo_s, tpot_slo_s)}`` tuples or
    ``{name: {"ttft_slo_s": ..., "tpot_slo_s": ...}}`` dicts (missing or
    ``None`` entries leave that dimension unconstrained).  ``None`` maps to
    ``{}`` — no class is SLO-constrained.
    """
    if not class_slos:
        return {}
    normalized: dict[str, tuple[float | None, float | None]] = {}
    for name, slos in class_slos.items():
        if name not in SLO_CLASSES:
            raise ConfigurationError(
                f"unknown slo_class {name!r} in class SLOs; "
                f"known: {list(SLO_CLASSES)}"
            )
        if isinstance(slos, dict):
            unknown = set(slos) - {"ttft_slo_s", "tpot_slo_s"}
            if unknown:
                raise ConfigurationError(
                    f"class {name!r}: unknown SLO keys {sorted(unknown)}; "
                    f"known: ['tpot_slo_s', 'ttft_slo_s']"
                )
            normalized[name] = (slos.get("ttft_slo_s"), slos.get("tpot_slo_s"))
        else:
            ttft, tpot = slos
            normalized[name] = (ttft, tpot)
    return normalized


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle timestamps of one completed request.

    ``slo_class``/``prefix_len``/``prefix_hit``/``preemptions`` carry the
    session-workload facts through to trace summaries: the request's
    priority tier, how many of its prompt tokens were a shared session
    prefix, whether that prefix was resident at admission (so only the
    suffix KV was charged), and how many times the request was preempted
    by higher-priority arrivals before completing.  ``preempting`` marks a
    request whose own admission evicted running lower-priority work — its
    queueing delay is the *preemption latency* the chunked-prefill budget
    bounds — and ``prefill_chunks`` counts the prefill chunks it
    participated in (0 when chunking was disabled).

    Under fault injection (:mod:`repro.faults`) ``status`` records the
    terminal state (:data:`REQUEST_STATUSES`) and ``retries`` how many
    times the request was re-dispatched after a replica failure; for
    ``failed``/``shed`` records the admission/first-token/completion
    timestamps all equal the termination instant.
    """

    request_id: int
    arrival_time: float
    admission_time: float
    first_token_time: float
    completion_time: float
    input_len: int
    output_len: int
    slo_class: str = SLO_CLASSES[0]
    prefix_len: int = 0
    prefix_hit: bool = False
    preemptions: int = 0
    preempting: bool = False
    prefill_chunks: int = 0
    status: str = "completed"
    retries: int = 0

    def __post_init__(self) -> None:
        if not (self.arrival_time <= self.admission_time
                <= self.first_token_time <= self.completion_time):
            raise ConfigurationError(
                f"request {self.request_id}: timestamps must be ordered "
                f"arrival <= admission <= first token <= completion"
            )
        if self.slo_class not in SLO_CLASSES:
            raise ConfigurationError(
                f"request {self.request_id}: unknown slo_class "
                f"{self.slo_class!r}; known: {list(SLO_CLASSES)}"
            )
        if self.prefix_len < 0 or self.preemptions < 0:
            raise ConfigurationError(
                f"request {self.request_id}: prefix_len and preemptions "
                f"must be non-negative"
            )
        if self.prefill_chunks < 0:
            raise ConfigurationError(
                f"request {self.request_id}: prefill_chunks must be "
                f"non-negative"
            )
        if self.status not in REQUEST_STATUSES:
            raise ConfigurationError(
                f"request {self.request_id}: unknown status "
                f"{self.status!r}; known: {list(REQUEST_STATUSES)}"
            )
        if self.retries < 0:
            raise ConfigurationError(
                f"request {self.request_id}: retries must be non-negative"
            )

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for admission into the running batch."""
        return self.admission_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token (queueing + prefill + first decode step)."""
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first one.

        Single-token outputs have no inter-token gap; their TPOT is 0 by
        convention (they can only violate a TTFT SLO, never a TPOT one).
        """
        if self.output_len <= 1:
            return 0.0
        return ((self.completion_time - self.first_token_time)
                / (self.output_len - 1))

    @property
    def e2e_latency(self) -> float:
        return self.completion_time - self.arrival_time


class StreamingGoodput:
    """Tokens from SLO-compliant requests, folded record by record.

    Mirrors :func:`repro.evaluation.metrics.serving_goodput` (a request is
    compliant when ``ttft <= ttft_slo_s`` and ``tpot <= tpot_slo_s``; a
    ``None`` SLO leaves that dimension unconstrained) — but the judgment is
    made when each record is observed, so the SLOs are fixed up front.
    Every trace goodput, trace-wide or per class, in either record mode,
    is judged here.
    """

    __slots__ = ("ttft_slo_s", "tpot_slo_s", "good_tokens")

    def __init__(self, ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None) -> None:
        self.ttft_slo_s = ttft_slo_s
        self.tpot_slo_s = tpot_slo_s
        self.good_tokens = 0

    def observe(self, record: RequestRecord) -> None:
        self.observe_latencies(record.ttft, record.tpot, record.output_len)

    def observe_latencies(self, ttft: float, tpot: float,
                          output_len: int) -> None:
        """:meth:`observe` from a record's already-derived figures."""
        if self.ttft_slo_s is not None and ttft > self.ttft_slo_s:
            return
        if self.tpot_slo_s is not None and tpot > self.tpot_slo_s:
            return
        self.good_tokens += output_len

    def goodput(self, duration_s: float) -> float:
        if duration_s <= 0:
            return 0.0
        return self.good_tokens / duration_s


class TraceTotals:
    """Every exact figure of a trace, folded one record at a time.

    Both record modes read their counts, token totals, makespan, mean
    delays, goodput, per-class tables, prefix hits, preemptions and chunks
    from one of these; only :meth:`fold` computes them.  A streaming trace
    folds each record as it is observed; a full trace folds its retained
    records in their final order.  Float totals are left-to-right ``+=``
    sums, so two traces that fold the same records in the same order agree
    bit for bit.

    ``classes`` holds one accumulator per SLO class seen, judged against
    that class's entry of ``class_slos``.  A class accumulator tallies only
    the figures :meth:`ServingTrace.per_class_summary` reports
    (``completed``, ``tokens``, ``ttft_total``, ``queueing_total``,
    ``goodput``); its trace-wide fields stay zero.
    """

    __slots__ = ("class_slos", "count", "completed", "failed", "shed",
                 "retries", "tokens", "duration", "ttft_total",
                 "queueing_total", "goodput", "classes", "prefix_bearing",
                 "prefix_hits", "preemptions", "prefill_chunks")

    def __init__(self, ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None,
                 class_slos: dict | None = None) -> None:
        self.class_slos = class_slos or {}
        self.count = self.completed = self.failed = self.shed = 0
        self.retries = self.tokens = 0
        self.duration = self.ttft_total = self.queueing_total = 0.0
        self.goodput = StreamingGoodput(ttft_slo_s, tpot_slo_s)
        self.classes: dict[str, TraceTotals] = {}
        self.prefix_bearing = self.prefix_hits = 0
        self.preemptions = self.prefill_chunks = 0

    def fold(self, record: RequestRecord) \
            -> tuple[float, float, float, float] | None:
        """Fold one terminated request; return its ``(ttft, tpot,
        e2e_latency, queueing_delay)`` when it completed, else ``None``.

        ``failed``/``shed`` records (fault injection only) extend the
        makespan and the resilience counters but no latency or token
        figure: they never generated tokens.  The derived figures are
        computed once, with the float expressions of the
        :class:`RequestRecord` properties.
        """
        self.count += 1
        self.retries += record.retries
        completion = record.completion_time
        if completion > self.duration:
            self.duration = completion
        status = record.status
        if status != "completed":
            if status == "failed":
                self.failed += 1
            else:
                self.shed += 1
            return None
        arrival = record.arrival_time
        first = record.first_token_time
        output_len = record.output_len
        queueing = record.admission_time - arrival
        ttft = first - arrival
        tpot = ((completion - first) / (output_len - 1)
                if output_len > 1 else 0.0)
        self._tally(output_len, ttft, tpot, queueing)
        slo_class = record.slo_class
        totals = self.classes.get(slo_class)
        if totals is None:
            totals = self.classes[slo_class] = TraceTotals(
                *self.class_slos.get(slo_class, (None, None)))
        totals._tally(output_len, ttft, tpot, queueing)
        if record.prefix_len > 0:
            self.prefix_bearing += 1
            self.prefix_hits += record.prefix_hit
        self.preemptions += record.preemptions
        self.prefill_chunks += record.prefill_chunks
        return ttft, tpot, completion - arrival, queueing

    def _tally(self, output_len: int, ttft: float, tpot: float,
               queueing: float) -> None:
        """The completed-request figures both trace and class keep."""
        self.completed += 1
        self.tokens += output_len
        self.ttft_total += ttft
        self.queueing_total += queueing
        self.goodput.observe_latencies(ttft, tpot, output_len)


@dataclass
class ServingTrace:
    """End-to-end record of one simulated serving run.

    Every exact figure (counts, tokens, makespan, means, goodput, the
    per-class table) is read from one :class:`TraceTotals` fold of
    ``records``, made on the first read in the records' final order and
    kept.  Records reach the trace through :meth:`observe` or
    :meth:`extend_sorted`, which drop the kept fold; ``records`` itself is
    not to be mutated once a figure has been read.  The fold judges
    goodput against ``ttft_slo_s``/``tpot_slo_s`` and ``class_slos`` (the
    serve's SLOs); :meth:`goodput` and :meth:`per_class_summary` at other
    SLOs make one fresh fold each.

    :class:`~repro.serving.sketches.StreamingTrace` is the same summary
    over a fold made as records arrive, with no records retained.
    """

    system: str
    model: str
    records: list[RequestRecord] | None = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    ttft_slo_s: float | None = None
    tpot_slo_s: float | None = None
    class_slos: dict | None = None
    _folded: TraceTotals | None = field(default=None, init=False,
                                        repr=False, compare=False)

    def __post_init__(self) -> None:
        self.class_slos = normalize_class_slos(self.class_slos)

    def observe(self, record: RequestRecord) -> None:
        """Record sink: retain ``record``.  The serving engine writes
        completions through ``observe`` so either record mode can sit
        behind it."""
        self.records.append(record)
        self._folded = None

    def extend_sorted(self, records) -> None:
        """Add ``records`` and put every record in ``(completion_time,
        request_id)`` order, the final order summaries fold (a
        fault-injected serve adds its failed and shed records this way)."""
        self.records.extend(records)
        self.records.sort(key=lambda r: (r.completion_time, r.request_id))
        self._folded = None

    # ------------------------------------------------------------------ #
    # the fold
    # ------------------------------------------------------------------ #
    def _fold(self, ttft_slo_s, tpot_slo_s, class_slos) -> TraceTotals:
        totals = TraceTotals(ttft_slo_s, tpot_slo_s, class_slos)
        for record in self.records:
            totals.fold(record)
        return totals

    @property
    def _totals(self) -> TraceTotals:
        if self._folded is None:
            self._folded = self._fold(self.ttft_slo_s, self.tpot_slo_s,
                                      self.class_slos)
        return self._folded

    def _totals_for(self, ttft_slo_s, tpot_slo_s,
                    class_slos: dict) -> TraceTotals:
        """Totals whose goodput is judged against the given SLOs."""
        if (ttft_slo_s, tpot_slo_s, class_slos) == \
                (self.ttft_slo_s, self.tpot_slo_s, self.class_slos):
            return self._totals
        return self._fold(ttft_slo_s, tpot_slo_s, class_slos)

    # ------------------------------------------------------------------ #
    # aggregate metrics
    # ------------------------------------------------------------------ #
    @property
    def num_requests(self) -> int:
        """Every terminated request, whatever its status."""
        return self._totals.count

    @property
    def completed_records(self) -> list[RequestRecord]:
        """Records that actually generated tokens.

        Latency/token metrics are computed over these; ``failed``/``shed``
        records (fault injection only) would otherwise credit tokens that
        were never produced.  Fault-free traces are all-completed, so every
        metric below is unchanged by the filter.
        """
        return [r for r in self.records if r.status == "completed"]

    @property
    def duration(self) -> float:
        """Makespan: serve start (t=0) to the last request's termination."""
        return self._totals.duration

    @property
    def generated_tokens(self) -> int:
        return self._totals.tokens

    @property
    def throughput(self) -> float:
        """Generated tokens per second over the whole run (0 when empty)."""
        totals = self._totals
        if totals.duration <= 0:
            return 0.0
        return totals.tokens / totals.duration

    def _percentiles(self, figure: str, qs) -> dict[float, float]:
        """Exact percentiles of one :class:`RequestRecord` figure over the
        completed records (``{}`` when none completed)."""
        records = self.completed_records
        if not records:
            return {}
        return percentiles(map(attrgetter(figure), records), qs)

    def ttft_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        return self._percentiles("ttft", qs)

    def tpot_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        return self._percentiles("tpot", qs)

    def latency_percentiles(self, qs=(50, 90, 99)) -> dict[float, float]:
        return self._percentiles("e2e_latency", qs)

    def goodput(self, ttft_slo_s: float | None = None,
                tpot_slo_s: float | None = None) -> float:
        """SLO-conditioned token goodput (tokens per second); with no SLO
        it equals :attr:`throughput`."""
        if ttft_slo_s is None and tpot_slo_s is None:
            return self.throughput
        totals = self._totals_for(ttft_slo_s, tpot_slo_s, self.class_slos)
        return totals.goodput.goodput(totals.duration)

    @property
    def mean_queueing_delay(self) -> float:
        totals = self._totals
        if totals.completed == 0:
            return 0.0
        return totals.queueing_total / totals.completed

    # ------------------------------------------------------------------ #
    # resilience accounting (fault injection; all zero without faults)
    # ------------------------------------------------------------------ #
    @property
    def num_failed(self) -> int:
        """Requests that exhausted their retry budget under failures."""
        return self._totals.failed

    @property
    def num_shed(self) -> int:
        """Requests dropped by degraded-mode load shedding."""
        return self._totals.shed

    @property
    def num_retries(self) -> int:
        """Total re-dispatches across all terminated requests."""
        return self._totals.retries

    # ------------------------------------------------------------------ #
    # session / SLO-class columns
    # ------------------------------------------------------------------ #
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-bearing requests whose prefix was resident.

        Only requests that declared a shared prefix (``prefix_len > 0``)
        count; a trace with no session turns reports 0.0.
        """
        totals = self._totals
        if totals.prefix_bearing == 0:
            return 0.0
        return totals.prefix_hits / totals.prefix_bearing

    @property
    def num_preemptions(self) -> int:
        """Total preemptions suffered across all completed requests."""
        return self._totals.preemptions

    @property
    def preemption_waits(self) -> list[float]:
        """Queueing delays of requests whose admission preempted running
        work — the latency a higher-priority arrival paid before it could
        evict its way into the batch."""
        return [record.queueing_delay for record in self.completed_records
                if record.preempting]

    @property
    def p99_preemption_latency(self) -> float:
        """P99 of :attr:`preemption_waits` (0.0 when nothing preempted).

        With chunked prefill enabled this is the column the chunk budget
        bounds: preemption points recur at least once per chunk, so no
        preemptor waits longer than one chunk's priced duration plus a
        decode step.
        """
        waits = self.preemption_waits
        if not waits:
            return 0.0
        return percentiles(waits, (99,))[99.0]

    @property
    def prefill_chunks_per_request(self) -> float:
        """Mean prefill chunks per request (0.0 when chunking is off)."""
        totals = self._totals
        if totals.completed == 0:
            return 0.0
        return totals.prefill_chunks / totals.completed

    def per_class_summary(self, class_slos: dict | None = None) -> dict:
        """Per-SLO-class breakdown: ``{slo_class: {metric: value}}``.

        One entry per class present in the records.  ``class_slos`` maps
        class names to their goodput SLOs (any shape
        :func:`normalize_class_slos` accepts); classes without an entry
        report unconstrained goodput (equal to their token throughput).
        Goodput divides by the whole trace's duration, so class columns sum
        to the trace totals.
        """
        requested = normalize_class_slos(class_slos)
        totals = (self._totals_for(self.ttft_slo_s, self.tpot_slo_s,
                                   requested)
                  if requested else self._totals)
        duration = totals.duration
        out = {}
        for name in sorted(totals.classes):
            group = totals.classes[name]
            if requested:
                goodput = group.goodput.goodput(duration)
            else:
                goodput = group.tokens / duration if duration > 0 else 0.0
            out[name] = {
                "num_requests": group.completed,
                "generated_tokens": group.tokens,
                "goodput_tokens_per_s": goodput,
                "mean_ttft_s": group.ttft_total / group.completed,
                "mean_queueing_delay_s": (group.queueing_total
                                          / group.completed),
            }
        return out

    def summary(self) -> dict:
        """Flat summary dictionary used by experiment reports."""
        ttft = self.ttft_percentiles()
        tpot = self.tpot_percentiles()
        latency = self.latency_percentiles()
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
