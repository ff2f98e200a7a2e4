"""Cluster-level serving trace: every replica's records in one view.

A :class:`ClusterTrace` *is a* :class:`~repro.serving.trace.ServingTrace`
over the union of every replica's request records (and a
:class:`StreamingClusterTrace` a :class:`StreamingTrace` over every
replica's completions), so all the percentile, throughput, and goodput
machinery applies unchanged at cluster scope.  A replica group builds the
cluster trace of its record mode before it drives.  Each replica run
writes into a light :class:`ReplicaTrace` view, which tallies four
figures and hands every record on to the cluster trace as it is produced,
so each record is folded once, by the cluster trace.  The views are
summarised in ``metadata["replicas"]``, so imbalance between replicas
stays visible at cluster scope.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.serving.sketches import StreamingTrace
from repro.serving.trace import RequestRecord, ServingTrace


def describe_replicas(metadata: dict, traces) -> None:
    """Write ``metadata["replicas"]`` (counts, totals and delays per replica)
    and default ``metadata["kv_budget_tokens"]`` to the replicas' sum."""
    metadata["replicas"] = [
        {"replica": index, "num_requests": trace.num_requests,
         "generated_tokens": trace.generated_tokens,
         "duration_s": trace.duration,
         "mean_queueing_delay_s": trace.mean_queueing_delay,
         "kv_budget_tokens": trace.metadata.get("kv_budget_tokens", 0),
         "peak_reserved_tokens": trace.metadata.get(
             "peak_reserved_tokens", 0),
         "comm_time_share": trace.metadata.get("comm_time_share", 0.0)}
        for index, trace in enumerate(traces)
    ]
    metadata.setdefault(
        "kv_budget_tokens",
        sum(trace.metadata.get("kv_budget_tokens", 0) for trace in traces))


class ReplicaTrace:
    """One replica's share of a group serve: a light view, not a trace.

    Its run's ``finalize`` fills ``metadata``.  :meth:`observe` keeps the
    record (full mode only; ``records`` is ``None`` when streaming),
    tallies the four figures :func:`describe_replicas` reports, then hands
    the record to the cluster trace, the only place it is folded.  The
    tally runs in delivery order, not in the cluster trace's final order:
    a fault-injected full trace re-sorts records that share a completion
    time, and a float sum depends on its order.  Runs deliver completed
    records only, so failed and shed records enter no tally.
    """

    __slots__ = ("metadata", "records", "num_requests", "generated_tokens",
                 "duration", "_queueing_total", "_sink")

    def __init__(self, metadata: dict, sink, keep_records: bool) -> None:
        self.metadata = metadata
        self.records: list[RequestRecord] | None = (
            [] if keep_records else None)
        self.num_requests = self.generated_tokens = 0
        self.duration = self._queueing_total = 0.0
        self._sink = sink

    def observe(self, record: RequestRecord) -> None:
        if self.records is not None:
            self.records.append(record)
        self.num_requests += 1
        self.generated_tokens += record.output_len
        completion = record.completion_time
        if completion > self.duration:
            self.duration = completion
        self._queueing_total += record.admission_time - record.arrival_time
        self._sink(record)

    @property
    def mean_queueing_delay(self) -> float:
        if self.num_requests == 0:
            return 0.0
        return self._queueing_total / self.num_requests


class _ReplicaView:
    """What a cluster trace adds to its record mode's summary: the
    per-replica views its runs wrote into."""

    replica_traces: list[ReplicaTrace]

    @property
    def num_replicas(self) -> int:
        return len(self.replica_traces)

    @property
    def tokens_imbalance(self) -> float:
        """Max/mean ratio of generated tokens across replicas (1.0 = even).

        Round-robin on heavy-tailed lengths drifts well above 1; load-aware
        policies keep it near 1.  Empty replicas count toward the mean, so
        a policy that starves a replica is penalized, not hidden.
        """
        tokens = [trace.generated_tokens for trace in self.replica_traces]
        if not tokens or sum(tokens) == 0:
            return 1.0
        return max(tokens) / (sum(tokens) / len(tokens))

    def summary(self) -> dict:
        """Cluster summary: the serving summary plus replica-level facts."""
        data = super().summary()
        data["num_replicas"] = self.num_replicas
        data["tokens_imbalance"] = self.tokens_imbalance
        return data


@dataclass
class ClusterTrace(_ReplicaView, ServingTrace):
    """One serving run of a whole replica group (``record_mode="full"``).

    Every replica run forwards its records here as it produces them.  A
    run whose epoch was priced late (it blocked awaiting its next queue
    head) delivers records out of completion order, so :meth:`observe`
    inserts each after every record that completed no later: records
    stay sorted by completion time (equal times keep delivery order), and
    a single replica's records keep the engine's order exactly.
    """

    replica_traces: list[ReplicaTrace] = field(default_factory=list)

    def observe(self, record: RequestRecord) -> None:
        records = self.records
        if records and record.completion_time < records[-1].completion_time:
            insort(records, record, key=lambda r: r.completion_time)
        else:
            records.append(record)
        self._folded = None


class StreamingClusterTrace(_ReplicaView, StreamingTrace):
    """Cluster-level streaming trace (``record_mode="streaming"``).

    The bounded-memory counterpart of :class:`ClusterTrace`: cluster-wide
    metrics are folded as completions stream out of the merged event loop.
    The fold runs in event-processing order, not completion-time order, and
    float sums depend on their order, so its float means can differ from
    the full-mode trace's in the last bits (integer counts and totals do
    not); P² percentile estimates are deterministic given the event order.
    Its :class:`ReplicaTrace` views keep no records; their tallies equal
    full mode's bit for bit, since both modes tally in delivery order.
    """
