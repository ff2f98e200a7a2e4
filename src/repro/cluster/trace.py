"""Cluster-level serving trace: per-replica traces merged into one view.

A :class:`ClusterTrace` *is a* :class:`~repro.serving.trace.ServingTrace`
over the union of every replica's request records (and a
:class:`StreamingClusterTrace` a :class:`StreamingTrace` over every
replica's completions), so all the percentile, throughput, and goodput
machinery applies unchanged at cluster scope.  The per-replica traces are
kept intact (and summarised in ``metadata["replicas"]``) so imbalance
between replicas stays visible after the merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.sketches import DEFAULT_QUANTILES, StreamingTrace
from repro.serving.trace import ServingTrace


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


class _ReplicaView:
    """What a cluster trace adds to its record mode's summary: the
    per-replica traces it was built from."""

    replica_traces: list

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
    """One serving run of a whole replica group."""

    replica_traces: list[ServingTrace] = field(default_factory=list)

    @classmethod
    def merge(cls, traces: list[ServingTrace], system: str,
              model: str, metadata: dict | None = None,
              ttft_slo_s: float | None = None,
              tpot_slo_s: float | None = None,
              class_slos: dict | None = None) -> "ClusterTrace":
        """Merge per-replica traces into one cluster-level trace.

        Records are ordered by completion time with a *stable* sort, so a
        single-replica merge preserves the engine's record order exactly —
        the degenerate cluster is bit-identical to serving directly.
        The SLOs are the serve's, which the merged trace's goodput is
        judged against by default.
        """
        records = [record for trace in traces for record in trace.records]
        records.sort(key=lambda record: record.completion_time)
        merged = cls(system=system, model=model, records=records,
                     metadata=dict(metadata or {}), replica_traces=traces,
                     ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s,
                     class_slos=class_slos)
        describe_replicas(merged.metadata, traces)
        return merged


class StreamingClusterTrace(_ReplicaView, StreamingTrace):
    """Cluster-level streaming trace (``record_mode="streaming"``).

    The bounded-memory counterpart of :class:`ClusterTrace`: cluster-wide
    metrics are folded as completions stream out of the merged event loop.
    The fold runs in event-processing order, not completion-time order, and
    float sums depend on their order, so its float means can differ from
    the full-mode trace's in the last bits (integer counts and totals do
    not); P² percentile estimates are deterministic given the event order.
    The per-replica sinks are lightweight :class:`StreamingTrace` objects
    with percentile sketches disabled — their summaries in
    ``metadata["replicas"]`` need only counts, totals, and delays, exactly
    the fields :func:`describe_replicas` reports.
    """

    def __init__(self, system: str, model: str, metadata: dict | None = None,
                 quantiles=DEFAULT_QUANTILES,
                 ttft_slo_s: float | None = None,
                 tpot_slo_s: float | None = None,
                 class_slos: dict | None = None,
                 replica_traces: list[StreamingTrace] | None = None) -> None:
        super().__init__(system, model, metadata=metadata,
                         quantiles=quantiles, ttft_slo_s=ttft_slo_s,
                         tpot_slo_s=tpot_slo_s, class_slos=class_slos)
        self.replica_traces: list[StreamingTrace] = list(replica_traces or [])
