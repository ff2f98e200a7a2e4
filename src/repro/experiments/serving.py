"""Online serving experiment: ALISA vs. vLLM vs. FlexGen under load.

Extends the paper's offline throughput protocol (Section VI, Figure 9) to
online continuous batching: requests arrive over time (Poisson or bursty),
are admitted FCFS against the GPU KV budget, and report the tail-latency and
goodput metrics a serving deployment cares about.  The Figure 9 crossover
reappears as an *admission* effect — ALISA's INT8 KV cache and sparse
attention let it keep more requests in flight, so its advantage grows with
the arrival rate exactly as it grows with batch size offline.

The sweep also carries a **parallelism axis**: each entry of ``parallelism``
(``"none"``, ``"tp-2"``, ``"pp-4"``, ...) builds an ``xN`` node from the
model's single-GPU preset at equal per-GPU memory and serves the same
arrival traces through the sharded engine, so one invocation compares
1/2/4-GPU nodes under tensor and pipeline parallelism.  Per-configuration
rows report the communication-time share and peak per-shard occupancy next
to the latency percentiles.

On top of that sits the **cluster axis**: ``cluster`` entries
(``"tp-4"``, ``"2x(tp-2)"``, ``"4x(tp-1)"``) describe data-parallel
replica groups (:mod:`repro.cluster`) — N sharded replicas behind a
load-balancing router — and one invocation compares scale-up against
scale-out at equal total GPU count, per routing policy.

Both axes run through one sweep body: a parallelism entry is served as
a one-replica cluster (``"tp-2"`` is the layout ``1x(tp-2)``), and only
a row's label and load columns depend on the axis.
"""

from __future__ import annotations

from functools import partial

from repro._common import ConfigurationError
from repro.baselines import BASELINE_SYSTEMS
from repro.cluster import ClusterLayout, ReplicaGroup
from repro.core.engine import AlisaSystem
from repro.core.schedule_cache import SchedulePolicy
from repro.experiments.base import ExperimentResult, register
from repro.hardware.presets import (
    get_interconnect,
    hardware_for_model,
    validate_equal_gpu_count,
)
from repro.systems import ParallelismSpec, PricingStore
from repro.workloads.arrivals import generate_requests

#: Systems compared in the serving sweep: constructors keyed by name.
SERVING_SYSTEMS = {
    "flexgen": BASELINE_SYSTEMS["flexgen"],
    "vllm": BASELINE_SYSTEMS["vllm"],
    "alisa": lambda model, hardware: AlisaSystem(model, hardware,
                                                 kv_sparsity=0.8),
}

#: Scheduler-cache counters surfaced per result row (zero for systems
#: without an offline planning stage).
SOLVER_STAT_COLUMNS = ("exact_hits", "canonical_hits", "warm_solves",
                       "full_solves")


def max_sustained_rate(result: ExperimentResult, system: str = "alisa",
                       parallelism: str = "none",
                       max_queueing_delay_s: float = 1.0,
                       cluster: str | None = None,
                       routing: str | None = None) -> float:
    """Highest swept arrival rate a configuration sustains.

    A rate counts as *sustained* when the mean queueing delay stays below
    ``max_queueing_delay_s`` — past the capacity knee, FCFS admission makes
    the queue (and with it the mean delay) grow with every extra request,
    so this threshold cleanly separates under- from over-subscribed rates.
    Returns 0.0 when no swept rate is sustained.

    ``cluster`` (a cluster axis label, any spelling
    :meth:`~repro.cluster.ClusterLayout.parse` accepts) selects rows of a
    cluster sweep instead of the parallelism axis; ``routing`` narrows to
    one routing policy when the sweep carried several.
    """
    if cluster is not None:
        criteria = {"system": system,
                    "cluster": ClusterLayout.parse(cluster).label}
        if routing is not None:
            criteria["routing"] = routing
    else:
        criteria = {"system": system,
                    "parallelism": ParallelismSpec.parse(parallelism).label}
    rates = [row["rate_req_per_s"]
             for row in result.filter(**criteria)
             if row["mean_queueing_delay_s"] <= max_queueing_delay_s]
    return max(rates, default=0.0)


@register("serving_rate_sweep",
          "Online continuous-batching latency and goodput of ALISA vs "
          "vLLM vs FlexGen under an arrival-rate sweep")
def serving_rate_sweep(model: str = "opt-6.7b",
                       rates: tuple[float, ...] = (1.0, 4.0, 16.0),
                       num_requests: int = 24,
                       pattern: str = "poisson",
                       input_len: int | None = 256,
                       output_len: int | None = 256,
                       seed: int = 0,
                       ttft_slo_s: float = 5.0,
                       tpot_slo_s: float = 0.2,
                       exact_schedules: bool = False,
                       parallelism: tuple[str, ...] = ("none",),
                       interconnect: str = "nvlink",
                       pp_microbatches: int = 4,
                       cluster: tuple[str, ...] | None = None,
                       routing: tuple[str, ...] | str | None = None,
                       require_equal_gpus: bool = True,
                       record_mode: str = "full",
                       workload=None,
                       slo_classes: dict | None = None,
                       preemption: str | None = None,
                       prefill_chunk_tokens: int | None = None,
                       closed_loop: bool = False,
                       observers=None,
                       faults=None,
                       retry=None,
                       shedding=None) -> ExperimentResult:
    """Sweep the request arrival rate and report serving metrics.

    ``input_len``/``output_len`` of ``None`` sample ShareGPT-style
    heavy-tailed lengths instead of the fixed Alpaca-like shape.

    ``workload`` swaps the synthetic single-shot arrivals for a workload
    object carrying its own request generator — anything with
    ``with_rate(rate)`` returning a generator whose ``requests()`` yields
    the trace, i.e. a :func:`repro.workloads.sessions` multi-turn session
    trace.  Each swept rate re-derives the workload at that rate with the
    same seed, and ``input_len``/``output_len``/``pattern`` are ignored in
    favour of the workload's own shape.  Session traces light up the
    engine's prefix-reuse accounting; every row then reports a non-trivial
    ``prefix_hit_rate``.

    ``slo_classes`` (e.g. ``{"interactive": (2.0, 0.1)}``) adds one
    ``goodput_<class>_tokens_per_s`` column per configured class, computed
    against that class's own TTFT/TPOT SLOs.  ``preemption`` (``"retain"``
    or ``"recompute"``) builds every engine with priority scheduling:
    interactive arrivals may evict running batch requests at epoch
    boundaries (see ``ContinuousBatchingEngine``).

    ``prefill_chunk_tokens`` builds every engine with chunked prefill:
    prefills are split into budget-sized chunks interleaved with decode,
    bounding any preemptor's wait to one chunk's priced time (the
    ``p99_preemption_latency_s`` and ``prefill_chunks_per_request``
    columns report the effect).  ``closed_loop=True`` serves each rate
    through ``workload.closed_loop()`` — turn ``t+1`` of every session
    arrives at turn ``t``'s *simulated* completion plus think time —
    and requires a session ``workload``.

    ``parallelism`` entries (``"none"``, ``"tp-2"``, ``"pp-4"``, ...) are
    served on an ``xN`` node derived from the model's preset at equal
    per-GPU memory, joined by the named ``interconnect`` preset; every
    (system, parallelism) pair sees the same arrival traces, so rows are
    directly comparable across the axis.  Each entry is served as a
    one-replica cluster; its rows carry ``parallelism``, ``gpu_count``
    and the replica's ``peak_reserved_tokens``, ``peak_shard_occupancy``
    and ``comm_time_share``.

    ``cluster`` switches the sweep to the data-parallel axis instead:
    entries (``"tp-4"``, ``"2x(tp-2)"``, ``"4x(tp-1)"``) become
    :class:`~repro.cluster.ReplicaGroup` configurations served once per
    ``routing`` policy (``"round-robin"`` — the default, ``"jsq"``,
    ``"least-loaded"``), with the trace/router seed shared so the
    comparison is deterministic.
    ``require_equal_gpus`` (default on) rejects cluster entries that spend
    unequal total GPU counts, keeping the comparison honest; the two axes
    are mutually exclusive, and an empty one raises.  Cluster rows carry
    ``cluster``, ``num_replicas``, ``parallelism`` (per replica),
    ``gpu_count``, ``routing``, ``tokens_imbalance`` and
    ``dispatch_counts``.

    Each system is built once per parallelism/cluster entry and reused
    across the whole sweep, so ALISA's schedule caches stay warm from rate
    to rate; per-serve solver counters are reported in the ``solver_*``
    columns.  Every group reads one
    :class:`~repro.systems.pricing.PricingStore` made for this call, so
    equal-key pricing memos are shared across entries and systems, and
    no memo outlives the sweep.  ``exact_schedules=True`` makes ALISA
    re-solve with the paper's full grid search for every new epoch shape
    (byte-identical schedules, much slower at high arrival rates).

    ``record_mode="streaming"`` serves every row through bounded-memory
    streaming traces (:mod:`repro.serving.sketches`): exact counts,
    throughput, delays, and goodput; P² estimates for the latency
    percentiles.  Use it when ``num_requests`` is large enough that
    retaining per-request records would dominate memory.

    ``observers`` is a zero-argument factory returning a fresh observer
    list for every serve row (observers such as
    :class:`repro.obs.SpanTracer` are single-serve) — e.g.
    ``observers=lambda: [SpanTracer()]``.  When the factory yields a
    :class:`~repro.obs.SpanTracer` and ``slo_classes`` is set, every row
    gains the SLO-violation attribution columns (``slo_violations`` and
    the ``blame_*_s`` per-component totals over violating requests);
    without it they report zeros.  See ``docs/observability.md``.

    ``faults`` (a :class:`repro.faults.FaultSchedule`) injects the same
    replica-outage schedule into every serve row; ``retry`` and
    ``shedding`` tune the recovery path (see :mod:`repro.faults` and
    ``docs/robustness.md``).  Every row always carries the resilience
    columns (``num_failed``, ``num_shed``, ``num_retries``,
    ``availability``) — zeros and availability 1.0 on fault-free sweeps —
    so results stay rectangular across the axis.
    """
    if observers is not None and not callable(observers):
        raise ConfigurationError(
            "observers must be a zero-argument factory returning a fresh "
            "observer list per serve row (e.g. lambda: [SpanTracer()])"
        )
    result = ExperimentResult(
        "serving_rate_sweep",
        "Serving: TTFT/TPOT percentiles and goodput vs arrival rate",
    )
    base_hardware = hardware_for_model(model)
    link = get_interconnect(interconnect)
    policy = SchedulePolicy(exact=exact_schedules)
    if closed_loop and (workload is None
                        or not hasattr(workload, "closed_loop")):
        raise ConfigurationError(
            "closed_loop=True needs a session workload carrying a "
            "closed_loop() source (pass workload=sessions(...))"
        )
    scale_out = cluster is not None
    if not scale_out and routing is not None:
        raise ConfigurationError(
            "routing only applies to the cluster axis; pass "
            "cluster=(...) alongside it"
        )
    if scale_out and tuple(parallelism) != ("none",):
        raise ConfigurationError(
            "the cluster and parallelism axes are mutually exclusive; "
            "put per-replica sharding inside the cluster entries "
            "(e.g. cluster=('2x(tp-2)',))"
        )
    routing = "round-robin" if routing is None else routing
    policies = (routing,) if isinstance(routing, str) else tuple(routing)
    if not policies:
        raise ConfigurationError("routing needs at least one policy")
    axis, entries = (("cluster", cluster) if scale_out
                     else ("parallelism", parallelism))

    # A parallelism entry is a one-replica cluster: both axes serve
    # through ReplicaGroups, and only the label and load columns differ.
    layouts: dict[str, ClusterLayout] = {}
    for entry in entries:
        layout = (ClusterLayout.parse(entry, pp_microbatches=pp_microbatches)
                  if scale_out else
                  ClusterLayout(parallelism=ParallelismSpec.parse(
                      entry, pp_microbatches=pp_microbatches)))
        layouts.setdefault(layout.label, layout)
    if not layouts:
        raise ConfigurationError(f"{axis} needs at least one layout entry")
    if scale_out and require_equal_gpus:
        validate_equal_gpu_count(*[layout.cluster_spec(base_hardware, link)
                                   for layout in layouts.values()])

    # Built once per (layout, system) and reused across every rate and
    # routing policy, so ALISA's schedule caches stay warm for the sweep.
    # Every group reads one pricing store, local to this call: equal keys
    # share memos across layouts and systems, and every sweep starts cold.
    groups: dict[tuple[str, str], ReplicaGroup] = {}
    pricing = PricingStore()
    for label, layout in layouts.items():
        for system_name, build in SERVING_SYSTEMS.items():
            groups[(label, system_name)] = ReplicaGroup.from_layout(
                partial(_build_simulator, system_name, build, model,
                        schedule_policy=policy),
                layout, base_hardware, interconnect=link, seed=seed,
                pricing=pricing, preemption=preemption,
                prefill_chunk_tokens=prefill_chunk_tokens)

    for rate in rates:
        # Closed-loop sources are single-use (arrivals are consumed as the
        # replicas feed completions back), so each serve gets a fresh one.
        requests = (None if closed_loop else
                    _rate_requests(rate, workload, num_requests, pattern,
                                   seed, input_len, output_len))
        for (label, system_name), group in groups.items():
            layout = layouts[label]
            for route_policy in policies:
                source = (workload.with_rate(rate).closed_loop()
                          if closed_loop else requests)
                trace = group.serve(
                    source, policy=route_policy, seed=seed,
                    record_mode=record_mode, ttft_slo_s=ttft_slo_s,
                    tpot_slo_s=tpot_slo_s, class_slos=slo_classes,
                    observers=observers() if observers is not None else None,
                    faults=faults, retry=retry, shedding=shedding)
                summary = trace.summary()
                solver = trace.metadata.get("scheduler", {})
                if scale_out:
                    labels = dict(cluster=label,
                                  num_replicas=layout.num_replicas,
                                  parallelism=layout.parallelism.label,
                                  gpu_count=layout.total_gpus,
                                  routing=route_policy)
                    load = dict(
                        tokens_imbalance=summary["tokens_imbalance"],
                        dispatch_counts=tuple(
                            trace.metadata["routing"]["dispatch_counts"]))
                else:
                    labels = dict(parallelism=label,
                                  gpu_count=layout.total_gpus)
                    replica = trace.replica_traces[0].metadata
                    load = dict(
                        peak_reserved_tokens=replica["peak_reserved_tokens"],
                        peak_shard_occupancy=max(
                            (shard["peak_occupancy"]
                             for shard in replica["shards"]), default=0.0),
                        comm_time_share=replica["comm_time_share"])
                result.add(
                    model=model, hardware=group.cluster.node.name,
                    system=system_name, **labels,
                    rate_req_per_s=rate, pattern=pattern,
                    num_requests=summary["num_requests"],
                    duration_s=summary["duration_s"],
                    throughput_tokens_per_s=summary[
                        "throughput_tokens_per_s"],
                    goodput_tokens_per_s=trace.goodput(
                        ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s),
                    mean_queueing_delay_s=summary["mean_queueing_delay_s"],
                    p50_ttft_s=summary["p50_ttft_s"],
                    p99_ttft_s=summary["p99_ttft_s"],
                    p50_tpot_s=summary["p50_tpot_s"],
                    p99_tpot_s=summary["p99_tpot_s"],
                    p99_latency_s=summary["p99_latency_s"],
                    kv_budget_tokens=trace.metadata["kv_budget_tokens"],
                    **load,
                    prefix_hit_rate=summary["prefix_hit_rate"],
                    num_preemptions=summary["num_preemptions"],
                    p99_preemption_latency_s=summary[
                        "p99_preemption_latency_s"],
                    prefill_chunks_per_request=summary[
                        "prefill_chunks_per_request"],
                    **_per_class_columns(trace, slo_classes),
                    **_attribution_columns(trace),
                    **_resilience_columns(trace),
                    **{f"solver_{name}": solver.get(name, 0)
                       for name in SOLVER_STAT_COLUMNS},
                )
    result.notes["ttft_slo_s"] = ttft_slo_s
    result.notes["tpot_slo_s"] = tpot_slo_s
    result.notes["exact_schedules"] = exact_schedules
    result.notes["record_mode"] = record_mode
    result.notes[axis] = tuple(layouts)
    if scale_out:
        result.notes["routing"] = policies
    result.notes["interconnect"] = link.name
    if scale_out:
        result.notes["seed"] = seed
    _note_workload(result, workload, slo_classes, preemption,
                   input_len, output_len,
                   prefill_chunk_tokens=prefill_chunk_tokens,
                   closed_loop=closed_loop, faults=faults)
    return result


def _rate_requests(rate, workload, num_requests, pattern, seed,
                   input_len, output_len):
    """The request trace one swept rate serves."""
    if workload is not None:
        return workload.with_rate(rate).requests()
    return generate_requests(num_requests, rate, pattern=pattern, seed=seed,
                             input_len=input_len, output_len=output_len)


def _per_class_columns(trace, slo_classes) -> dict:
    """``goodput_<class>_tokens_per_s`` columns for configured classes."""
    if not slo_classes:
        return {}
    per_class = trace.per_class_summary(slo_classes)
    return {f"goodput_{name}_tokens_per_s":
            per_class.get(name, {}).get("goodput_tokens_per_s", 0.0)
            for name in sorted(slo_classes)}


#: Latency components in the SLO-violation blame columns.
ATTRIBUTION_COLUMNS = ("queueing_s", "prefill_s", "preemption_s", "decode_s")


def _attribution_columns(trace) -> dict:
    """SLO-violation blame columns — zeros unless a
    :class:`repro.obs.SpanTracer` observed the serve with ``slo_classes``
    configured, so sweep rows stay rectangular either way."""
    table = trace.metadata.get("slo_attribution") or {}
    totals = {key: 0.0 for key in ATTRIBUTION_COLUMNS}
    for entry in table.get("classes", {}).values():
        for key in ATTRIBUTION_COLUMNS:
            totals[key] += entry[key]
    columns = {"slo_violations": table.get("violations", 0)}
    columns.update({f"blame_{key}": value
                    for key, value in totals.items()})
    return columns


def _resilience_columns(trace) -> dict:
    """Fault-injection columns — zeros (availability 1.0) on fault-free
    serves, so sweep rows stay rectangular either way."""
    resilience = trace.metadata.get("resilience") or {}
    return {
        "num_failed": trace.num_failed,
        "num_shed": trace.num_shed,
        "num_retries": trace.num_retries,
        "availability": resilience.get("availability", 1.0),
    }


def _note_workload(result, workload, slo_classes, preemption,
                   input_len, output_len, prefill_chunk_tokens=None,
                   closed_loop=False, faults=None) -> None:
    """Workload, SLO-class and serving-mode notes of a sweep."""
    result.notes["workload"] = ("sessions" if workload is not None
                                else "single-shot")
    result.notes["slo_classes"] = (dict(slo_classes) if slo_classes else None)
    result.notes["preemption"] = preemption
    result.notes["prefill_chunk_tokens"] = prefill_chunk_tokens
    result.notes["closed_loop"] = closed_loop
    result.notes["faults"] = faults is not None
    if workload is not None:
        result.notes["lengths"] = "sessions"
    else:
        result.notes["lengths"] = (
            "sharegpt" if input_len is None or output_len is None
            else f"fixed s={input_len} n={output_len}"
        )


def _build_simulator(system_name, build, model, node, parallelism,
                     schedule_policy):
    """One replica's serving simulator for a sweep row.

    The single place the sweep constructs systems: ALISA gets its serving
    configuration (``kv_sparsity=0.8`` plus the sweep's schedule policy),
    the baselines their registered constructor, each on the replica's
    node under the layout's parallelism.
    """
    if system_name == "alisa":
        return AlisaSystem(model, node, kv_sparsity=0.8,
                           schedule_policy=schedule_policy,
                           parallelism=parallelism)
    return build(model, node, parallelism=parallelism)
