"""Data-parallel replica groups over the continuous-batching engine.

A :class:`ReplicaGroup` owns N independent
:class:`~repro.serving.engine.ContinuousBatchingEngine` replicas — each
with its own simulator, hardware node, parallelism spec, and schedule
cache — and serves one arrival trace by routing every request to exactly
one replica (:class:`~repro.cluster.router.Router`) and simulating each
replica over its share; every replica run hands its records, through a
light :class:`~repro.cluster.trace.ReplicaTrace` view, to one
:class:`~repro.cluster.trace.ClusterTrace`.

This is the scale-out axis on top of the scale-up axis: tensor/pipeline
parallelism makes one replica bigger, replica groups add more of them, and
the serving sweep's ``cluster`` axis compares both at equal GPU count
(TP-4 vs 2x(TP-2) vs 4x(TP-1)).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro._common import ConfigurationError
from repro.cluster.layout import ClusterLayout
from repro.cluster.router import Router
from repro.cluster.trace import ClusterTrace, ReplicaTrace, StreamingClusterTrace, describe_replicas
from repro.hardware.presets import (
    NVLINK,
    ClusterSpec,
    HardwareSpec,
    InterconnectSpec,
)
from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.events import (
    arrival_source,
    check_observers,
    check_serve,
    notify_finish,
    serve_runs,
)
from repro.systems.cost import LLMCostModel, ParallelismSpec
from repro.systems.simulator import InferenceSimulator
from repro.workloads.arrivals import Request

#: Builds one replica's simulator on its node under its parallelism spec.
SimulatorFactory = Callable[[HardwareSpec, ParallelismSpec],
                            InferenceSimulator]


class ReplicaGroup:
    """N replica engines plus the routing policy that feeds them.

    Parameters
    ----------
    engines:
        One :class:`ContinuousBatchingEngine` per replica.  All replicas
        must serve the same system and model (a cluster mixes hardware at
        most, never model identities).
    policy:
        Default routing policy (see
        :data:`~repro.cluster.router.ROUTING_POLICIES`); overridable per
        :meth:`serve` call.
    seed:
        Default router seed: fixes tie-breaking so the per-replica request
        split is deterministic run-to-run.  Thread the arrival trace's
        ``generate_requests`` seed through here to make the whole cluster
        trace a pure function of one seed.
    cluster:
        Optional :class:`ClusterSpec` recorded in trace metadata.
    """

    def __init__(self, engines: list[ContinuousBatchingEngine],
                 policy: str = "round-robin", seed: int | None = 0,
                 cluster: ClusterSpec | None = None) -> None:
        if not engines:
            raise ConfigurationError("a replica group needs at least one "
                                     "replica engine")
        names = {engine.simulator.name for engine in engines}
        models = {engine.simulator.config.name for engine in engines}
        if len(names) > 1 or len(models) > 1:
            raise ConfigurationError(
                f"replicas must serve one system and model, got systems "
                f"{sorted(names)} over models {sorted(models)}"
            )
        # Validates the policy name before any serving happens.
        Router(len(engines), policy, seed)
        self.engines = engines
        self.policy = policy
        self.seed = seed
        self.cluster = cluster
        self._share_pricing_caches()

    def _share_pricing_caches(self) -> None:
        """Let replicas with identical pricing share prefill/epoch caches.

        Replicas routed shares of one arrival trace see heavily overlapping
        epoch and prefill shapes; when their simulators price identically
        (equal ``pricing_signature``) and their engines use the same
        admission knobs, the first replica to price a shape serves it for
        all of them.  Priced prefills are always safe to share (placement
        depends only on the shape and the KV budget, and equal signatures
        mean equal link bandwidth).  Priced epochs are shared only when
        the simulator's pricing is *shape-pure*
        (``pricing_is_shape_pure``): ALISA's warm-started schedule search
        seeds from its own replica-local solver history, so its priced
        epochs stay per replica unless the exact schedule policy is in
        force.  Schedule caches are never shared.

        Router service estimates and decode-step time tables depend on
        the cost model alone, so every replica with an equal
        ``pricing_signature`` reads one estimate dict and one set of step
        tables, whatever its admission knobs.  That includes ALISA
        replicas: their priced epochs depend on solver history, but the
        compute time of a step does not.
        """
        leaders: dict[tuple, ContinuousBatchingEngine] = {}
        estimates: dict[tuple, dict[tuple[int, int], float]] = {}
        cost_models: dict[tuple, LLMCostModel] = {}
        self._service_estimates: list[dict[tuple[int, int], float]] = []
        for engine in self.engines:
            signature = engine.simulator.pricing_signature()
            self._service_estimates.append(
                estimates.setdefault(signature, {}))
            cost_model = engine.simulator.cost_model
            step_leader = cost_models.setdefault(signature, cost_model)
            if step_leader is not cost_model:
                cost_model.adopt_step_tables(step_leader)
            key = (signature, engine.max_batch_size, engine.reserve_fraction)
            leader = leaders.setdefault(key, engine)
            if leader is not engine:
                engine.adopt_pricing_caches(
                    leader,
                    share_epochs=engine.simulator.pricing_is_shape_pure())

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_layout(cls, simulator_factory: SimulatorFactory,
                    layout: ClusterLayout | str, base: HardwareSpec,
                    interconnect: InterconnectSpec = NVLINK,
                    policy: str = "round-robin", seed: int | None = 0,
                    **engine_kwargs) -> "ReplicaGroup":
        """Build a group from a cluster layout over a single-GPU base node.

        ``simulator_factory(node, parallelism)`` is called once per replica,
        so every replica gets an independent simulator — and with it its own
        schedule cache and placement state.
        """
        if isinstance(layout, str):
            layout = ClusterLayout.parse(layout)
        spec = layout.cluster_spec(base, interconnect)
        engines = [
            ContinuousBatchingEngine(
                simulator_factory(spec.node, layout.parallelism),
                **engine_kwargs)
            for _ in range(spec.num_replicas)
        ]
        return cls(engines, policy=policy, seed=seed, cluster=spec)

    @property
    def num_replicas(self) -> int:
        return len(self.engines)

    @property
    def total_gpus(self) -> int:
        return sum(engine.simulator.hardware.gpu_count
                   for engine in self.engines)

    # ------------------------------------------------------------------ #
    # routing support
    # ------------------------------------------------------------------ #
    def estimate_service_time(self, replica: int, request: Request) -> float:
        """Estimated seconds ``replica`` would spend on ``request`` alone.

        Single-sequence prefill plus one dense decode step per output token
        at the final context length — deliberately the *router's* coarse
        view (it overcharges decode and ignores batching), priced by the
        replica's own cost model so heterogeneous replicas estimate
        honestly.  Cached per ``(input_len, output_len)`` shape.
        """
        key = (request.input_len, request.output_len)
        cached = self._service_estimates[replica].get(key)
        if cached is None:
            cost_model = self.engines[replica].simulator.cost_model
            cached = (cost_model.prefill_time(1, request.input_len)
                      + request.output_len
                      * cost_model.decode_step_time(1, request.max_seq_len))
            self._service_estimates[replica][key] = cached
        return cached

    def _route_fn(self, policy: str, seed: int | None):
        """Dispatch-time routing closure: ``request -> replica index``.

        Wraps a fresh :class:`Router` exactly the way a front-end load
        balancer runs — one decision per arrival, knowing only the dispatch
        history.
        """
        router = Router(self.num_replicas, policy, seed)
        # Round-robin never reads load state, so skip the per-replica
        # service estimates (2 cost-model evaluations per replica per new
        # request shape) on that path.
        load_aware = router.policy != "round-robin"
        zeros = [0.0] * self.num_replicas

        def route(request: Request) -> int:
            estimates = ([self.estimate_service_time(replica, request)
                          for replica in range(self.num_replicas)]
                         if load_aware else zeros)
            return router.assign(request, estimates)

        return route, router

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def serve(self, requests, policy: str | None = None,
              seed: int | None = None, record_mode: str = "full",
              ttft_slo_s: float | None = None,
              tpot_slo_s: float | None = None,
              class_slos: dict | None = None,
              event_journal: list | None = None,
              observers=None, faults=None, retry=None, shedding=None):
        """Serve ``requests`` through one merged event stream.

        Every replica becomes an event-driven
        :class:`~repro.serving.engine.EngineRun` and
        :func:`~repro.serving.events.drive` interleaves them on one heap:
        routing fires at true arrival instants, in dispatch order, and idle
        replicas consume zero work.
        ``requests`` is a list or a bounded-memory
        :class:`~repro.workloads.arrivals.RequestStream`.

        ``requests`` may also be a closed-loop session source (e.g.
        :class:`~repro.workloads.sessions.ClosedLoopSessions`): arrivals
        then depend on the cluster's own simulated completions, which
        every replica feeds back through the source's ``on_completion``
        observer, and replicas run with ``eager_epochs=True``.  All three
        kinds are driven as one
        :class:`~repro.serving.events.ArrivalSource` and routed live, and
        every replica sizes its KV budget from the source's length bounds.

        Each run writes into a :class:`~repro.cluster.trace.ReplicaTrace`
        view that hands every record to a cluster trace built before the
        drive (:func:`~repro.serving.events.serve_runs`, shared with the
        engine), so each record is folded once.  ``record_mode="full"``
        returns a :class:`ClusterTrace` with one record per request,
        sorted by completion time;
        ``"streaming"`` a :class:`~repro.cluster.trace.StreamingClusterTrace`
        in O(1) memory whose goodput SLOs are fixed by
        ``ttft_slo_s``/``tpot_slo_s`` (and, per SLO class, by
        ``class_slos``); in full mode those SLOs are the default ones.
        ``metadata["routing"]`` records the policy, seed, and per-replica
        dispatch counts, ``metadata["replicas"]`` the per-replica
        breakdowns (``replica_traces`` holds the views: run metadata, and
        in full mode the replica's records in delivery order).
        ``event_journal``, when given, receives every processed
        ``(time, kind, replica)`` event (a test/debug surface).

        ``observers`` is an optional list of :class:`repro.obs.Observer`
        instances hooked into every replica run and the merged event loop
        (span tracing, metric timelines — see ``docs/observability.md``);
        with none registered the serve is bit-identical to an unobserved
        one.

        ``faults`` is an optional :class:`~repro.faults.FaultSchedule` of
        replica outages (``retry`` the
        :class:`~repro.faults.RetryPolicy` for interrupted requests,
        ``shedding`` an optional degraded-mode
        :class:`~repro.faults.LoadShedder`).  Fault serves always route
        *live* with health-aware candidates — failed replicas leave every
        policy's candidate set and rejoin cold on recovery — and the trace
        gains ``metadata["resilience"]`` (failure/retry/shed counts,
        downtime, availability).  ``faults=None`` serves are bit-identical
        to the pre-fault group.
        """
        started = perf_counter()
        policy = self.policy if policy is None else policy
        seed = self.seed if seed is None else seed
        observers = check_observers(observers)
        source = arrival_source(requests)
        check_serve(source, faults, retry, shedding)
        simulator = self.engines[0].simulator

        # Every serve routes live, at each arrival: any request may land on
        # any replica, so every replica's budget probe uses the source's
        # length bounds, and an impossible request raises at its arrival.
        route, router = self._route_fn(policy, seed)
        if observers:
            # Wrap the routing closure so observers see every assignment,
            # without the router itself learning about observation.
            def route(request, _inner=route):
                target = _inner(request)
                for ob in observers:
                    ob.on_assign(request.arrival_time, request, target)
                return target

        streaming = record_mode == "streaming"
        cluster_trace = (StreamingClusterTrace if streaming else ClusterTrace)(
            system=simulator.name, model=simulator.config.name,
            ttft_slo_s=ttft_slo_s, tpot_slo_s=tpot_slo_s,
            class_slos=class_slos)
        feedback = source.on_completion
        runs = [engine.start_run(
                    ReplicaTrace(engine._trace_metadata(record_mode),
                                 cluster_trace.observe,
                                 keep_records=not streaming),
                    *(source.length_bounds or (None, None)),
                    observer=feedback, eager_epochs=feedback is not None,
                    observers=observers, replica=index,
                    fault_mode=faults is not None)
                for index, engine in enumerate(self.engines)]
        traces = serve_runs(source, runs, route, cluster_trace,
                            journal=event_journal, observers=observers,
                            faults=faults, retry=retry, shedding=shedding,
                            router=router)
        cluster_trace.replica_traces = traces
        metadata = cluster_trace.metadata
        metadata.update({
            "routing": {"policy": policy, "seed": seed,
                        "dispatch_counts": list(router.dispatch_counts)},
            "num_replicas": self.num_replicas,
            "total_gpus": self.total_gpus,
            "record_mode": record_mode,
        })
        if source.length_bounds is not None:
            # Cluster capacity is a hardware fact: probe every replica's
            # budget against the whole trace, so the reported budget does
            # not shrink when a routing policy starves a replica (an empty
            # replica's view reports budget 0).
            metadata["kv_budget_tokens"] = sum(
                engine.kv_budget_tokens_for_bounds(*source.length_bounds)
                for engine in self.engines)
        if self.cluster is not None:
            metadata["cluster"] = {"name": self.cluster.name,
                                   "node": self.cluster.node.name,
                                   "num_replicas": self.cluster.num_replicas,
                                   "total_gpus": self.cluster.total_gpus}
        scheduler = self._aggregate_scheduler_stats(traces)
        if scheduler:
            metadata["scheduler"] = scheduler
        epoch_cache = self._aggregate_epoch_cache(traces)
        if epoch_cache is not None:
            # Exact even when replicas share one pricing cache: each
            # engine's hit/miss counters are per engine, so per-replica
            # deltas sum without double counting.
            metadata["epoch_cache"] = epoch_cache
        metadata["wall_clock_s"] = perf_counter() - started
        describe_replicas(metadata, traces)
        notify_finish(observers, cluster_trace, class_slos)
        return cluster_trace

    @staticmethod
    def _aggregate_epoch_cache(traces) -> dict[str, int] | None:
        """Cluster-wide priced-epoch cache hits/misses (None when every
        replica was empty)."""
        totals = {"hits": 0, "misses": 0}
        found = False
        for trace in traces:
            cache = trace.metadata.get("epoch_cache")
            if cache is not None:
                found = True
                totals["hits"] += cache["hits"]
                totals["misses"] += cache["misses"]
        return totals if found else None

    @staticmethod
    def _aggregate_scheduler_stats(traces) -> dict[str, int]:
        """Sum per-replica scheduler-cache counters (empty when none)."""
        totals: dict[str, int] = {}
        for trace in traces:
            for key, value in trace.metadata.get("scheduler", {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals
