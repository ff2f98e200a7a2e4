"""The composed ALISA system: SWA + dynamic scheduling + KV compression.

:class:`AlisaSystem` is the system-level simulator used by the throughput
and breakdown experiments (Figures 9 and 12).  It combines

* **SWA** — only ``r * n`` tokens participate in attention at each step,
  which shrinks both the compute and the KV bytes that must be resident on
  the GPU (Section IV);
* **three-phase dynamic scheduling** — token placement and recomputation
  follow :class:`~repro.core.scheduler.DynamicScheduler`, with the
  ``alpha, beta, p1, p2`` parameters chosen offline by
  :class:`~repro.core.optimizer.SchedulerOptimizer` (Section V-A);
* **KV compression** — KV tensors are stored and moved as INT8, halving
  footprint and PCIe traffic at the cost of a small (de)quantization
  overhead (Section V-B).

Ablation flags turn the last two off to reproduce Figure 12 (b)/(c):
``use_dynamic_scheduling=False`` falls back to a FlexGen-style static split
(but still with sparse attention), and ``enable_recomputation=False`` forces
``beta = 0`` so Phase III never deletes anything.

The offline search is memoized through a
:class:`~repro.core.schedule_cache.ScheduleCache`: repeated shapes reuse
their solution outright, nearby shapes share canonical solutions, and cold
solves of new shapes are warm-started from the nearest solved neighbor
(see :mod:`repro.core.schedule_cache` for the policy knobs and the
``exact=True`` escape hatch that restores the paper's full per-shape grid
search).  This is what keeps the continuous-batching serving engine — which
re-prepares the simulator for every new decode-epoch shape that spills out
of GPU memory — off the full-grid-search hot path.

For functional (accuracy) experiments use
:class:`~repro.attention.variants.SWAAttentionPolicy` with the NumPy model
instead; this class only models time and memory.
"""

from __future__ import annotations

import numpy as np

from repro._common import ConfigurationError, validate_fraction
from repro.core.optimizer import (
    SchedulerOptimizer,
    ScheduleSolution,
    phase1_end_step,
)
from repro.core.schedule_cache import (
    CachedSchedule,
    ScheduleCache,
    SchedulePolicy,
)
from repro.core.scheduler import (
    PHASE_GPU,
    PHASE_GPU_CPU,
    DynamicScheduler,
    SchedulerConfig,
)
from repro.core.swa import SWAConfig
from repro.systems.simulator import (
    EpochPlan,
    InferenceSimulator,
    SystemStepPlan,
)
from repro.workloads.descriptors import Workload


class AlisaSystem(InferenceSimulator):
    """ALISA inference simulator for a GPU-CPU node (single- or multi-GPU).

    On a multi-GPU node pass a :class:`~repro.systems.cost.ParallelismSpec`
    (or accept the tensor-parallel default) — the cost model then prices
    sharded compute, collectives, and the aggregate host links, and the
    schedule cache namespaces its entries by the shard shape.
    """

    name = "alisa"
    # SWA's globally dynamic token set is only known once the local attention
    # sums of the current step are available, so CPU fetches cannot be fully
    # prefetched behind compute the way FlexGen's static pattern can (the
    # paper notes sparse KV tensors induce unpredictable memory accesses).
    overlap_io = False

    def __init__(self, model, hardware, kv_sparsity: float = 0.8,
                 use_dynamic_scheduling: bool = True,
                 use_compression: bool = True,
                 enable_recomputation: bool = True,
                 scheduler_config: SchedulerConfig | None = None,
                 schedule_policy: SchedulePolicy | None = None,
                 schedule_cache: ScheduleCache | None = None,
                 **kwargs) -> None:
        validate_fraction(kv_sparsity=kv_sparsity)
        if use_compression:
            kwargs.setdefault("kv_dtype", "int8")
        super().__init__(model, hardware, **kwargs)
        self.swa = SWAConfig.from_sparsity(kv_sparsity)
        self.step_table_split = self.swa
        self.kv_sparsity = kv_sparsity
        self.use_dynamic_scheduling = use_dynamic_scheduling
        self.use_compression = use_compression
        self.enable_recomputation = enable_recomputation
        self.schedule_policy = schedule_policy or SchedulePolicy()
        self.schedule_cache = (schedule_cache if schedule_cache is not None
                               else ScheduleCache())
        self._fixed_scheduler_config = scheduler_config
        self._scheduler: DynamicScheduler | None = None
        self._solution: ScheduleSolution | None = None
        self._static_cpu_fraction = 0.0
        # Recompute-time caches shared across re-solves, keyed by batch
        # size (the only workload dimension they depend on), and the p2
        # candidate lists of each (p1, n).  Step compute times live in the
        # cost model's step table.
        self._recompute_caches: dict[int, dict] = {}
        self._p2_candidate_cache: dict[tuple, list[int]] = {}
        # Namespaces cache keys so one ScheduleCache can back many systems.
        # The shard shape (parallelism mode/degree/microbatching) and the
        # bandwidth/latency numbers that price a schedule are part of the
        # context — the node *name* alone is not enough, since ablation
        # helpers (with_pcie_bandwidth) and dataclasses.replace can change
        # a node's links without renaming it.
        link = self.hardware.interconnect
        self._schedule_context = (
            "alisa", self.config.name, self.hardware.name, self.kv_dtype,
            self.swa.caching_ratio, self.swa.local_fraction,
            self.weights_on_gpu, self.enable_recomputation,
            self.parallelism.mode, self.parallelism.degree,
            self.parallelism.pp_microbatches,
            self.hardware.pcie_bandwidth, self.hardware.gpu_count,
            None if link is None else (link.name, link.bandwidth,
                                       link.latency_s),
        )

    # ------------------------------------------------------------------ #
    # offline planning
    # ------------------------------------------------------------------ #
    def prepare(self, workload: Workload, decode: bool = True) -> None:
        """Run the offline scheduler optimization for this workload.

        With ``decode=False`` only the prompt is placed: prompt placement
        reads the GPU budget and the prompt length, never ``alpha``,
        ``beta``, ``p1`` or ``p2``, so dynamic scheduling skips the
        schedule search and leaves the :class:`ScheduleCache` untouched.
        Decode planning then raises until a full ``prepare`` runs.  The
        static ablation and a fixed ``scheduler_config`` search nothing,
        so they prepare as for a decode.
        """
        gpu_budget = self.gpu_kv_budget_tokens(workload)
        if not self.use_dynamic_scheduling:
            # Static ablation: FlexGen-style fixed split sized for the final
            # sequence length, with sparse attention still enabled.
            max_tokens = workload.max_seq_len
            self._static_cpu_fraction = (
                0.0 if gpu_budget >= max_tokens else 1.0 - gpu_budget / max_tokens
            )
            self._scheduler = None
            self._solution = None
            return

        if self._fixed_scheduler_config is not None:
            config = self._fixed_scheduler_config
            self._solution = None
        elif not decode:
            self._solution = None
            self._scheduler = DynamicScheduler(None, self.swa, gpu_budget,
                                               workload.input_len)
            return
        else:
            self._solution = self._solve_schedule(workload, gpu_budget)
            config = self._solution.config
        if not self.enable_recomputation and config.recompute_ratio > 0:
            config = SchedulerConfig(
                offload_ratio=config.offload_ratio, recompute_ratio=0.0,
                phase2_step=config.phase2_step, phase3_step=config.phase3_step,
            )
        self._scheduler = DynamicScheduler(config, self.swa, gpu_budget,
                                           workload.input_len)

    # ------------------------------------------------------------------ #
    # incremental schedule re-solve (see repro.core.schedule_cache)
    # ------------------------------------------------------------------ #
    def _make_optimizer(self, workload: Workload) -> SchedulerOptimizer:
        optimizer = SchedulerOptimizer(
            self.cost_model, workload, self.swa, kv_dtype=self.kv_dtype,
            recompute_cache=self._recompute_caches.setdefault(
                workload.batch_size, {}),
            p2_candidate_cache=self._p2_candidate_cache)
        if not self.enable_recomputation:
            optimizer.beta_grid = (0.0,)
        return optimizer

    def _solve_schedule(self, workload: Workload,
                        gpu_budget: int) -> ScheduleSolution:
        """Serve the offline search through the incremental cache layer.

        Order of preference: exact memo hit (byte-identical to re-solving),
        canonical-bucket hit (re-derive the shared solution for this exact
        shape), warm-started coordinate-descent solve seeded from the
        nearest solved shape, cold solve.  ``SchedulePolicy(exact=True)``
        skips everything but the exact memo and runs the paper's full grid
        search per new shape.
        """
        cache, policy = self.schedule_cache, self.schedule_policy
        stats = cache.stats
        key = cache.exact_key(self._schedule_context, workload, gpu_budget)
        if policy.memoize:
            hit = cache.lookup_exact(key)
            if hit is not None:
                return hit

        if policy.exact:
            solution = self._make_optimizer(workload).solve(
                weights_on_gpu=self.weights_on_gpu)
            stats.full_solves += 1
            stats.candidates_evaluated += solution.evaluated_candidates
            if policy.memoize:
                cache.store_exact(key, solution)
            return solution

        canonical_key = cache.canonical_key(self._schedule_context, policy,
                                            workload)
        entry = cache.lookup_canonical(canonical_key)
        if entry is not None:
            config = entry.derive_config(workload,
                                         phase1_end_step(gpu_budget, workload))
            # The serving path never reads the estimate: price it on read.
            stats.candidates_evaluated += 1
            solution = ScheduleSolution(
                config=config,
                estimated_time=lambda: self._make_optimizer(
                    workload).fast_evaluate(config, gpu_budget),
                gpu_budget_tokens=gpu_budget, evaluated_candidates=1)
        else:
            optimizer = self._make_optimizer(workload)
            seed_entry = (cache.nearest(self._schedule_context, workload)
                          if policy.warm_start else None)
            if seed_entry is not None:
                solution = optimizer.solve_incremental(
                    weights_on_gpu=self.weights_on_gpu,
                    seed=(seed_entry.offload_ratio, seed_entry.recompute_ratio,
                          seed_entry.phase3_fraction),
                    max_rounds=policy.max_refine_rounds,
                    gpu_budget=gpu_budget,
                )
                stats.warm_solves += 1
            else:
                solution = optimizer.solve_incremental(
                    weights_on_gpu=self.weights_on_gpu, gpu_budget=gpu_budget,
                )
                stats.full_solves += 1
            stats.candidates_evaluated += solution.evaluated_candidates
            # With one decode step after p1 the p2 grid is {p1, p1 + 1}, so
            # the solve picks beta for that single step; shared with the
            # longer horizons of its bucket it can cost far more than their
            # own optimum, so such a shape is only memoized exactly.
            if workload.output_len - solution.config.phase2_step != 1:
                cache.store_canonical(canonical_key, CachedSchedule.from_config(
                    solution.config, workload, gpu_budget,
                    solution.estimated_time,
                ))
        if policy.memoize:
            cache.store_exact(key, solution)
        return solution

    @property
    def schedule_solution(self) -> ScheduleSolution | None:
        """Result of the offline search (``None`` for the static ablation)."""
        return self._solution

    def schedule_stats(self) -> dict[str, int]:
        """Cumulative counters of the schedule cache backing this system."""
        return self.schedule_cache.stats.as_dict()

    # ------------------------------------------------------------------ #
    # plan hooks
    # ------------------------------------------------------------------ #
    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        if self.use_dynamic_scheduling:
            if self._scheduler is None:
                raise ConfigurationError("prepare() must run before planning")
            plan = self._scheduler.plan_prefill()
            return SystemStepPlan(
                phase=plan.phase,
                kv_gpu_tokens=plan.tokens_gpu,
                kv_cpu_tokens=plan.tokens_cpu,
                kept_kv=plan.kept_tokens,
                local_window=plan.kept_local,
                offload_kv_tokens=plan.offload_tokens,
                quantize_tokens=self._quantized(plan.offload_tokens),
            )
        cpu_tokens = self._static_cpu_fraction * workload.input_len
        return SystemStepPlan(
            phase=PHASE_GPU if cpu_tokens == 0 else PHASE_GPU_CPU,
            kv_gpu_tokens=workload.input_len - cpu_tokens,
            kv_cpu_tokens=cpu_tokens,
            offload_kv_tokens=cpu_tokens,
            quantize_tokens=self._quantized(cpu_tokens),
        )

    def plan_decode_step(self, step: int, workload: Workload) -> SystemStepPlan:
        seq_len = workload.input_len + step + 1
        num_local, num_global = self.swa.split_budget(seq_len)
        kept = num_local + num_global

        if self.use_dynamic_scheduling:
            if self._scheduler is None:
                raise ConfigurationError("prepare() must run before planning")
            plan = self._scheduler.plan_step(step)
            moved = plan.load_tokens + plan.offload_tokens
            return SystemStepPlan(
                phase=plan.phase,
                kv_gpu_tokens=plan.tokens_gpu,
                kv_cpu_tokens=plan.tokens_cpu,
                kept_kv=plan.kept_tokens,
                local_window=plan.kept_local,
                load_kv_tokens=plan.load_tokens,
                offload_kv_tokens=plan.offload_tokens,
                recompute_tokens=plan.recompute_tokens,
                quantize_tokens=self._quantized(moved),
            )

        # Static ablation: fixed split, sparse attention, no recomputation.
        # The CPU share of the cache grows with the sequence; only the newly
        # offloaded tokens — this step's delta over the share resident after
        # the previous step (prefill left `fraction * input_len` there) —
        # cross PCIe and pay quantization.
        cpu_tokens = self._static_cpu_fraction * seq_len
        newly_offloaded = cpu_tokens - self._static_cpu_fraction * (seq_len - 1)
        non_local = max(1, seq_len - num_local)
        cpu_fraction_of_candidates = min(1.0, cpu_tokens / non_local)
        load_tokens = num_global * cpu_fraction_of_candidates
        return SystemStepPlan(
            phase=PHASE_GPU if cpu_tokens == 0 else PHASE_GPU_CPU,
            kv_gpu_tokens=seq_len - cpu_tokens,
            kv_cpu_tokens=cpu_tokens,
            kept_kv=kept,
            local_window=num_local,
            load_kv_tokens=load_tokens,
            offload_kv_tokens=newly_offloaded,
            quantize_tokens=self._quantized(load_tokens + newly_offloaded),
        )

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        """Array-wise decode plans for a whole epoch (the pricing fast path).

        Vectorized equivalent of calling :meth:`plan_decode_step` once per
        step: the dynamic-scheduling path delegates to
        :meth:`~repro.core.scheduler.DynamicScheduler.plan_epoch` and the
        static ablation evaluates its closed-form split elementwise.  Does
        not consume scheduler steps, so it can be re-invoked after a fresh
        ``prepare``/``plan_prefill`` like the step loop can.

        The scheduler's phases run in order, so an epoch whose last step
        is in Phase I never leaves it: it moves, recomputes and quantizes
        nothing, and its plan carries no load, offload, recompute or
        quantize arrays (an absent array prices as exactly 0.0).
        """
        num_steps = workload.output_len
        if self.use_dynamic_scheduling:
            if self._scheduler is None:
                raise ConfigurationError("prepare() must run before planning")
            epoch = self._scheduler.plan_epoch(num_steps)
            movement = {}
            if epoch.phases[-1] != PHASE_GPU:
                moved = epoch.load_tokens + epoch.offload_tokens
                movement = dict(
                    load_kv_tokens=epoch.load_tokens,
                    offload_kv_tokens=epoch.offload_tokens,
                    recompute_tokens=epoch.recompute_tokens,
                    quantize_tokens=moved if self.use_compression else None)
            return EpochPlan(
                phases=epoch.phases,
                kv_gpu_tokens=epoch.tokens_gpu,
                kv_cpu_tokens=epoch.tokens_cpu,
                kept_kv=epoch.kept_tokens,
                local_windows=epoch.kept_local,
                swa_split=self.swa,
                **movement,
            )

        # Static ablation: fixed split, sparse attention, no recomputation
        # (the closed form of plan_decode_step, elementwise over steps).
        seq = workload.input_len + np.arange(num_steps) + 1
        num_local, num_global = self.swa.split_budget_batch(seq)
        fraction = self._static_cpu_fraction
        cpu_tokens = fraction * seq
        newly_offloaded = cpu_tokens - fraction * (seq - 1)
        non_local = np.maximum(1, seq - num_local)
        cpu_fraction_of_candidates = np.minimum(1.0, cpu_tokens / non_local)
        load_tokens = num_global * cpu_fraction_of_candidates
        phases = np.where(cpu_tokens == 0, PHASE_GPU, PHASE_GPU_CPU)
        moved = load_tokens + newly_offloaded
        return EpochPlan(
            phases=tuple(phases.tolist()),
            kv_gpu_tokens=seq - cpu_tokens,
            kv_cpu_tokens=cpu_tokens,
            kept_kv=num_local + num_global,
            local_windows=num_local,
            load_kv_tokens=load_tokens,
            offload_kv_tokens=newly_offloaded,
            quantize_tokens=moved if self.use_compression else None,
            swa_split=self.swa,
        )

    def epoch_stays_resident(self, workload: Workload) -> bool:
        """Whether the epoch fits the GPU KV budget and so stays in Phase I.

        Dynamic scheduling without a fixed ``scheduler_config`` solves
        ``p1 == n`` for a shape whose ``s + n`` fits the budget, so every
        step is in Phase I; the static ablation's split is then all-GPU.
        A fixed ``scheduler_config`` may enter Phase II or III at any step,
        so it is never answered here.  A fitting shape searches no
        schedule: its ``(alpha, beta)`` prices nothing, so it neither
        reads nor fills the :class:`ScheduleCache`.
        """
        if (self.use_dynamic_scheduling
                and self._fixed_scheduler_config is not None):
            return False
        return self.gpu_kv_budget_tokens(workload) >= workload.max_seq_len

    def pricing_is_shape_pure(self) -> bool:
        """Dynamic-scheduling epochs are shape-pure only under ``exact``.

        The full grid search solves a shape deterministically from the
        shape alone; warm-started/canonical solves seed from whatever
        nearby shapes this system's :class:`ScheduleCache` happened to see
        first, so the priced epochs of spilling shapes depend on solver
        history (a fitting shape never leaves Phase I, whatever it
        solves).  The static ablation plans without the solver and is
        always pure.
        """
        return (not self.use_dynamic_scheduling
                or self._fixed_scheduler_config is not None
                or self.schedule_policy.exact)

    def pricing_signature(self) -> tuple:
        """Extend the base signature with ALISA's own pricing knobs.

        The schedule policy is part of the signature because non-exact
        policies may pick (slightly) different schedules for the same
        shape; two systems only price identically when they share it.
        """
        return super().pricing_signature() + (
            self.kv_sparsity, self.swa.caching_ratio, self.swa.local_fraction,
            self.use_dynamic_scheduling, self.use_compression,
            self.enable_recomputation, self._fixed_scheduler_config,
            self.schedule_policy,
        )

    # ------------------------------------------------------------------ #
    def _quantized(self, moved_tokens: float) -> float:
        """Tokens that pay the (de)quantization overhead this step."""
        return moved_tokens if self.use_compression else 0.0
