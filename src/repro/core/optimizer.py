"""Offline scheduler optimization (Section V-A, Equations 3–6).

ALISA picks the offload ratio ``alpha``, recompute ratio ``beta``, and phase
switch steps ``p1``/``p2`` *offline*, before inference starts.  The paper
splits the problem into a data-transfer part (solved from hardware/software
constraints: memory capacity, PCIe bandwidth, KV tensor sizes) and a
computation part (solved by profiling compute and recompute times), then
applies a greedy search over the combined objective.

This module reproduces that flow:

* :class:`CostParameters` collects the Table II notation for one run;
* :func:`gpu_kv_budget_tokens` solves the capacity constraint, yielding
  ``p1`` (the step at which KV tensors stop fitting in GPU memory);
* :class:`ProfileTable` plays the role of the paper's offline profiling:
  step compute times come from the cost model's step table
  (:meth:`~repro.systems.cost.LLMCostModel.decode_step_times`) and
  recompute times are cached;
* :class:`SchedulerOptimizer` performs the grid/greedy search over
  ``alpha``, ``beta``, and ``p2`` and returns the best
  :class:`~repro.core.scheduler.SchedulerConfig`.

Two search entry points are provided.  :meth:`SchedulerOptimizer.solve` is
the paper's full grid search, evaluating every candidate by rolling a
:class:`~repro.core.scheduler.DynamicScheduler` through the whole decode —
this is the byte-exact reference path.  :meth:`SchedulerOptimizer.solve_incremental`
prices candidates through a vectorized replica of the same objective
(:class:`_FastObjective`) and, when given a warm-start seed from a
previously solved nearby shape, refines it by coordinate descent over the
candidate grids instead of sweeping the full grid; the serving hot path
uses it through :mod:`repro.core.schedule_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._common import ConfigurationError, dtype_bytes, validate_fraction
from repro.core.scheduler import DynamicScheduler, SchedulerConfig, StepPlan
from repro.core.swa import SWAConfig
from repro.systems.cost import LLMCostModel
from repro.workloads.descriptors import Workload


@dataclass(frozen=True)
class CostParameters:
    """The notation of Table II, bundled for one run."""

    hidden_size: int          # h
    num_layers: int           # l
    batch_size: int           # b
    input_len: int            # s
    output_len: int           # n
    caching_ratio: float      # r
    pcie_bandwidth: float     # B
    kv_dtype: str = "fp16"

    @property
    def kv_bytes_per_token(self) -> float:
        """The paper's ``4 * b * l * h`` bytes per token (FP16), generalized
        to other KV dtypes."""
        return (2.0 * dtype_bytes(self.kv_dtype) * self.batch_size
                * self.num_layers * self.hidden_size)

    def transfer_time(self, moved_tokens: float) -> float:
        """Equation 3: time to move ``moved_tokens`` tokens over PCIe."""
        if moved_tokens < 0:
            raise ConfigurationError("moved_tokens must be non-negative")
        return moved_tokens * self.kv_bytes_per_token / self.pcie_bandwidth


def gpu_kv_budget_tokens(cost_model: LLMCostModel, workload: Workload,
                         kv_dtype: str = "fp16",
                         weights_on_gpu: bool = True,
                         reserve_fraction: float = 0.05) -> int:
    """How many KV tokens fit in node GPU memory for this model and workload.

    The byte accounting (multi-GPU aggregation, weights charged once,
    activations per GPU) is
    :meth:`~repro.systems.cost.LLMCostModel.kv_budget_bytes` — the same
    source the serving engine's admission budget uses, so the scheduler's
    capacity constraint can never diverge from admission control.
    """
    validate_fraction(reserve_fraction=reserve_fraction)
    budget_bytes = max(0.0, cost_model.kv_budget_bytes(
        workload.batch_size, workload.input_len,
        weights_on_gpu=weights_on_gpu, reserve_fraction=reserve_fraction))
    per_token = cost_model.kv_bytes_per_token(workload.batch_size, kv_dtype)
    if per_token <= 0:
        raise ConfigurationError("per-token KV size must be positive")
    return max(1, int(budget_bytes // per_token))


def phase1_end_step(budget_tokens: int, workload: Workload) -> int:
    """First decoding step at which KV tensors no longer fit in GPU memory.

    This is ``p1``: solved purely from the capacity constraint, as the paper
    does for the data-transfer sub-problem.
    """
    first_overflow = budget_tokens - workload.input_len
    return min(max(first_overflow, 0), workload.output_len)


class ProfileTable:
    """Compute/recompute/transfer costs (the paper's offline profiling).

    Step compute times are read from the cost model's step table, priced
    once per batch size and SWA configuration.  The recompute cache may be
    shared across :class:`ProfileTable` instances of the same batch size,
    which lets repeated serving re-solves skip re-profiling it.
    """

    def __init__(self, cost_model: LLMCostModel, workload: Workload,
                 swa: SWAConfig, kv_dtype: str = "fp16",
                 recompute_cache: dict | None = None) -> None:
        self.cost_model = cost_model
        self.workload = workload
        self.swa = swa
        self.kv_dtype = kv_dtype
        self._recompute_cache = ({} if recompute_cache is None
                                 else recompute_cache)

    def compute_time(self, sequence_length: int) -> float:
        """GPU compute time of one decoding step at the given sequence length."""
        return float(self.cost_model.decode_step_times(
            self.workload.batch_size, sequence_length, 1, self.swa)[0])

    def recompute_time(self, num_tokens: float) -> float:
        """Time to recompute the KV projections of ``num_tokens`` tokens."""
        key = int(round(num_tokens))
        if key not in self._recompute_cache:
            self._recompute_cache[key] = self.cost_model.recompute_time(
                self.workload.batch_size, key
            )
        return self._recompute_cache[key]

    def transfer_time(self, moved_tokens: float) -> float:
        per_token = self.cost_model.kv_bytes_per_token(
            self.workload.batch_size, self.kv_dtype
        )
        return self.cost_model.pcie_time(moved_tokens * per_token)


@dataclass(frozen=True)
class ScheduleSolution:
    """Output of the offline search."""

    config: SchedulerConfig
    estimated_time: float
    gpu_budget_tokens: int
    evaluated_candidates: int


class _FastObjective:
    """Vectorized replica of the Equation 5 objective for one solve.

    Mirrors the token-placement recurrence of
    :meth:`~repro.core.scheduler.DynamicScheduler.plan_step` with NumPy
    arrays instead of per-step :class:`StepPlan` objects.  Phases I/II admit
    a closed form (nothing is ever deleted before ``p2``, so the CPU target
    depends only on the sequence length); only the Phase III deletion state
    is carried through a scalar loop over the ``p2..n`` suffix.  Candidate
    costs match :meth:`SchedulerOptimizer.evaluate` up to floating-point
    summation order (the placement integers are identical).
    """

    def __init__(self, cost_model: LLMCostModel, workload: Workload,
                 swa: SWAConfig, kv_dtype: str, gpu_budget: int,
                 phase2_step: int) -> None:
        self.n = workload.output_len
        self.budget = gpu_budget
        s = workload.input_len
        steps = np.arange(self.n)
        seq = s + steps + 1

        num_local, num_global = swa.split_budget_batch(seq)
        self.num_global = num_global.astype(np.float64)
        # Steps running in Phase II or III (Phase I moves nothing).
        self.off_phase = (steps >= phase2_step) | (seq > gpu_budget)
        # d == 0 closed forms, valid everywhere before the first deletion.
        self.non_local0 = np.maximum(0, seq - num_local)
        self.min_cpu0 = np.maximum(0, seq - gpu_budget)
        self.non_local_total = np.maximum(1, seq - num_local)
        self.prefill_cpu = max(0, s - gpu_budget)

        # Per-step GPU compute time is candidate-independent: sum the
        # whole run once from the cost model's step table, in ascending
        # sequence-length order.
        self.compute_total = sum(cost_model.decode_step_times(
            workload.batch_size, s + 1, self.n, swa).tolist())
        per_token = cost_model.kv_bytes_per_token(workload.batch_size,
                                                  kv_dtype)
        self._transfer_per_token = \
            per_token / cost_model.effective_pcie_bandwidth
        self._cost_model = cost_model
        self._batch_size = workload.batch_size
        # Python-list views for the Phase III scalar recurrence.
        self._seq_list = seq.tolist()
        self._num_local_list = num_local.tolist()
        # Phase I/II CPU-resident counts per alpha (candidate-independent
        # otherwise); a candidate with a Phase III suffix edits a copy.
        self._phase2_cpu: dict[float, np.ndarray] = {}

    def _cpu_deleted(self, alpha: float, beta: float, phase3_step: int
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Per-step CPU-resident and deleted token counts for a candidate
        (``None`` deleted counts when nothing is ever deleted)."""
        cpu = self._phase2_cpu.get(alpha)
        if cpu is None:
            target = np.floor(alpha * self.non_local0 + 0.5).astype(np.int64)
            target = np.minimum(np.maximum(target, self.min_cpu0),
                                self.non_local0)
            cpu = self._phase2_cpu[alpha] = np.where(self.off_phase, target, 0)
        deleted = None
        if beta > 0.0 and phase3_step < self.n:
            cpu = cpu.copy()
            deleted = np.zeros(self.n, dtype=np.int64)
            seq_list, local_list = self._seq_list, self._num_local_list
            budget = self.budget
            d = 0
            for j in range(phase3_step, self.n):
                non_local = seq_list[j] - d - local_list[j]
                if non_local < 0:
                    non_local = 0
                tc = int(alpha * non_local + 0.5)
                min_cpu = seq_list[j] - d - budget
                if tc < min_cpu:
                    tc = min_cpu
                if tc > non_local:
                    tc = non_local
                target_deleted = int(beta * (tc + d) + 0.5)
                newly = target_deleted - d
                if newly < 0:
                    newly = 0
                if newly > tc:
                    newly = tc
                d += newly
                cpu[j] = tc - newly
                deleted[j] = d
        return cpu, deleted

    def cost(self, alpha: float, beta: float, phase3_step: int) -> float:
        """Objective of Equation 5 for one ``(alpha, beta, p2)`` candidate."""
        cpu, deleted = self._cpu_deleted(alpha, beta, phase3_step)
        # Growth of the CPU-resident share over the previous step (the
        # post-prefill placement before step 0).
        offload = np.empty_like(cpu)
        offload[0] = cpu[0] - self.prefill_cpu
        np.subtract(cpu[1:], cpu[:-1], out=offload[1:])
        offload = np.maximum(0, offload)
        load = self.num_global * (cpu / self.non_local_total)
        moved = float(load.sum() + offload.sum())
        transfer = moved * self._transfer_per_token
        recompute = 0.0
        if deleted is not None and deleted[-1] > 0:
            recompute_tokens = np.rint(
                self.num_global * (deleted / self.non_local_total)
            )
            recompute = float(self._cost_model.recompute_time_batch(
                self._batch_size, recompute_tokens
            ).sum())
        return self.compute_total + transfer + recompute


class SchedulerOptimizer:
    """Greedy/grid search over ``alpha``, ``beta``, ``p2`` (Equation 5)."""

    def __init__(self, cost_model: LLMCostModel, workload: Workload,
                 swa: SWAConfig, kv_dtype: str = "fp16",
                 alpha_grid: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9, 1.0),
                 beta_grid: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6),
                 num_p2_candidates: int = 5,
                 recompute_cache: dict | None = None,
                 p2_candidate_cache: dict | None = None) -> None:
        self.cost_model = cost_model
        self.workload = workload
        self.swa = swa
        self.kv_dtype = kv_dtype
        self.alpha_grid = alpha_grid
        self.beta_grid = beta_grid
        self.num_p2_candidates = num_p2_candidates
        self.profile = ProfileTable(cost_model, workload, swa, kv_dtype,
                                    recompute_cache=recompute_cache)
        # ``(p1, n, count) -> p2 candidates``; the owning system keeps one
        # across re-solves.
        self._p2_candidate_cache = ({} if p2_candidate_cache is None
                                    else p2_candidate_cache)

    # ------------------------------------------------------------------ #
    def estimate_plan_time(self, plans: list[StepPlan]) -> float:
        """Objective of Equation 5 evaluated on a sequence of step plans."""
        total = 0.0
        for plan in plans:
            if plan.step < 0:
                continue  # prefill handled separately by the simulator
            total += self.profile.compute_time(plan.sequence_length)
            total += self.profile.transfer_time(plan.load_tokens + plan.offload_tokens)
            total += self.profile.recompute_time(plan.recompute_tokens)
        return total

    def evaluate(self, config: SchedulerConfig, gpu_budget: int) -> float:
        scheduler = DynamicScheduler(config, self.swa, gpu_budget,
                                     self.workload.input_len)
        plans = scheduler.plan_run(self.workload.output_len)
        return self.estimate_plan_time(plans)

    def solve(self, weights_on_gpu: bool = True) -> ScheduleSolution:
        """Run the search and return the best scheduler configuration."""
        gpu_budget = gpu_kv_budget_tokens(self.cost_model, self.workload,
                                          self.kv_dtype, weights_on_gpu)
        p1 = phase1_end_step(gpu_budget, self.workload)
        p2_candidates = self._p2_candidates(p1)

        best_config: SchedulerConfig | None = None
        best_time = float("inf")
        evaluated = 0
        for alpha in self.alpha_grid:
            for beta in self.beta_grid:
                for p2 in p2_candidates:
                    if beta == 0.0 and p2 != p2_candidates[-1]:
                        continue  # beta=0 makes p2 irrelevant; skip duplicates
                    config = SchedulerConfig(
                        offload_ratio=alpha, recompute_ratio=beta,
                        phase2_step=p1, phase3_step=max(p1, p2),
                    )
                    elapsed = self.evaluate(config, gpu_budget)
                    evaluated += 1
                    if elapsed < best_time:
                        best_time = elapsed
                        best_config = config
        if best_config is None:
            raise ConfigurationError("scheduler search evaluated no candidates")
        return ScheduleSolution(config=best_config, estimated_time=best_time,
                                gpu_budget_tokens=gpu_budget,
                                evaluated_candidates=evaluated)

    # ------------------------------------------------------------------ #
    # incremental search (vectorized objective, optional warm start)
    # ------------------------------------------------------------------ #
    def _p2_candidates(self, p1: int) -> list[int]:
        key = (p1, self.workload.output_len, self.num_p2_candidates)
        candidates = self._p2_candidate_cache.get(key)
        if candidates is None:
            candidates = self._p2_candidate_cache[key] = sorted({
                int(p)
                for p in np.linspace(p1, self.workload.output_len,
                                     self.num_p2_candidates)
            })
        return candidates

    def _make_objective(self, gpu_budget: int, p1: int) -> _FastObjective:
        return _FastObjective(self.cost_model, self.workload, self.swa,
                              self.kv_dtype, gpu_budget, p1)

    def fast_evaluate(self, config: SchedulerConfig, gpu_budget: int) -> float:
        """Vectorized counterpart of :meth:`evaluate` (same placement math)."""
        objective = self._make_objective(gpu_budget, config.phase2_step)
        return objective.cost(config.offload_ratio, config.recompute_ratio,
                              config.phase3_step)

    def solve_incremental(self, weights_on_gpu: bool = True,
                          seed: tuple[float, float, float] | None = None,
                          max_rounds: int = 3,
                          gpu_budget: int | None = None) -> ScheduleSolution:
        """Search with the vectorized objective, optionally warm-started.

        Without a ``seed`` this sweeps the same candidate grid as
        :meth:`solve` (differing from it only by floating-point summation
        order in the objective).  With a ``seed`` —
        ``(alpha, beta, phase3_fraction)`` from a previously solved nearby
        shape — it snaps the seed onto the candidate grids and refines by
        coordinate descent, evaluating one axis at a time until a sweep
        stops improving, which visits a small neighborhood instead of the
        full grid.
        """
        if gpu_budget is None:
            gpu_budget = gpu_kv_budget_tokens(self.cost_model, self.workload,
                                              self.kv_dtype, weights_on_gpu)
        p1 = phase1_end_step(gpu_budget, self.workload)
        p2_candidates = self._p2_candidates(p1)
        objective = self._make_objective(gpu_budget, p1)

        costs: dict[tuple[float, float, int], float] = {}

        def cost(alpha: float, beta: float, p2: int) -> float:
            # beta == 0 makes p2 irrelevant; collapse to one representative.
            key = (alpha, beta, p2_candidates[-1] if beta == 0.0 else p2)
            if key not in costs:
                costs[key] = objective.cost(alpha, beta, key[2])
            return costs[key]

        if seed is None:
            best: tuple[float, float, int] | None = None
            best_time = float("inf")
            for alpha in self.alpha_grid:
                for beta in self.beta_grid:
                    for p2 in p2_candidates:
                        if beta == 0.0 and p2 != p2_candidates[-1]:
                            continue
                        elapsed = cost(alpha, beta, p2)
                        if elapsed < best_time:
                            best_time = elapsed
                            best = (alpha, beta, p2)
        else:
            alpha, beta, fraction = seed
            alpha = min(self.alpha_grid, key=lambda g: abs(g - alpha))
            beta = min(self.beta_grid, key=lambda g: abs(g - beta))
            p2_target = p1 + fraction * (self.workload.output_len - p1)
            p2 = min(p2_candidates, key=lambda c: abs(c - p2_target))
            best_time = cost(alpha, beta, p2)
            for _ in range(max_rounds):
                improved = False
                for candidate in self.alpha_grid:
                    elapsed = cost(candidate, beta, p2)
                    if elapsed < best_time:
                        best_time, alpha, improved = elapsed, candidate, True
                for candidate in self.beta_grid:
                    elapsed = cost(alpha, candidate, p2)
                    if elapsed < best_time:
                        best_time, beta, improved = elapsed, candidate, True
                for candidate in p2_candidates:
                    elapsed = cost(alpha, beta, candidate)
                    if elapsed < best_time:
                        best_time, p2, improved = elapsed, candidate, True
                if not improved:
                    break
            best = (alpha, beta, p2)

        if best is None:
            raise ConfigurationError("scheduler search evaluated no candidates")
        alpha, beta, p2 = best
        config = SchedulerConfig(offload_ratio=alpha, recompute_ratio=beta,
                                 phase2_step=p1, phase3_step=max(p1, p2))
        return ScheduleSolution(config=config, estimated_time=best_time,
                                gpu_budget_tokens=gpu_budget,
                                evaluated_candidates=len(costs))
