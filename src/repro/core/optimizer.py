"""Offline scheduler optimization (Section V-A, Equations 3–6).

ALISA picks the offload ratio ``alpha``, recompute ratio ``beta``, and phase
switch steps ``p1``/``p2`` *offline*, before inference starts.  The paper
splits the problem into a data-transfer part (solved from hardware/software
constraints: memory capacity, PCIe bandwidth, KV tensor sizes) and a
computation part (solved by profiling compute and recompute times), then
applies a greedy search over the combined objective.

This module reproduces that flow:

* :func:`phase1_end_step` solves the capacity constraint, yielding ``p1``
  (the step at which KV tensors stop fitting in GPU memory) from the cost
  model's KV budget
  (:meth:`~repro.systems.cost.LLMCostModel.kv_budget_tokens`);
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

from collections.abc import Callable

import numpy as np

from repro._common import ConfigurationError, left_sum
from repro.core.scheduler import (
    DynamicScheduler,
    SchedulerConfig,
    StepPlan,
    phase3_placement,
)
from repro.core.swa import SWAConfig, sequence_table
from repro.systems.cost import LLMCostModel
from repro.workloads.descriptors import Workload


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


class ScheduleSolution:
    """Output of the offline search.

    ``estimated_time`` is the Equation 5 objective of ``config``.  It may
    be given as a zero-argument callable instead of a float: the callable
    runs on the first read and its float is kept.  A solution that did not
    search (a canonical-bucket hit) prices its estimate this way, only if
    something reads it.
    """

    __slots__ = ("config", "gpu_budget_tokens", "evaluated_candidates",
                 "_estimate")

    def __init__(self, config: SchedulerConfig,
                 estimated_time: float | Callable[[], float],
                 gpu_budget_tokens: int, evaluated_candidates: int) -> None:
        self.config = config
        self._estimate = estimated_time
        self.gpu_budget_tokens = gpu_budget_tokens
        self.evaluated_candidates = evaluated_candidates

    @property
    def estimated_time(self) -> float:
        if callable(self._estimate):
            self._estimate = self._estimate()
        return self._estimate

    def __repr__(self) -> str:
        return (f"ScheduleSolution(config={self.config!r}, "
                f"estimated_time={self.estimated_time!r}, "
                f"gpu_budget_tokens={self.gpu_budget_tokens!r}, "
                f"evaluated_candidates={self.evaluated_candidates!r})")


def _compute_total(cost_model: LLMCostModel, workload: Workload,
                   swa: SWAConfig) -> float:
    """GPU compute time of the whole decode, candidate-independent.

    Left-to-right float adds (:func:`~repro._common.left_sum`) over the
    cost model's step table in ascending sequence-length order, the order
    every solve has always used.
    """
    return left_sum(cost_model.decode_step_times(
        workload.batch_size, workload.input_len + 1, workload.output_len,
        swa).tolist())


class _FastObjective:
    """Vectorized replica of the Equation 5 objective for one solve.

    Mirrors the token-placement recurrence of
    :meth:`~repro.core.scheduler.DynamicScheduler.plan_step` with NumPy
    arrays instead of per-step :class:`StepPlan` objects.  Phases I/II admit
    a closed form (nothing is ever deleted before ``p2``, so the CPU target
    depends only on the sequence length); only the Phase III deletion state
    is carried through the scalar recurrence
    (:func:`~repro.core.scheduler.phase3_placement`) over the ``p2..n``
    suffix.  :meth:`costs` prices a batch of candidates as one array pass,
    one candidate per row; its costs match :meth:`SchedulerOptimizer.evaluate`
    up to floating-point summation order (the placement integers are
    identical).  Per-shape arrays are read-only slices of the SWA config's
    :class:`~repro.core.swa.SequenceTable`.
    """

    def __init__(self, cost_model: LLMCostModel, workload: Workload,
                 swa: SWAConfig, kv_dtype: str, gpu_budget: int,
                 phase2_step: int) -> None:
        self.n = n = workload.output_len
        self.budget = gpu_budget
        s = workload.input_len
        self._first_seq = first = s + 1
        self._table = table = sequence_table(swa, s + n)
        self.num_global = table.num_global[first:first + n]
        self.non_local_total = table.non_local_total[first:first + n]
        # Steps before this one run in Phase I and move nothing: Phase II
        # starts at p1 or at the first step whose sequence overflows the
        # GPU budget (the sequence grows one token a step).
        start = min(phase2_step, max(0, gpu_budget - s), n)
        self._phase2_start = start
        # Phase II closed forms (valid until the first deletion) over the
        # steps from ``start`` on: the non-local tokens alpha applies to,
        # and the CPU share the budget forces (``None`` when the last
        # step still fits on the GPU, so it is zero throughout).
        self._non_local = table.non_local[first + start:first + n]
        self._min_cpu = (np.maximum(0, np.arange(first + start - gpu_budget,
                                                 first + n - gpu_budget))
                         if first + n - 1 > gpu_budget else None)
        self.prefill_cpu = max(0, s - gpu_budget)

        self.compute_total = _compute_total(cost_model, workload, swa)
        per_token = cost_model.kv_bytes_per_token(workload.batch_size,
                                                  kv_dtype)
        self._transfer_per_token = \
            per_token / cost_model.effective_pcie_bandwidth
        self._cost_model = cost_model
        self._batch_size = workload.batch_size
        # Costs of candidates without a Phase III suffix, by alpha.
        self._plain_costs: dict[float, float] = {}

    def costs(self, candidates: list[tuple[float, float, int]]
              ) -> list[float]:
        """Objective of Equation 5 for each ``(alpha, beta, p2)`` candidate.

        Each candidate that needs pricing is one row of each array, and
        every step sum is a row sum, which NumPy reduces in the same
        pairwise order as the 1-D sum of that row alone: a candidate's
        cost does not depend on the batch it is priced in.  A candidate
        without a Phase III suffix (``beta == 0`` or ``p2 == n``) places
        tokens by ``alpha`` alone, so its cost is priced once per
        ``alpha`` and then reused.
        """
        n = self.n
        plain_costs = self._plain_costs
        rows: dict[tuple[float, float, int], int] = {}
        for alpha, beta, phase3_step in candidates:
            if beta > 0.0 and phase3_step < n:
                rows.setdefault((alpha, beta, phase3_step), len(rows))
            elif alpha not in plain_costs:
                rows.setdefault((alpha, 0.0, n), len(rows))
        priced = self._price_rows(list(rows)) if rows else []
        for (alpha, _, phase3_step), cost in zip(rows, priced):
            if phase3_step == n:
                plain_costs[alpha] = cost
        return [priced[rows[(alpha, beta, phase3_step)]]
                if beta > 0.0 and phase3_step < n else plain_costs[alpha]
                for alpha, beta, phase3_step in candidates]

    def _price_rows(self, candidates: list[tuple[float, float, int]]
                    ) -> list[float]:
        """:meth:`costs` of distinct candidates, one array row each."""
        n, start = self.n, self._phase2_start
        # Column 0 holds the post-prefill CPU placement, so a step's
        # offload (the growth of the CPU-resident share) is the
        # difference of neighbouring columns.
        placed = np.zeros((len(candidates), n + 1), dtype=np.int64)
        placed[:, 0] = self.prefill_cpu
        cpu = placed[:, 1:]
        # Phase I places nothing on the CPU; Phase II places a rounded
        # alpha share (truncating a non-negative x + 0.5 rounds half up).
        target = (np.array([[alpha] for alpha, _, _ in candidates])
                  * self._non_local)
        target += 0.5
        target = target.astype(np.int64)
        if self._min_cpu is not None:
            np.maximum(target, self._min_cpu, out=target)
        np.minimum(target, self._non_local, out=cpu[:, start:])
        # A Phase III suffix overwrites its row from p2 on.
        deleted = None
        recomputing = []
        for row, (alpha, beta, phase3_step) in enumerate(candidates):
            if phase3_step < n:
                if deleted is None:
                    deleted = np.zeros(cpu.shape, dtype=np.int64)
                cpu[row, phase3_step:], deleted[row, phase3_step:] = \
                    phase3_placement(self._table.local_list(),
                                     self._first_seq + phase3_step,
                                     self._first_seq + n, alpha, beta,
                                     self.budget)
                if deleted[row, -1] > 0:
                    recomputing.append(row)
        offload = placed[:, 1:] - placed[:, :-1]
        np.maximum(offload, 0, out=offload)
        # Globally dynamic tokens are spread over the non-local part of
        # the sequence; the CPU-resident share of them is reloaded.
        load = cpu / self.non_local_total
        load *= self.num_global
        moved = np.add.reduce(load, axis=1) + np.add.reduce(offload, axis=1)
        totals = self.compute_total + moved * self._transfer_per_token
        if recomputing:
            recompute_tokens = np.rint(
                self.num_global * (deleted[recomputing]
                                   / self.non_local_total))
            totals[recomputing] += self._cost_model.recompute_time_batch(
                self._batch_size, recompute_tokens).sum(axis=1)
        return totals.tolist()


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

    def solve(self, gpu_budget: int | None = None) -> ScheduleSolution:
        """Run the search and return the best scheduler configuration.

        ``gpu_budget`` is the GPU KV budget in tokens; ``None`` takes the
        cost model's with the weights on the GPU.
        """
        if gpu_budget is None:
            gpu_budget = self.cost_model.kv_budget_tokens(
                self.workload.batch_size, self.workload.input_len,
                self.kv_dtype)
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
        return objective.costs([(config.offload_ratio, config.recompute_ratio,
                                 config.phase3_step)])[0]

    def solve_incremental(self,
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
        full grid.  The cold grid, and each axis of a descent round (whose
        other two coordinates are fixed while it runs), is priced in one
        :meth:`_FastObjective.costs` batch before its candidates are
        compared in order, so the search visits and picks exactly what a
        candidate-at-a-time loop would.

        A shape that never leaves Phase I (``p1 == n``, the whole decode
        fits in the GPU budget) is answered in closed form, without an
        objective or a descent: see :meth:`_solve_phase1_only`.
        """
        if gpu_budget is None:
            gpu_budget = self.cost_model.kv_budget_tokens(
                self.workload.batch_size, self.workload.input_len,
                self.kv_dtype)
        p1 = phase1_end_step(gpu_budget, self.workload)
        if p1 == self.workload.output_len:
            return self._solve_phase1_only(gpu_budget, seed)
        p2_candidates = self._p2_candidates(p1)
        last_p2 = p2_candidates[-1]
        objective = self._make_objective(gpu_budget, p1)

        costs: dict[tuple[float, float, int], float] = {}

        def key(alpha: float, beta: float, p2: int) -> tuple[float, float, int]:
            # beta == 0 makes p2 irrelevant; collapse to one representative.
            return (alpha, beta, last_p2 if beta == 0.0 else p2)

        def price(keys: list[tuple[float, float, int]]) -> None:
            fresh = [k for k in keys if k not in costs]
            if fresh:
                costs.update(zip(fresh, objective.costs(fresh)))

        if seed is None:
            grid = [(alpha, beta, p2)
                    for alpha in self.alpha_grid
                    for beta in self.beta_grid
                    for p2 in p2_candidates
                    if beta != 0.0 or p2 == last_p2]
            price(grid)
            best: tuple[float, float, int] | None = None
            best_time = float("inf")
            for candidate in grid:
                elapsed = costs[candidate]
                if elapsed < best_time:
                    best_time = elapsed
                    best = candidate
        else:
            alpha, beta, fraction = seed
            alpha = min(self.alpha_grid, key=lambda g: abs(g - alpha))
            beta = min(self.beta_grid, key=lambda g: abs(g - beta))
            p2_target = p1 + fraction * (self.workload.output_len - p1)
            p2 = min(p2_candidates, key=lambda c: abs(c - p2_target))
            point = [alpha, beta, p2]
            grids = (self.alpha_grid, self.beta_grid, p2_candidates)
            # The seed is priced with the first round's alpha axis, which
            # holds it.
            first_axis = ([key(value, beta, p2) for value in self.alpha_grid]
                          if max_rounds > 0 else [])
            price([key(*point)] + first_axis)
            best_time = costs[key(*point)]
            for _ in range(max_rounds):
                improved = False
                for axis, values in enumerate(grids):
                    keys = [key(*point[:axis], value, *point[axis + 1:])
                            for value in values]
                    price(keys)
                    for value, k in zip(values, keys):
                        if costs[k] < best_time:
                            best_time, point[axis], improved = \
                                costs[k], value, True
                if not improved:
                    break
            best = tuple(point)

        if best is None:
            raise ConfigurationError("scheduler search evaluated no candidates")
        alpha, beta, p2 = best
        config = SchedulerConfig(offload_ratio=alpha, recompute_ratio=beta,
                                 phase2_step=p1, phase3_step=max(p1, p2))
        return ScheduleSolution(config=config, estimated_time=best_time,
                                gpu_budget_tokens=gpu_budget,
                                evaluated_candidates=len(costs))

    def _solve_phase1_only(self, gpu_budget: int,
                           seed: tuple[float, float, float] | None
                           ) -> ScheduleSolution:
        """What the search returns when every step runs in Phase I.

        Phase I moves nothing and the ``p2`` grid is ``{n}``, so every
        candidate costs exactly the compute total, and the search's strict
        ``<`` keeps the first one it priced: the grid's first candidate in
        a cold sweep, the snapped seed in a descent.  The solution counts
        one evaluated candidate.
        """
        if seed is None:
            if not (self.alpha_grid and self.beta_grid):
                raise ConfigurationError(
                    "scheduler search evaluated no candidates")
            alpha, beta = self.alpha_grid[0], self.beta_grid[0]
        else:
            alpha = min(self.alpha_grid, key=lambda g: abs(g - seed[0]))
            beta = min(self.beta_grid, key=lambda g: abs(g - seed[1]))
        n = self.workload.output_len
        config = SchedulerConfig(offload_ratio=alpha, recompute_ratio=beta,
                                 phase2_step=n, phase3_step=n)
        return ScheduleSolution(
            config=config,
            estimated_time=_compute_total(self.cost_model, self.workload,
                                          self.swa),
            gpu_budget_tokens=gpu_budget, evaluated_candidates=1)
