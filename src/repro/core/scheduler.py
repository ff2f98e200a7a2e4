"""ALISA's three-phase token-level dynamic scheduling (Algorithm 2).

The scheduler decides, for every decoding step, where each token's KV
tensors live (GPU memory, CPU memory, or deleted-and-recomputed) and what
must move this step:

* **Phase I — GPU caching**: all KV tensors fit in GPU memory; nothing moves.
* **Phase II — GPU-CPU caching**: the KV working set exceeds the GPU budget;
  tokens are split at token granularity, keeping the locally static (most
  recent) tokens on the GPU because SWA always needs them, and offloading a
  fraction ``alpha`` of the older tokens to CPU memory.  Globally dynamic
  tokens that happen to live on the CPU are reloaded on demand.
* **Phase III — recomputation-caching**: beyond step ``p2``, the oldest
  ``beta`` fraction of CPU-resident tokens is deleted; if SWA selects one of
  them, its KV tensors are recomputed on the GPU instead of being fetched
  over PCIe.

The scheduler is deliberately *expected-value* (it tracks token counts, not
identities): ALISA's global token selection is content-dependent, so the
simulator charges the expected fraction of global tokens that reside in each
tier.  This is the same level of abstraction the paper's own cost model
(Equations 3–6) uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._common import ConfigurationError, round_half_up, validate_fraction, validate_positive
from repro.core.swa import SWAConfig, sequence_table


PHASE_GPU = "phase-1-gpu"
PHASE_GPU_CPU = "phase-2-gpu-cpu"
PHASE_RECOMPUTE = "phase-3-recompute"

PHASES = (PHASE_GPU, PHASE_GPU_CPU, PHASE_RECOMPUTE)


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable parameters of Algorithm 2 (Table II notation).

    ``offload_ratio`` is ``alpha`` — the fraction of non-local KV tokens kept
    in CPU memory during Phases II/III.  ``recompute_ratio`` is ``beta`` —
    the fraction of CPU-resident tokens deleted (and recomputed on demand)
    during Phase III.  ``phase2_step``/``phase3_step`` are ``p1``/``p2``,
    expressed as decoding-step indices (0-based); they are normally derived
    by :class:`~repro.core.optimizer.SchedulerOptimizer`.
    """

    offload_ratio: float
    recompute_ratio: float
    phase2_step: int
    phase3_step: int

    def __post_init__(self) -> None:
        validate_fraction(offload_ratio=self.offload_ratio,
                          recompute_ratio=self.recompute_ratio)
        if self.phase2_step < 0 or self.phase3_step < 0:
            raise ConfigurationError("phase switch steps must be non-negative")
        if self.phase3_step < self.phase2_step:
            raise ConfigurationError(
                "phase3_step (p2) must be >= phase2_step (p1); got "
                f"p1={self.phase2_step}, p2={self.phase3_step}"
            )


@dataclass(frozen=True)
class StepPlan:
    """What happens at one decoding step (the load/compute/store of Alg. 2)."""

    step: int
    sequence_length: int
    phase: str
    kept_tokens: int
    kept_local: int
    kept_global: int
    tokens_gpu: int
    tokens_cpu: int
    tokens_deleted: int
    load_tokens: float
    offload_tokens: float
    recompute_tokens: float

    def validate(self) -> None:
        total = self.tokens_gpu + self.tokens_cpu + self.tokens_deleted
        if total != self.sequence_length:
            raise ConfigurationError(
                f"token placement ({total}) does not cover the sequence "
                f"({self.sequence_length})"
            )


@dataclass(slots=True)
class EpochSchedule:
    """Array-of-structs view of ``num_steps`` consecutive step plans.

    Produced by :meth:`DynamicScheduler.plan_epoch`; entry ``j`` of every
    array equals the corresponding field of the :class:`StepPlan` that
    ``plan_step(j)`` would return after :meth:`DynamicScheduler.plan_prefill`.
    The fields are what pricing reads.  Steps before Phase III delete and
    recompute nothing, so an epoch without Phase III has no ``deleted`` or
    ``recomputed`` array (``None``); the step-plan views below are computed
    on each read.  Not frozen, for the reason
    :class:`~repro.systems.simulator.EpochPlan` is not.
    """

    phases: tuple[str, ...]
    first_seq: int
    kept_local: np.ndarray
    kept_global: np.ndarray
    tokens_cpu: np.ndarray
    load_tokens: np.ndarray
    offload_tokens: np.ndarray
    deleted: np.ndarray | None = None
    recomputed: np.ndarray | None = None

    @property
    def num_steps(self) -> int:
        return len(self.phases)

    @property
    def kept_tokens(self) -> np.ndarray:
        return self.kept_local + self.kept_global

    @property
    def tokens_deleted(self) -> np.ndarray:
        if self.deleted is None:
            return np.zeros(self.num_steps, dtype=np.int64)
        return self.deleted

    @property
    def recompute_tokens(self) -> np.ndarray:
        if self.recomputed is None:
            return np.zeros(self.num_steps)
        return self.recomputed

    @property
    def tokens_gpu(self) -> np.ndarray:
        """Each step's GPU-resident tokens: the rest of its sequence."""
        seq = np.arange(self.first_seq, self.first_seq + self.num_steps)
        gpu = seq - self.tokens_cpu
        return gpu if self.deleted is None else gpu - self.deleted


@dataclass
class SchedulerState:
    """Mutable token-placement state carried across steps."""

    tokens_gpu: int = 0
    tokens_cpu: int = 0
    tokens_deleted: int = 0


def phase3_placement(local: list[int], first_seq: int, stop_seq: int,
                     alpha: float, beta: float, budget: int
                     ) -> tuple[list[int], list[int]]:
    """Phase III token placement, step by step from a fresh deletion state.

    The steps run at sequence lengths ``first_seq .. stop_seq - 1``;
    ``local`` is the local window per sequence length
    (:meth:`~repro.core.swa.SequenceTable.local_list`).  Returns the
    CPU-resident and cumulative deleted token counts of each step: the
    values :meth:`DynamicScheduler.plan_step` reaches when Phase III
    starts at ``first_seq`` with nothing deleted yet.  Algorithm 2
    deletes a running ``beta`` fraction of an evolving CPU-resident set,
    so each step's target depends on the previous step's: this is an
    inherently sequential recurrence, run over Python ints
    (``round_half_up`` of a non-negative ``x`` is ``int(x + 0.5)``).
    """
    cpu_run: list[int] = []
    deleted_run: list[int] = []
    deleted = 0
    for seq, local_j in zip(range(first_seq, stop_seq),
                            local[first_seq:stop_seq]):
        non_local = seq - deleted - local_j
        if non_local < 0:
            non_local = 0
        target = int(alpha * non_local + 0.5)
        min_cpu = seq - deleted - budget
        if target < min_cpu:
            target = min_cpu
        if target > non_local:
            target = non_local
        newly = int(beta * (target + deleted) + 0.5) - deleted
        if newly < 0:
            newly = 0
        if newly > target:
            newly = target
        deleted += newly
        cpu_run.append(target - newly)
        deleted_run.append(deleted)
    return cpu_run, deleted_run


class DynamicScheduler:
    """Three-phase token-level scheduler for one inference run.

    Parameters
    ----------
    config:
        The ``alpha, beta, p1, p2`` tuple, or ``None`` for a scheduler that
        only places the prompt: :meth:`plan_prefill` reads no schedule
        parameter, and decode planning raises.
    swa:
        SWA configuration; determines how many tokens attention touches per
        step and how they split into local (GPU-resident) and global tokens.
    gpu_budget_tokens:
        Maximum number of KV tokens the GPU can hold (after weights and
        activations are accounted for).  The scheduler never exceeds it,
        entering Phase II early if ``p1`` alone would overflow the GPU.
    prompt_len:
        Input sequence length ``s``; the step index ``j`` counts generated
        tokens, so the sequence length at step ``j`` is ``s + j + 1``.
    """

    def __init__(self, config: SchedulerConfig | None, swa: SWAConfig,
                 gpu_budget_tokens: int, prompt_len: int) -> None:
        validate_positive(gpu_budget_tokens=gpu_budget_tokens,
                          prompt_len=prompt_len)
        self.config = config
        self.swa = swa
        self.gpu_budget_tokens = gpu_budget_tokens
        self.prompt_len = prompt_len
        self.state = SchedulerState()
        self._prefilled = False
        self._next_step = 0

    # ------------------------------------------------------------------ #
    # phase logic
    # ------------------------------------------------------------------ #
    def _require_schedule(self) -> None:
        if self.config is None:
            raise ConfigurationError(
                "this scheduler places the prompt only (no decode schedule "
                "was solved); prepare the decode workload before planning "
                "decode steps")

    def phase_for_step(self, step: int, sequence_length: int) -> str:
        """Which phase the given decoding step runs in."""
        if step >= self.config.phase3_step:
            return PHASE_RECOMPUTE
        if step >= self.config.phase2_step or sequence_length > self.gpu_budget_tokens:
            return PHASE_GPU_CPU
        return PHASE_GPU

    # ------------------------------------------------------------------ #
    # prefill placement
    # ------------------------------------------------------------------ #
    def plan_prefill(self) -> StepPlan:
        """Place the prompt's KV tensors (the prefilling stage)."""
        if self._prefilled:
            raise ConfigurationError("plan_prefill may only be called once")
        self._prefilled = True
        seq_len = self.prompt_len
        phase = PHASE_GPU if seq_len <= self.gpu_budget_tokens else PHASE_GPU_CPU
        if phase == PHASE_GPU:
            tokens_gpu, tokens_cpu = seq_len, 0
        else:
            tokens_gpu = min(seq_len, self.gpu_budget_tokens)
            tokens_cpu = seq_len - tokens_gpu
        self.state = SchedulerState(tokens_gpu=tokens_gpu, tokens_cpu=tokens_cpu)
        num_local, num_global = self.swa.split_budget(seq_len)
        plan = StepPlan(
            step=-1, sequence_length=seq_len, phase=phase,
            kept_tokens=num_local + num_global, kept_local=num_local,
            kept_global=num_global, tokens_gpu=tokens_gpu, tokens_cpu=tokens_cpu,
            tokens_deleted=0, load_tokens=0.0, offload_tokens=float(tokens_cpu),
            recompute_tokens=0.0,
        )
        plan.validate()
        return plan

    # ------------------------------------------------------------------ #
    # per-step planning (Algorithm 2 body)
    # ------------------------------------------------------------------ #
    def plan_step(self, step: int) -> StepPlan:
        """Plan the load/compute/store of decoding step ``step`` (0-based)."""
        if not self._prefilled:
            raise ConfigurationError("plan_prefill must run before plan_step")
        self._require_schedule()
        if step != self._next_step:
            raise ConfigurationError(
                f"steps must be planned sequentially: expected step "
                f"{self._next_step}, got {step}"
            )
        self._next_step += 1

        sequence_length = self.prompt_len + step + 1
        phase = self.phase_for_step(step, sequence_length)
        num_local, num_global = self.swa.split_budget(sequence_length)
        kept = num_local + num_global

        state = self.state
        # The newly generated token is always computed and stored on the GPU.
        tokens_gpu = state.tokens_gpu + 1
        tokens_cpu = state.tokens_cpu
        tokens_deleted = state.tokens_deleted
        offload_tokens = 0.0
        load_tokens = 0.0
        recompute_tokens = 0.0

        if phase != PHASE_GPU:
            # Keep the locally static window plus headroom on the GPU; push a
            # fraction alpha of the remaining (older) tokens to the CPU.
            non_local = max(0, sequence_length - tokens_deleted - num_local)
            target_cpu = round_half_up(self.config.offload_ratio * non_local)
            gpu_cap = self.gpu_budget_tokens
            min_cpu_for_capacity = max(
                0, sequence_length - tokens_deleted - gpu_cap
            )
            target_cpu = max(target_cpu, min_cpu_for_capacity)
            target_cpu = min(target_cpu, non_local)

            if phase == PHASE_RECOMPUTE:
                # Delete the oldest beta fraction of CPU-resident tokens.
                target_deleted = round_half_up(
                    self.config.recompute_ratio * (target_cpu + tokens_deleted)
                )
                newly_deleted = max(0, target_deleted - tokens_deleted)
                newly_deleted = min(newly_deleted, target_cpu)
                tokens_deleted += newly_deleted
                target_cpu -= newly_deleted

            new_cpu = target_cpu
            offload_tokens = max(0.0, float(new_cpu - tokens_cpu))
            tokens_cpu = new_cpu
            tokens_gpu = sequence_length - tokens_cpu - tokens_deleted

            # Globally dynamic tokens are spread over the non-local part of
            # the sequence; charge the expected fraction living on the CPU
            # (reloaded over PCIe) and in the deleted range (recomputed).
            non_local_total = max(1, sequence_length - num_local)
            cpu_fraction = tokens_cpu / non_local_total
            deleted_fraction = tokens_deleted / non_local_total
            load_tokens = num_global * cpu_fraction
            recompute_tokens = num_global * deleted_fraction

        self.state = SchedulerState(tokens_gpu=tokens_gpu, tokens_cpu=tokens_cpu,
                                    tokens_deleted=tokens_deleted)
        plan = StepPlan(
            step=step, sequence_length=sequence_length, phase=phase,
            kept_tokens=kept, kept_local=num_local, kept_global=num_global,
            tokens_gpu=tokens_gpu, tokens_cpu=tokens_cpu,
            tokens_deleted=tokens_deleted, load_tokens=load_tokens,
            offload_tokens=offload_tokens, recompute_tokens=recompute_tokens,
        )
        plan.validate()
        return plan

    def plan_run(self, num_steps: int) -> list[StepPlan]:
        """Plan prefill plus ``num_steps`` decoding steps."""
        plans = [self.plan_prefill()]
        plans.extend(self.plan_step(j) for j in range(num_steps))
        return plans

    # ------------------------------------------------------------------ #
    # vectorized epoch planning (the serving fast path)
    # ------------------------------------------------------------------ #
    def plan_epoch(self, num_steps: int) -> EpochSchedule:
        """Plan steps ``0 .. num_steps - 1`` in one vectorized call.

        Equivalent to :meth:`plan_prefill` followed by ``num_steps`` calls
        of :meth:`plan_step` on a fresh scheduler, but it reads and changes
        no scheduler state: the placement after the prefill is
        :meth:`plan_prefill`'s integer arithmetic (the prompt tokens beyond
        the GPU budget sit on the CPU), so no prefill has to be planned
        first.  Phases I/II are closed-form in the step index and evaluate
        array-wise; Phase III's deleted-token count is an inherently
        sequential recurrence, so it runs as a tight integer loop
        (:func:`phase3_placement`) — still orders of magnitude cheaper than
        building and validating a :class:`StepPlan` per step.
        ``kept_local``/``kept_global`` are read-only views of the SWA
        config's :class:`~repro.core.swa.SequenceTable`.
        """
        self._require_schedule()
        validate_positive(num_steps=num_steps)
        config = self.config
        budget = self.gpu_budget_tokens
        prompt = self.prompt_len

        # The phases are three contiguous runs of steps.  Phase III starts
        # at p2; Phase II at p1 or at the first step whose sequence
        # overflows the GPU budget (the sequence grows one token a step),
        # whichever comes first.
        phase3_start = min(config.phase3_step, num_steps)
        phase2_start = min(config.phase2_step, max(0, budget - prompt),
                           phase3_start)
        phases = ((PHASE_GPU,) * phase2_start
                  + (PHASE_GPU_CPU,) * (phase3_start - phase2_start)
                  + (PHASE_RECOMPUTE,) * (num_steps - phase3_start))

        # Per-sequence-length counts are read-only slices of the SWA
        # config's table.
        first = prompt + 1
        stop = first + num_steps
        table = sequence_table(self.swa, stop - 1)
        num_local = table.num_local[first:stop]
        num_global = table.num_global[first:stop]
        if phase2_start == num_steps:
            # Phase I throughout: every token stays on the GPU.
            return EpochSchedule(
                phases, first, num_local, num_global,
                tokens_cpu=np.zeros(num_steps, dtype=np.int64),
                load_tokens=np.zeros(num_steps),
                offload_tokens=np.zeros(num_steps))

        # Phase I keeps nothing on the CPU.
        cpu_runs = [np.zeros(phase2_start, dtype=np.int64)] \
            if phase2_start else []
        if phase2_start < phase3_start:
            # Phase II: nothing has been deleted yet, so the CPU-resident
            # target is a pure function of the step: round_half_up of
            # alpha times the non-local tokens (the sum is positive, so
            # truncation is the floor), at least the tokens beyond the GPU
            # budget and at most the non-local tokens.  The target is
            # non-negative, so it needs no clamp of the overflow at 0.
            non_local = table.non_local[first + phase2_start:
                                        first + phase3_start]
            target_cpu = (config.offload_ratio * non_local
                          + 0.5).astype(np.int64)
            overflow = np.arange(first + phase2_start - budget,
                                 first + phase3_start - budget)
            cpu_runs.append(np.minimum(np.maximum(target_cpu, overflow),
                                       non_local))
        deleted = recomputed = None
        if phase3_start < num_steps:
            cpu_run, deleted_run = phase3_placement(
                table.local_list(), first + phase3_start, stop,
                config.offload_ratio, config.recompute_ratio, budget)
            cpu_runs.append(np.array(cpu_run, dtype=np.int64))
            deleted = np.zeros(num_steps, dtype=np.int64)
            deleted[phase3_start:] = deleted_run
        tokens_cpu = (cpu_runs[0] if len(cpu_runs) == 1
                      else np.concatenate(cpu_runs))

        # The step's offload is the growth of the CPU-resident share over
        # the previous plan; step 0 follows the prefill placement.  Before
        # Phase II the prompt fits the budget, so every share is 0 and the
        # steps move nothing.
        prefill_cpu = prompt - min(prompt, budget)
        previous_cpu = np.concatenate(([prefill_cpu], tokens_cpu[:-1]))
        offload = np.maximum(0.0, tokens_cpu - previous_cpu)
        # Global tokens on the CPU are reloaded and deleted ones
        # recomputed, by their expected share of the non-local tokens.
        non_local_total = table.non_local_total[first:stop]
        load = num_global * (tokens_cpu / non_local_total)
        if deleted is not None:
            recomputed = num_global * (deleted / non_local_total)
        return EpochSchedule(
            phases, first, num_local, num_global, tokens_cpu=tokens_cpu,
            load_tokens=load, offload_tokens=offload, deleted=deleted,
            recomputed=recomputed)
