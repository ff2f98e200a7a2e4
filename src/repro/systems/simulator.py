"""Shared skeleton for system-level inference simulators.

Every system the paper compares (ALISA, FlexGen, vLLM, HuggingFace
Accelerate, DeepSpeed-ZeRO, plus a GPU-only reference) is expressed as a
*placement policy* over the same substrate: the analytic cost model charges
GPU compute, the memory hierarchy tracks capacity and raises OOM, and the
PCIe link charges every byte moved between CPU and GPU.

A concrete system implements two hooks:

* :meth:`InferenceSimulator.plan_prefill` — where the prompt's KV tensors go;
* :meth:`InferenceSimulator.plan_decode_step` — what moves at each step.

Both return a :class:`SystemStepPlan`; the base class turns plans into
:class:`~repro.systems.trace.StepTiming` records and an
:class:`~repro.systems.trace.InferenceTrace`.  The pricing helpers
(:meth:`InferenceSimulator.prefill_timing`,
:meth:`InferenceSimulator.step_timing`) are also driven step-by-step by the
online serving engine (:mod:`repro.serving.engine`), which manages request
admission and KV residency itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._common import ConfigurationError, OutOfMemoryError
from repro.hardware.presets import HardwareSpec
from repro.model.config import ModelConfig, get_config
from repro.systems.cost import LLMCostModel, ParallelismSpec
from repro.systems.memory import MemoryHierarchy, PCIeLink
from repro.systems.trace import InferenceTrace, StepTiming
from repro.workloads.descriptors import Workload

if TYPE_CHECKING:  # systems price SWA splits without importing repro.core
    from repro.core.swa import SWAConfig

WEIGHTS = "weights"
ACTIVATIONS = "activations"
KV_GPU = "kv-cache-gpu"
KV_CPU = "kv-cache-cpu"


@dataclass(frozen=True)
class SystemStepPlan:
    """Placement and movement decisions for one step of a simulated system."""

    phase: str
    kv_gpu_tokens: float
    kv_cpu_tokens: float
    kept_kv: int | None = None
    local_window: int = 0
    load_kv_tokens: float = 0.0
    offload_kv_tokens: float = 0.0
    recompute_tokens: float = 0.0
    quantize_tokens: float = 0.0
    cpu_attention_tokens: float = 0.0
    extra_h2d_bytes: float = 0.0
    extra_overhead_s: float = 0.0


@dataclass(frozen=True)
class EpochPlan:
    """Vectorized decode-step plans for one fixed-composition epoch.

    The array-of-structs counterpart of a list of
    :class:`SystemStepPlan` records: one entry per decode step, with the
    same field semantics.  ``None`` fields mean "all zeros" (for token
    movement) or "dense attention at every step" (``kept_kv``), so simple
    systems do not have to materialize zero arrays.  ``swa_split``, when
    set, declares that ``kept_kv``/``local_windows`` are exactly that SWA
    configuration's split of each step's sequence length, so the step
    compute can be read from the cost model's step table.
    """

    phases: tuple[str, ...]
    kv_gpu_tokens: np.ndarray
    kv_cpu_tokens: np.ndarray
    kept_kv: np.ndarray | None = None
    local_windows: np.ndarray | None = None
    load_kv_tokens: np.ndarray | None = None
    offload_kv_tokens: np.ndarray | None = None
    recompute_tokens: np.ndarray | None = None
    quantize_tokens: np.ndarray | None = None
    cpu_attention_tokens: np.ndarray | None = None
    extra_h2d_bytes: np.ndarray | None = None
    extra_overhead_s: np.ndarray | None = None
    swa_split: SWAConfig | None = None

    @property
    def num_steps(self) -> int:
        return len(self.phases)

    @classmethod
    def from_step_plans(cls, plans: list[SystemStepPlan],
                        workload: Workload) -> "EpochPlan":
        """Pack per-step :class:`SystemStepPlan` records into arrays.

        This is the generic-fallback packer used for simulators that only
        implement :meth:`InferenceSimulator.plan_decode_step`.  A per-step
        ``kept_kv`` of ``None`` (dense attention) is replaced by the step's
        sequence length, which prices identically (the cost model clamps
        ``kept_kv`` to the sequence length).
        """
        seq_lens = [workload.input_len + step + 1
                    for step in range(len(plans))]
        return cls(
            phases=tuple(plan.phase for plan in plans),
            kv_gpu_tokens=np.array([p.kv_gpu_tokens for p in plans]),
            kv_cpu_tokens=np.array([p.kv_cpu_tokens for p in plans]),
            kept_kv=np.array([
                seq if plan.kept_kv is None else plan.kept_kv
                for seq, plan in zip(seq_lens, plans)]),
            local_windows=np.array([p.local_window for p in plans]),
            load_kv_tokens=np.array([p.load_kv_tokens for p in plans]),
            offload_kv_tokens=np.array([p.offload_kv_tokens for p in plans]),
            recompute_tokens=np.array([p.recompute_tokens for p in plans]),
            quantize_tokens=np.array([p.quantize_tokens for p in plans]),
            cpu_attention_tokens=np.array([p.cpu_attention_tokens
                                           for p in plans]),
            extra_h2d_bytes=np.array([p.extra_h2d_bytes for p in plans]),
            extra_overhead_s=np.array([p.extra_overhead_s for p in plans]),
        )


@dataclass(frozen=True)
class EpochTimings:
    """Vectorized pricing of every decode step of one epoch.

    Produced by :meth:`InferenceSimulator.epoch_timings`; one array entry
    per step, field-for-field identical to the :class:`StepTiming` records
    the step loop would produce (``gpu_used_bytes``/``cpu_used_bytes`` are
    filled in by :meth:`InferenceSimulator.run` after applying memory).
    ``h2d_bytes``/``d2h_bytes`` are the per-step PCIe link traffic
    (reloads plus any extra host-to-device bytes, and offloads) that the
    step loop would have recorded on ``memory.link``; ``h2d_any``/
    ``d2h_any`` say whether either moves any byte at all, so a caller
    replaying the traffic onto a ledger can skip an all-zero direction.
    """

    sequence_lengths: np.ndarray
    phases: tuple[str, ...]
    compute_times: np.ndarray
    transfer_times: np.ndarray
    recompute_times: np.ndarray
    overhead_times: np.ndarray
    total_times: np.ndarray
    comm_times: np.ndarray
    gpu_kv_bytes: np.ndarray
    cpu_kv_bytes: np.ndarray
    bytes_offloaded: np.ndarray
    bytes_reloaded: np.ndarray
    h2d_bytes: np.ndarray
    d2h_bytes: np.ndarray
    h2d_any: bool
    d2h_any: bool

    @property
    def num_steps(self) -> int:
        return len(self.phases)


class InferenceSimulator(ABC):
    """Base class: runs the prefill + decode loop over step plans."""

    #: Display name used in experiment tables.
    name: str = "base"

    #: The attention split whose cost-model step table prices a decode
    #: step that moves no KV (see :meth:`epoch_stays_resident`): ``None``
    #: for dense attention, or the system's
    #: :class:`~repro.core.swa.SWAConfig`.
    step_table_split: SWAConfig | None = None

    #: Whether the system overlaps PCIe transfers with GPU compute (FlexGen,
    #: vLLM, and ALISA pipeline I/O against compute layer by layer; naive
    #: offloading does not).  When enabled, only the *exposed* transfer time
    #: (the part not hidden behind compute) is charged to the step.
    overlap_io: bool = False

    def __init__(self, model: ModelConfig | str, hardware: HardwareSpec,
                 compute_dtype: str = "fp16", kv_dtype: str = "fp16",
                 weights_on_gpu: bool = True,
                 parallelism: ParallelismSpec | None = None) -> None:
        self.config = get_config(model) if isinstance(model, str) else model
        self.hardware = hardware
        if parallelism is None:
            # Multi-GPU nodes default to tensor parallelism across all GPUs;
            # the cost model validates degree == gpu_count either way.
            parallelism = (ParallelismSpec() if hardware.gpu_count == 1
                           else ParallelismSpec(mode="tp",
                                                degree=hardware.gpu_count))
        self.parallelism = parallelism
        self.cost_model = LLMCostModel(self.config, hardware, compute_dtype,
                                       parallelism=parallelism)
        self.kv_dtype = kv_dtype
        self.weights_on_gpu = weights_on_gpu

    # ------------------------------------------------------------------ #
    # hooks for concrete systems
    # ------------------------------------------------------------------ #
    @abstractmethod
    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        """Place the prompt's KV tensors after the prefilling stage."""

    @abstractmethod
    def plan_decode_step(self, step: int, workload: Workload) -> SystemStepPlan:
        """Plan decoding step ``step`` (0-based)."""

    def prepare(self, workload: Workload, decode: bool = True) -> None:
        """Reset any per-run state before a simulation (optional hook).

        The continuous-batching serving engine calls this on every
        decode-epoch pricing miss for which :meth:`epoch_stays_resident`
        answers False, so implementations with expensive offline planning
        should serve repeats incrementally — see
        :meth:`repro.core.engine.AlisaSystem.prepare`, which backs its
        schedule search with a :class:`~repro.core.schedule_cache.ScheduleCache`.
        On a prefill pricing miss for which :meth:`epoch_stays_resident`
        answers False the engine passes ``decode=False``: only
        :meth:`plan_prefill` follows, so planning that only decode steps
        read may be skipped (ALISA skips its schedule search).  Systems
        whose prompt placement depends on that planning, such as vLLM's
        wave count and FlexGen's static split, prepare in full either way.
        A miss that answers True does not prepare at all.
        """

    def epoch_stays_resident(self, batch_size: int, context: int,
                             num_steps: int) -> bool:
        """Whether every decode step of the epoch ``(b, s, n)`` keeps its
        KV on the GPU.

        ``b`` sequences decode ``n`` steps from a resident context of
        ``s`` tokens.  Such an epoch moves, recomputes and quantizes
        nothing, so :meth:`epoch_timings` prices each step at its compute
        alone: the slice of the cost model's step table for
        :attr:`step_table_split` at sequence lengths ``s + 1`` to
        ``s + n``, plus :meth:`parallel_comm_time` per step.  The serving
        engine prices an epoch-cache miss that answers True from that
        slice, without building a workload and without :meth:`prepare`,
        :meth:`plan_prefill` or :meth:`epoch_timings`.

        The answer also covers the prompt: when it is True, the
        :meth:`plan_prefill` of ``Workload(b, s, n)`` places all ``s``
        prompt tokens on the GPU and moves, quantizes and charges nothing
        else, so :meth:`prefill_timing` is the cost model's
        ``prefill_time(b, s)`` alone.  The engine prices a prefill-memo
        miss of shape ``(b, input, output)`` that answers True that way,
        again without a workload or :meth:`prepare`.

        The answer must be cheap (plain arithmetic, no workload), must
        leave planning state alone, and may only be True when
        :meth:`epoch_timings` would price exactly that slice and
        :meth:`prefill_timing` exactly that compute.  The base class
        answers False, so reference baselines and third-party simulators
        keep the planning path.
        """
        return False

    def schedule_stats(self) -> dict[str, int]:
        """Counters describing how offline planning was served (optional).

        Systems without an offline planning stage return an empty dict; the
        serving engine attaches the per-serve increments to its trace
        metadata for observability.
        """
        return {}

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        """Plan every decode step of ``workload`` in one call.

        Concrete systems override this with an array-wise implementation of
        their per-step formula; this generic fallback loops
        :meth:`plan_decode_step` so third-party simulators keep working
        unchanged (they still get vectorized *pricing* via
        :meth:`epoch_timings`, just not vectorized planning).
        """
        plans = [self.plan_decode_step(step, workload)
                 for step in range(workload.output_len)]
        return EpochPlan.from_step_plans(plans, workload)

    def pricing_is_shape_pure(self) -> bool:
        """Whether a planned epoch is a pure function of the workload shape.

        True for every stateless placement policy.  Systems whose per-shape
        plan depends on solver *history* (ALISA's warm-started/canonical
        schedule search seeds from previously solved shapes) return False,
        and a :class:`~repro.systems.pricing.PricingStore` then keeps
        their priced-epoch memos per engine: sharing one across engines
        with independent solver caches could silently change which
        schedule prices a shape.  The
        answer concerns planned epochs only: one that
        :meth:`epoch_stays_resident` is a step-table slice, pure either way.
        """
        return True

    def pricing_signature(self) -> tuple:
        """Hashable identity of this simulator's pricing function.

        Two simulators with equal signatures price identical workload
        shapes identically (given equal solver history — see
        :meth:`pricing_is_shape_pure`), so serving-layer caches (prefill
        plans, priced epochs) may be shared between their engines — a
        :class:`~repro.systems.pricing.PricingStore` keys them by it.
        Subclasses with extra pricing
        knobs must extend the tuple (see ``AlisaSystem``).
        """
        hw = self.hardware
        link = hw.interconnect
        return (
            type(self).__qualname__, self.config.name, hw.name,
            hw.gpu.name, hw.gpu.memory_bytes, hw.gpu.fp16_flops,
            hw.gpu.hbm_bandwidth, hw.gpu.compute_efficiency,
            hw.cpu.name, hw.cpu.memory_bytes, hw.cpu.flops,
            hw.cpu.dram_bandwidth, hw.pcie_bandwidth, hw.gpu_count,
            None if link is None else (link.name, link.bandwidth,
                                       link.latency_s),
            self.cost_model.dtype, self.kv_dtype, self.weights_on_gpu,
            self.parallelism.mode, self.parallelism.degree,
            self.parallelism.pp_microbatches, self.overlap_io,
        )

    # ------------------------------------------------------------------ #
    # shared machinery
    # ------------------------------------------------------------------ #
    def kv_token_bytes(self, workload: Workload) -> float:
        """Bytes of one token's KV tensors across layers and batch."""
        return self.cost_model.kv_bytes_per_token(workload.batch_size,
                                                  self.kv_dtype)

    def _apply_memory(self, plan: SystemStepPlan, workload: Workload,
                      memory: MemoryHierarchy) -> None:
        per_token = self.kv_token_bytes(workload)
        memory.gpu.resize(KV_GPU, plan.kv_gpu_tokens * per_token)
        memory.cpu.resize(KV_CPU, plan.kv_cpu_tokens * per_token)

    def _transfer_time(self, plan: SystemStepPlan, workload: Workload,
                       memory: MemoryHierarchy) -> float:
        per_token = self.kv_token_bytes(workload)
        time = 0.0
        time += memory.link.host_to_device(plan.load_kv_tokens * per_token
                                           + plan.extra_h2d_bytes)
        time += memory.link.device_to_host(plan.offload_kv_tokens * per_token)
        return time

    def prefill_timing(self, plan: SystemStepPlan, workload: Workload,
                       memory: MemoryHierarchy) -> float:
        """Wall-clock time of the prefilling stage under ``plan``.

        Charges GPU compute, PCIe transfers, and — exactly like the decode
        loop — the (de)quantization overhead for any KV tokens the plan
        compresses on their way to CPU memory (Section V-B).
        """
        compute = self.cost_model.prefill_time(workload.batch_size,
                                               workload.input_len)
        transfer = self._transfer_time(plan, workload, memory)
        overhead = plan.extra_overhead_s
        if plan.quantize_tokens > 0:
            overhead += self.cost_model.quantize_time(
                workload.batch_size, int(round(plan.quantize_tokens))
            )
        return compute + transfer + overhead

    def step_timing(self, plan: SystemStepPlan, step: int, workload: Workload,
                    memory: MemoryHierarchy) -> StepTiming:
        """Price one decode-step plan into a :class:`StepTiming`.

        Pure pricing: PCIe traffic is recorded on ``memory.link`` but no
        capacity is allocated, so callers that manage residency themselves
        (the continuous-batching serving engine) can reuse the exact
        accounting of :meth:`run`.  ``gpu_used_bytes``/``cpu_used_bytes`` are
        left zero; :meth:`run` fills them in after applying the plan.
        """
        seq_len = workload.input_len + step + 1
        per_token = self.kv_token_bytes(workload)
        compute = self.cost_model.decode_step_time(
            workload.batch_size, kv_len=seq_len, kept_kv=plan.kept_kv,
            local_window=plan.local_window,
        )
        transfer = self._transfer_time(plan, workload, memory)
        recompute = self.cost_model.recompute_time(
            workload.batch_size, int(round(plan.recompute_tokens))
        )
        if self.overlap_io:
            transfer = max(0.0, transfer - compute - recompute)
        if plan.cpu_attention_tokens > 0:
            # Attention over CPU-resident KV is computed CPU-side and
            # sits on the critical path (counted as KV-caching time).
            transfer += self.cost_model.cpu_attention_time(
                workload.batch_size, plan.cpu_attention_tokens,
                self.kv_dtype,
            )
        overhead = plan.extra_overhead_s
        if plan.quantize_tokens > 0:
            overhead += self.cost_model.quantize_time(
                workload.batch_size, int(round(plan.quantize_tokens))
            )
        return StepTiming(
            step=step, sequence_length=seq_len, phase=plan.phase,
            compute_time=compute, transfer_time=transfer,
            recompute_time=recompute, overhead_time=overhead,
            gpu_kv_bytes=plan.kv_gpu_tokens * per_token,
            cpu_kv_bytes=plan.kv_cpu_tokens * per_token,
            bytes_offloaded=plan.offload_kv_tokens * per_token,
            bytes_reloaded=plan.load_kv_tokens * per_token,
        )

    def epoch_timings(self, workload: Workload,
                      link: PCIeLink | None = None) -> EpochTimings:
        """Price all ``output_len`` decode steps of ``workload`` at once.

        The vectorized counterpart of calling :meth:`plan_decode_step` +
        :meth:`step_timing` once per step: every per-step formula is
        applied array-wise in the same operation order, so the resulting
        arrays are bit-identical to the step loop's values (pinned by
        ``tests/test_epoch_pricing.py``).  Pure pricing — no memory is
        allocated and no traffic is recorded; ``link`` only supplies the
        PCIe latency/bandwidth (defaults to the node's own link).
        """
        plan = self.plan_decode_epoch(workload)
        num_steps = plan.num_steps
        if link is None:
            link = PCIeLink(self.hardware.node_pcie_bandwidth)
        cost = self.cost_model
        batch = workload.batch_size
        # Only the terms the plan has are priced.  An absent (``None``) or
        # all-zero token array prices to exactly 0.0 at every step in each
        # formula below, and adding 0.0 to a non-negative term is an
        # identity, so skipping it leaves every array bit-identical.
        # Reported fields of skipped terms share one zeros array.
        zeros = np.zeros(num_steps)

        seq_lens = workload.input_len + np.arange(num_steps) + 1
        per_token = self.kv_token_bytes(workload)
        load, offload = plan.load_kv_tokens, plan.offload_kv_tokens
        extra_h2d = plan.extra_h2d_bytes
        reloaded = zeros if load is None else load * per_token
        offloaded = zeros if offload is None else offload * per_token
        h2d_bytes = reloaded if extra_h2d is None else reloaded + extra_h2d
        h2d_any = d2h_any = False
        if load is not None or extra_h2d is not None:
            if (h2d_bytes < 0).any():
                raise ConfigurationError("transfer size must be non-negative")
            h2d_any = bool(h2d_bytes.any())
        if offload is not None:
            if (offloaded < 0).any():
                raise ConfigurationError("transfer size must be non-negative")
            d2h_any = bool(offloaded.any())

        if plan.swa_split is not None or (plan.kept_kv is None
                                          and plan.local_windows is None):
            # Dense (split None) or the declared SWA split: a table slice.
            compute = cost.decode_step_times(batch, workload.input_len + 1,
                                             num_steps, plan.swa_split)
        else:
            compute = cost.decode_step_time_batch(
                batch, seq_lens, plan.kept_kv, plan.local_windows)
        transfer = None
        for moved, active in ((h2d_bytes, h2d_any), (offloaded, d2h_any)):
            if active:
                term = np.where(
                    moved > 0,
                    link.latency_s + moved / link.bandwidth_bytes_per_s, 0.0)
                transfer = term if transfer is None else transfer + term
        recompute = None
        if plan.recompute_tokens is not None:
            recompute_tokens = np.rint(plan.recompute_tokens)
            if recompute_tokens.any():
                recompute = cost.recompute_time_batch(batch, recompute_tokens)
        if self.overlap_io and transfer is not None:
            # An absent transfer term stays 0.0: compute is always positive.
            transfer = transfer - compute
            if recompute is not None:
                transfer = transfer - recompute
            transfer = np.maximum(0.0, transfer)
        cpu_tokens = plan.cpu_attention_tokens
        if cpu_tokens is not None and cpu_tokens.any():
            term = cost.cpu_attention_time_batch(batch, cpu_tokens,
                                                 self.kv_dtype)
            transfer = term if transfer is None else transfer + term
        overhead = plan.extra_overhead_s
        quantized = plan.quantize_tokens
        if quantized is not None and quantized.any():
            term = np.where(quantized > 0,
                            cost.quantize_time_batch(batch,
                                                     np.rint(quantized)),
                            0.0)
            overhead = term if overhead is None else overhead + term
        total = compute
        for term in (transfer, recompute, overhead):
            if term is not None:
                total = total + term
        comm = self.parallel_comm_time(workload)
        return EpochTimings(
            sequence_lengths=seq_lens,
            phases=plan.phases,
            compute_times=compute,
            transfer_times=zeros if transfer is None else transfer,
            recompute_times=zeros if recompute is None else recompute,
            overhead_times=zeros if overhead is None else overhead,
            total_times=total,
            comm_times=zeros if comm == 0.0 else np.full(num_steps, comm),
            gpu_kv_bytes=plan.kv_gpu_tokens * per_token,
            cpu_kv_bytes=plan.kv_cpu_tokens * per_token,
            bytes_offloaded=offloaded,
            bytes_reloaded=reloaded,
            h2d_bytes=h2d_bytes,
            d2h_bytes=offloaded,
            h2d_any=h2d_any,
            d2h_any=d2h_any,
        )

    def run(self, workload: Workload) -> InferenceTrace:
        """Simulate one end-to-end inference run of ``workload``.

        Decode steps are priced through the vectorized epoch fast path
        (:meth:`epoch_timings`), bit-identical to planning and pricing them
        one step at a time (pinned by ``tests/test_epoch_pricing.py``).
        """
        memory = MemoryHierarchy.from_hardware(self.hardware)
        trace = InferenceTrace(
            system=self.name, model=self.config.name,
            batch_size=workload.batch_size, input_len=workload.input_len,
            output_len=workload.output_len,
            metadata={"hardware": self.hardware.name, "kv_dtype": self.kv_dtype},
        )
        self.prepare(workload)
        try:
            self._allocate_static(workload, memory)

            prefill_plan = self.plan_prefill(workload)
            trace.prefill_time = self.prefill_timing(prefill_plan, workload,
                                                     memory)
            self._apply_memory(prefill_plan, workload, memory)

            self._run_decode_fast(workload, memory, trace)
        except OutOfMemoryError as exc:
            trace.oom = True
            trace.oom_reason = str(exc)
        return trace

    def _run_decode_fast(self, workload: Workload, memory: MemoryHierarchy,
                         trace: InferenceTrace) -> None:
        """Epoch-priced decode loop of :meth:`run`.

        Pricing is vectorized; only the per-step memory-ledger updates
        (which carry the OOM semantics and the ``*_used_bytes`` snapshots)
        and the trace records remain per step.
        """
        epoch = self.epoch_timings(workload, memory.link)
        for step in range(epoch.num_steps):
            memory.gpu.resize(KV_GPU, float(epoch.gpu_kv_bytes[step]))
            memory.cpu.resize(KV_CPU, float(epoch.cpu_kv_bytes[step]))
            trace.add_step(StepTiming(
                step=step,
                sequence_length=int(epoch.sequence_lengths[step]),
                phase=epoch.phases[step],
                compute_time=float(epoch.compute_times[step]),
                transfer_time=float(epoch.transfer_times[step]),
                recompute_time=float(epoch.recompute_times[step]),
                overhead_time=float(epoch.overhead_times[step]),
                gpu_kv_bytes=float(epoch.gpu_kv_bytes[step]),
                cpu_kv_bytes=float(epoch.cpu_kv_bytes[step]),
                gpu_used_bytes=memory.gpu.used_bytes,
                cpu_used_bytes=memory.cpu.used_bytes,
                bytes_offloaded=float(epoch.bytes_offloaded[step]),
                bytes_reloaded=float(epoch.bytes_reloaded[step]),
            ))

    # ------------------------------------------------------------------ #
    def _allocate_static(self, workload: Workload,
                         memory: MemoryHierarchy) -> None:
        """Allocate weights and activations before any KV tensors."""
        weight_bytes = self.cost_model.weight_bytes()
        if self.weights_on_gpu:
            memory.gpu.allocate(WEIGHTS, weight_bytes)
        else:
            memory.cpu.allocate(WEIGHTS, weight_bytes)
        memory.gpu.allocate(
            ACTIVATIONS,
            self.cost_model.activation_bytes(workload.batch_size,
                                             workload.input_len),
        )

    # ------------------------------------------------------------------ #
    def parallel_comm_time(self, workload: Workload,
                           query_len: int = 1) -> float:
        """Interconnect time of one forward pass under TP/PP (0 on 1 GPU)."""
        return self.cost_model.parallel_comm_time(workload.batch_size,
                                                  query_len)

    def gpu_kv_budget_tokens(self, workload: Workload,
                             reserve_fraction: float = 0.05) -> int:
        """KV tokens that fit in node GPU memory next to weights/activations.

        The byte accounting (aggregate capacity, weights charged once,
        activations per GPU) lives in
        :meth:`~repro.systems.cost.LLMCostModel.kv_budget_bytes`, shared
        with the offline scheduler's capacity constraint.
        """
        return self._kv_budget_tokens(workload.batch_size, workload.input_len,
                                      reserve_fraction)

    def _kv_budget_tokens(self, batch_size: int, input_len: int,
                          reserve_fraction: float = 0.05) -> int:
        """:meth:`gpu_kv_budget_tokens` of a ``(b, s)`` shape, without a
        workload."""
        cost = self.cost_model
        capacity = cost.kv_budget_bytes(batch_size, input_len,
                                        self.weights_on_gpu, reserve_fraction)
        per_token = cost.kv_bytes_per_token(batch_size, self.kv_dtype)
        return max(1, int(capacity // per_token)) if capacity > 0 else 1
