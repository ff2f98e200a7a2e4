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
:class:`~repro.systems.trace.InferenceTrace`.  The online serving
engine (:mod:`repro.serving.engine`) manages request admission and KV
residency itself and prices whole decode epochs
(:meth:`InferenceSimulator.epoch_timings`) and prefill passes
(:meth:`InferenceSimulator.prefill_timing`).
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


@dataclass(slots=True)
class EpochPlan:
    """Vectorized decode-step plans for one fixed-composition epoch.

    The array-of-structs counterpart of a list of
    :class:`SystemStepPlan` records: one entry per decode step, with the
    same field semantics.  ``None`` fields mean "all zeros" (for token
    movement) or "dense attention at every step" (``kept_kv``), so simple
    systems do not have to materialize zero arrays.  ``swa_split``, when
    set, declares that ``kept_kv``/``local_windows`` are exactly that SWA
    configuration's split of each step's sequence length, so the step
    compute can be read from the cost model's step table.  Not frozen: a
    frozen dataclass sets each field through ``object.__setattr__``,
    which is a measurable share of planning a short epoch.
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


class EpochTimings:
    """Priced decode steps of one epoch.

    Produced by :meth:`InferenceSimulator.epoch_timings` in one pricing
    pass, which computes only what a serving memo keeps: ``total_times``
    (each step's wall-clock time), ``comm_per_step`` (the interconnect
    share of every step) and, as Python floats, the per-step PCIe bytes
    of each direction that the step loop would have recorded on
    ``memory.link``: ``h2d_moved`` (reloads plus any extra host-to-device
    bytes) and ``d2h_moved`` (offloads).  A direction that moves no byte
    in the whole epoch is ``None``, so a caller replaying the traffic
    onto a ledger can skip it.

    The other fields of :attr:`FIELDS` are report-only (read by
    :meth:`InferenceSimulator.run` and the figures) and are computed from
    the plan and the priced terms on each read, zeros for a term the plan
    does not have.  Every field is identical, entry for entry, to the
    :class:`StepTiming` records the step loop would produce
    (``gpu_used_bytes``/``cpu_used_bytes`` are filled in by
    :meth:`InferenceSimulator.run` after applying memory);
    ``h2d_bytes``/``d2h_bytes`` are the byte arrays and
    ``h2d_any``/``d2h_any`` whether they move any byte.
    """

    #: Every per-step field, in report order.
    FIELDS = ("sequence_lengths", "phases", "compute_times",
              "transfer_times", "recompute_times", "overhead_times",
              "total_times", "comm_times", "gpu_kv_bytes", "cpu_kv_bytes",
              "bytes_offloaded", "bytes_reloaded", "h2d_bytes", "d2h_bytes",
              "h2d_any", "d2h_any")

    __slots__ = ("_plan", "_first_seq", "_per_token", "compute_times",
                 "_transfer", "_recompute", "_overhead", "total_times",
                 "comm_per_step", "_reloaded", "_offloaded", "_h2d",
                 "h2d_moved", "d2h_moved")

    def __init__(self, plan: EpochPlan, first_seq: int, per_token: float, *,
                 compute: np.ndarray, transfer: np.ndarray | None,
                 recompute: np.ndarray | None, overhead: np.ndarray | None,
                 total: np.ndarray, comm_per_step: float,
                 reloaded: np.ndarray | None, offloaded: np.ndarray | None,
                 h2d: np.ndarray | None, h2d_moved: list[float] | None,
                 d2h_moved: list[float] | None) -> None:
        self._plan = plan
        self._first_seq = first_seq
        self._per_token = per_token
        self.compute_times = compute
        self._transfer = transfer
        self._recompute = recompute
        self._overhead = overhead
        self.total_times = total
        self.comm_per_step = comm_per_step
        self._reloaded = reloaded
        self._offloaded = offloaded
        self._h2d = h2d
        self.h2d_moved = h2d_moved
        self.d2h_moved = d2h_moved

    @property
    def num_steps(self) -> int:
        return self._plan.num_steps

    @property
    def phases(self) -> tuple[str, ...]:
        return self._plan.phases

    def _or_zeros(self, values: np.ndarray | None) -> np.ndarray:
        return np.zeros(self.num_steps) if values is None else values

    @property
    def sequence_lengths(self) -> np.ndarray:
        return np.arange(self._first_seq, self._first_seq + self.num_steps)

    @property
    def transfer_times(self) -> np.ndarray:
        return self._or_zeros(self._transfer)

    @property
    def recompute_times(self) -> np.ndarray:
        return self._or_zeros(self._recompute)

    @property
    def overhead_times(self) -> np.ndarray:
        return self._or_zeros(self._overhead)

    @property
    def comm_times(self) -> np.ndarray:
        return np.full(self.num_steps, self.comm_per_step)

    @property
    def gpu_kv_bytes(self) -> np.ndarray:
        return self._plan.kv_gpu_tokens * self._per_token

    @property
    def cpu_kv_bytes(self) -> np.ndarray:
        return self._plan.kv_cpu_tokens * self._per_token

    @property
    def bytes_offloaded(self) -> np.ndarray:
        return self._or_zeros(self._offloaded)

    @property
    def bytes_reloaded(self) -> np.ndarray:
        return self._or_zeros(self._reloaded)

    @property
    def h2d_bytes(self) -> np.ndarray:
        return self._or_zeros(self._h2d)

    @property
    def d2h_bytes(self) -> np.ndarray:
        return self._or_zeros(self._offloaded)

    @property
    def h2d_any(self) -> bool:
        return self.h2d_moved is not None

    @property
    def d2h_any(self) -> bool:
        return self.d2h_moved is not None


def _moved_bytes(moved: np.ndarray | None) -> list[float] | None:
    """Per-step transfer sizes as Python floats, or ``None`` when no step
    moves a byte; a negative size is a planning error."""
    if moved is None:
        return None
    values = moved.tolist()
    if min(values) < 0:
        raise ConfigurationError("transfer size must be non-negative")
    return values if any(values) else None


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
        :meth:`epoch_timings`, just not vectorized planning).  It runs
        after :meth:`prepare` alone: the serving engine plans no prefill
        before pricing a decode epoch, so the steps' plans may not depend
        on :meth:`plan_prefill` having run.
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
        capacity is allocated, and ``gpu_used_bytes``/``cpu_used_bytes``
        are left zero.  It is the per-step reference that
        :meth:`epoch_timings` must match; only the clock-stepped serve of
        ``tests/clock_reference.py`` drives it step by step.
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
        ``tests/test_epoch_pricing.py``).  It follows :meth:`prepare`
        alone: :meth:`plan_decode_epoch` needs no :meth:`plan_prefill`.
        Pure pricing — no memory is allocated and no traffic is recorded;
        ``link`` only supplies the PCIe latency/bandwidth (defaults to the
        node's own link).  The pass computes the step totals, the
        communication time and the PCIe bytes; the report-only fields of
        :class:`EpochTimings` wait until they are read.
        """
        plan = self.plan_decode_epoch(workload)
        if link is None:
            link = PCIeLink(self.hardware.node_pcie_bandwidth)
        cost = self.cost_model
        batch = workload.batch_size
        first_seq = workload.input_len + 1
        # Only the terms the plan has are priced.  An absent (``None``) or
        # all-zero token array prices to exactly 0.0 at every step in each
        # formula below, and adding 0.0 to a non-negative term is an
        # identity, so skipping it leaves every value bit-identical.
        per_token = self.kv_token_bytes(workload)
        load, offload = plan.load_kv_tokens, plan.offload_kv_tokens
        extra_h2d = plan.extra_h2d_bytes
        reloaded = None if load is None else load * per_token
        offloaded = None if offload is None else offload * per_token
        if extra_h2d is None:
            h2d_bytes = reloaded
        else:
            # The step loop adds the extra bytes to the reload bytes, which
            # are 0.0 when the plan reloads nothing.
            h2d_bytes = (0.0 if reloaded is None else reloaded) + extra_h2d
        h2d_moved = _moved_bytes(h2d_bytes)
        d2h_moved = _moved_bytes(offloaded)

        if plan.swa_split is not None or (plan.kept_kv is None
                                          and plan.local_windows is None):
            # Dense (split None) or the declared SWA split: a table slice.
            compute = cost.decode_step_times(batch, first_seq,
                                             plan.num_steps, plan.swa_split)
        else:
            compute = cost.decode_step_time_batch(
                batch, first_seq + np.arange(plan.num_steps), plan.kept_kv,
                plan.local_windows)
        transfer = None
        for moved, listed in ((h2d_bytes, h2d_moved), (offloaded, d2h_moved)):
            if listed is not None:
                term = np.where(
                    moved > 0,
                    link.latency_s + moved / link.bandwidth_bytes_per_s, 0.0)
                transfer = term if transfer is None else transfer + term
        recompute = None
        if plan.recompute_tokens is not None:
            recompute_tokens = np.rint(plan.recompute_tokens)
            if np.count_nonzero(recompute_tokens):
                recompute = cost.recompute_time_batch(batch, recompute_tokens)
        if self.overlap_io and transfer is not None:
            # An absent transfer term stays 0.0: compute is always positive.
            transfer = transfer - compute
            if recompute is not None:
                transfer = transfer - recompute
            transfer = np.maximum(0.0, transfer)
        cpu_tokens = plan.cpu_attention_tokens
        if cpu_tokens is not None and np.count_nonzero(cpu_tokens):
            term = cost.cpu_attention_time_batch(batch, cpu_tokens,
                                                 self.kv_dtype)
            transfer = term if transfer is None else transfer + term
        overhead = plan.extra_overhead_s
        quantized = plan.quantize_tokens
        if quantized is not None and np.count_nonzero(quantized):
            # quantize_time_batch prices a step whose rounded count is not
            # positive at 0.0, as the step loop's ``quantize_tokens > 0``
            # test does.
            term = cost.quantize_time_batch(batch, np.rint(quantized))
            overhead = term if overhead is None else overhead + term
        total = compute
        for term in (transfer, recompute, overhead):
            if term is not None:
                total = total + term
        return EpochTimings(
            plan, first_seq, per_token, compute=compute, transfer=transfer,
            recompute=recompute, overhead=overhead, total=total,
            comm_per_step=self.parallel_comm_time(workload),
            reloaded=reloaded, offloaded=offloaded, h2d=h2d_bytes,
            h2d_moved=h2d_moved, d2h_moved=d2h_moved)

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
        columns = zip(epoch.sequence_lengths.tolist(), epoch.phases,
                      epoch.compute_times.tolist(),
                      epoch.transfer_times.tolist(),
                      epoch.recompute_times.tolist(),
                      epoch.overhead_times.tolist(),
                      epoch.gpu_kv_bytes.tolist(),
                      epoch.cpu_kv_bytes.tolist(),
                      epoch.bytes_offloaded.tolist(),
                      epoch.bytes_reloaded.tolist())
        for step, (seq_len, phase, compute, transfer, recompute, overhead,
                   gpu_kv, cpu_kv, offloaded, reloaded) in enumerate(columns):
            memory.gpu.resize(KV_GPU, gpu_kv)
            memory.cpu.resize(KV_CPU, cpu_kv)
            trace.add_step(StepTiming(
                step=step, sequence_length=seq_len, phase=phase,
                compute_time=compute, transfer_time=transfer,
                recompute_time=recompute, overhead_time=overhead,
                gpu_kv_bytes=gpu_kv, cpu_kv_bytes=cpu_kv,
                gpu_used_bytes=memory.gpu.used_bytes,
                cpu_used_bytes=memory.cpu.used_bytes,
                bytes_offloaded=offloaded, bytes_reloaded=reloaded,
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

    def gpu_kv_budget_tokens(self, batch_size: int, input_len: int) -> int:
        """KV tokens of a ``(b, s)`` shape that fit in node GPU memory next
        to weights/activations: the cost model's
        :meth:`~repro.systems.cost.LLMCostModel.kv_budget_tokens` for this
        simulator's KV dtype and weight placement."""
        return self.cost_model.kv_budget_tokens(
            batch_size, input_len, self.kv_dtype, self.weights_on_gpu)
