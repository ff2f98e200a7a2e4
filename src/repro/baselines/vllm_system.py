"""vLLM-style paged KV caching with preemption-based batch scheduling.

vLLM [21] manages KV tensors in fixed-size blocks stored in non-contiguous
paged GPU memory, which eliminates fragmentation and lets it pack the GPU
with as many *concurrently running* sequences as physically fit.  When a
batch does not fit, vLLM does not thrash blocks over PCIe every step — its
scheduler preempts whole sequences and runs the batch in waves, swapping a
preempted sequence's blocks out once and back in once.

This simulator models exactly that behaviour:

* the number of sequences that can run concurrently is derived from the GPU
  KV budget and the maximum sequence length (block-granular);
* the request batch is processed in ``ceil(batch / concurrent)`` waves;
* each preempted wave pays one swap-out plus one swap-in of its KV blocks;
* attention is dense (vLLM has no KV sparsity), so per-step compute matches
  the GPU-only system.

At small batch sizes everything fits, there is a single wave with zero swap
traffic, and vLLM behaves like an efficiently managed GPU-only system —
which is why it outperforms ALISA there (Section VI-C).  At large batch
sizes the wave count grows and ALISA's sparsity-aware token-level caching
pulls ahead, reproducing the crossover of Figure 9.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro._common import validate_positive
from repro.systems.simulator import (
    EpochPlan,
    InferenceSimulator,
    SystemStepPlan,
)
from repro.systems.trace import InferenceTrace
from repro.workloads.descriptors import Workload

PHASE_GPU = "paged-gpu"
PHASE_WAVES = "paged-waves"


class VLLMSystem(InferenceSimulator):
    """Paged attention with preemption-based wave scheduling."""

    name = "vllm"
    overlap_io = True

    def __init__(self, model, hardware, block_size: int = 16, **kwargs) -> None:
        super().__init__(model, hardware, **kwargs)
        validate_positive(block_size=block_size)
        self.block_size = block_size
        self._concurrent = 1
        self._waves = 1
        # Resident-sequence capacity per (input_len, output_len): a pure
        # function of the lengths and this simulator.
        self._sequence_capacity: dict[tuple[int, int], int | None] = {}

    # ------------------------------------------------------------------ #
    def _blocks_per_sequence(self, workload: Workload) -> int:
        return math.ceil(workload.max_seq_len / self.block_size)

    def concurrent_sequences(self, workload: Workload) -> int:
        """How many sequences the paged allocator can keep resident at once."""
        lengths = (workload.input_len, workload.output_len)
        if lengths in self._sequence_capacity:
            capacity = self._sequence_capacity[lengths]
        else:
            per_sequence_workload = Workload(
                batch_size=1, input_len=workload.input_len,
                output_len=workload.output_len, name="per-seq",
            )
            budget_tokens = self.gpu_kv_budget_tokens(per_sequence_workload)
            budget_blocks = budget_tokens // self.block_size
            per_seq_blocks = self._blocks_per_sequence(workload)
            capacity = (None if per_seq_blocks <= 0
                        else budget_blocks // per_seq_blocks)
            self._sequence_capacity[lengths] = capacity
        if capacity is None:
            return workload.batch_size
        return max(1, min(workload.batch_size, capacity))

    def prepare(self, workload: Workload, decode: bool = True) -> None:
        self._concurrent = self.concurrent_sequences(workload)
        self._waves = math.ceil(workload.batch_size / self._concurrent)

    # ------------------------------------------------------------------ #
    # plan hooks operate on a single wave (batch = concurrent sequences)
    # ------------------------------------------------------------------ #
    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        return SystemStepPlan(
            phase=PHASE_GPU if self._waves == 1 else PHASE_WAVES,
            kv_gpu_tokens=workload.input_len, kv_cpu_tokens=0.0,
        )

    def plan_decode_step(self, step: int, workload: Workload) -> SystemStepPlan:
        seq_len = workload.input_len + step + 1
        return SystemStepPlan(
            phase=PHASE_GPU if self._waves == 1 else PHASE_WAVES,
            kv_gpu_tokens=seq_len, kv_cpu_tokens=0.0,
        )

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        seq = workload.input_len + np.arange(workload.output_len) + 1
        phase = PHASE_GPU if self._waves == 1 else PHASE_WAVES
        return EpochPlan(phases=(phase,) * workload.output_len,
                         kv_gpu_tokens=seq, kv_cpu_tokens=np.zeros(seq.size))

    def epoch_stays_resident(self, workload: Workload) -> bool:
        """Always: a wave plan never moves KV, and the wave count only
        changes the phase label, which epoch pricing does not read."""
        return True

    def pricing_signature(self) -> tuple:
        return super().pricing_signature() + (self.block_size,)

    # ------------------------------------------------------------------ #
    def run(self, workload: Workload) -> InferenceTrace:
        """Simulate the request batch as ``waves`` of resident sub-batches."""
        self.prepare(workload)
        waves = self._waves
        wave_workload = Workload(
            batch_size=self._concurrent, input_len=workload.input_len,
            output_len=workload.output_len, name=f"{workload.name}-wave",
        )
        trace = super().run(wave_workload)
        # super().run re-invokes prepare() on the per-wave workload; restore
        # the request-level wave count before scaling the trace.
        self._waves = waves
        if self._waves == 1:
            return trace

        # Preempted waves pay one swap-out + one swap-in of their KV blocks.
        swap_bytes = self.kv_token_bytes(wave_workload) * workload.max_seq_len
        swap_time = 2.0 * swap_bytes / self.cost_model.effective_pcie_bandwidth

        scaled = InferenceTrace(
            system=trace.system, model=trace.model,
            batch_size=workload.batch_size, input_len=workload.input_len,
            output_len=workload.output_len,
            prefill_time=self._waves * trace.prefill_time,
            oom=trace.oom, oom_reason=trace.oom_reason,
            metadata={**trace.metadata, "waves": self._waves,
                      "concurrent_sequences": self._concurrent,
                      "swap_time_per_wave_s": swap_time},
        )
        per_step_swap = (self._waves - 1) * swap_time / max(1, len(trace.steps))
        for step in trace.steps:
            scaled.add_step(replace(
                step,
                compute_time=self._waves * step.compute_time,
                transfer_time=self._waves * step.transfer_time + per_step_swap,
                recompute_time=self._waves * step.recompute_time,
                overhead_time=self._waves * step.overhead_time,
            ))
        return scaled
