"""FlexGen-style static offloading (the paper's primary baseline).

FlexGen [31] solves an offline linear program that fixes, before inference
starts, which fraction of the KV cache lives on the GPU; the split is
head-level and *static* — it does not react to the sequence growing
(Figure 7 (a)).  The plan must therefore be feasible at the **maximum**
sequence length, which means the GPU share is conservative and CPU-resident
KV tensors are streamed over PCIe at every decoding step.

An explicit ``cpu_fraction`` override reproduces the 50% / 100% bars of
Figure 1; by default the fraction is derived from the capacity constraint at
the maximum sequence length, as FlexGen's planner would.
"""

from __future__ import annotations

import numpy as np

from repro._common import validate_fraction
from repro.systems.simulator import (
    EpochPlan,
    InferenceSimulator,
    SystemStepPlan,
)
from repro.workloads.descriptors import Workload

PHASE_STATIC = "static"


class FlexGenSystem(InferenceSimulator):
    """Static head-level GPU/CPU split of the KV cache."""

    name = "flexgen"
    overlap_io = True

    def __init__(self, model, hardware, cpu_fraction: float | None = None,
                 **kwargs) -> None:
        super().__init__(model, hardware, **kwargs)
        if cpu_fraction is not None:
            validate_fraction(cpu_fraction=cpu_fraction)
        self._requested_cpu_fraction = cpu_fraction
        self._cpu_fraction = cpu_fraction if cpu_fraction is not None else 0.0

    # ------------------------------------------------------------------ #
    def prepare(self, workload: Workload, decode: bool = True) -> None:
        """Solve the static split offline, as FlexGen's planner does."""
        if self._requested_cpu_fraction is not None:
            self._cpu_fraction = self._requested_cpu_fraction
            return
        budget_tokens = self.gpu_kv_budget_tokens(workload.batch_size,
                                                  workload.input_len)
        max_tokens = workload.max_seq_len
        if budget_tokens >= max_tokens:
            self._cpu_fraction = 0.0
        else:
            self._cpu_fraction = 1.0 - budget_tokens / max_tokens

    @property
    def cpu_fraction(self) -> float:
        """Fraction of every token's KV tensors resident in CPU memory."""
        return self._cpu_fraction

    # ------------------------------------------------------------------ #
    def plan_prefill(self, workload: Workload) -> SystemStepPlan:
        cpu_tokens = self._cpu_fraction * workload.input_len
        return SystemStepPlan(
            phase=PHASE_STATIC,
            kv_gpu_tokens=workload.input_len - cpu_tokens,
            kv_cpu_tokens=cpu_tokens,
            offload_kv_tokens=cpu_tokens,
        )

    def plan_decode_step(self, step: int, workload: Workload) -> SystemStepPlan:
        seq_len = workload.input_len + step + 1
        cpu_tokens = self._cpu_fraction * seq_len
        return SystemStepPlan(
            phase=PHASE_STATIC,
            kv_gpu_tokens=seq_len - cpu_tokens,
            kv_cpu_tokens=cpu_tokens,
            # Dense attention touches every token: the CPU-resident share is
            # processed CPU-side next to the data (FlexGen's CPU attention
            # delegation), and the new token's CPU share is written back —
            # the static schedule of Figure 7 (a).
            cpu_attention_tokens=cpu_tokens,
            offload_kv_tokens=self._cpu_fraction,
        )

    def plan_decode_epoch(self, workload: Workload) -> EpochPlan:
        seq = workload.input_len + np.arange(workload.output_len) + 1
        cpu_tokens = self._cpu_fraction * seq
        return EpochPlan(
            phases=(PHASE_STATIC,) * workload.output_len,
            kv_gpu_tokens=seq - cpu_tokens,
            kv_cpu_tokens=cpu_tokens,
            cpu_attention_tokens=cpu_tokens,
            offload_kv_tokens=np.full(seq.size, self._cpu_fraction),
        )

    def epoch_stays_resident(self, batch_size: int, context: int,
                             num_steps: int) -> bool:
        """Whether the split :meth:`prepare` would solve keeps every KV
        tensor on the GPU: a requested ``cpu_fraction`` of 0, or a GPU
        budget that holds the epoch's final sequence length."""
        if self._requested_cpu_fraction is not None:
            return self._requested_cpu_fraction == 0.0
        return (self.gpu_kv_budget_tokens(batch_size, context)
                >= context + num_steps)

    def pricing_signature(self) -> tuple:
        return super().pricing_signature() + (self._requested_cpu_fraction,)
