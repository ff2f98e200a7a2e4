"""Execution traces produced by the system-level inference simulators.

Every simulated system (ALISA and all baselines) runs the same decode loop
and records one :class:`StepTiming` per generated token plus an end-of-run
summary.  Experiments and benchmarks consume these traces to produce the
rows and series of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._common import ConfigurationError, left_sum


@dataclass(frozen=True)
class StepTiming:
    """Timing and memory state of a single decoding step."""

    step: int
    sequence_length: int
    phase: str
    compute_time: float
    transfer_time: float
    recompute_time: float
    overhead_time: float = 0.0
    gpu_kv_bytes: float = 0.0
    cpu_kv_bytes: float = 0.0
    gpu_used_bytes: float = 0.0
    cpu_used_bytes: float = 0.0
    bytes_offloaded: float = 0.0
    bytes_reloaded: float = 0.0

    @property
    def total_time(self) -> float:
        return (self.compute_time + self.transfer_time + self.recompute_time
                + self.overhead_time)


@dataclass
class InferenceTrace:
    """End-to-end record of one simulated inference run."""

    system: str
    model: str
    batch_size: int
    input_len: int
    output_len: int
    prefill_time: float = 0.0
    steps: list[StepTiming] = field(default_factory=list)
    oom: bool = False
    oom_reason: str | None = None
    metadata: dict = field(default_factory=dict)

    def add_step(self, step: StepTiming) -> None:
        self.steps.append(step)

    # ------------------------------------------------------------------ #
    # aggregate metrics
    # ------------------------------------------------------------------ #
    @property
    def decode_time(self) -> float:
        return left_sum(step.total_time for step in self.steps)

    @property
    def total_time(self) -> float:
        return self.prefill_time + self.decode_time

    @property
    def generated_tokens(self) -> int:
        return self.batch_size * len(self.steps)

    @property
    def throughput(self) -> float:
        """Token throughput: generated tokens / end-to-end time (Section VI-A)."""
        if self.oom:
            return 0.0
        if self.total_time <= 0:
            raise ConfigurationError("trace has no recorded time")
        return self.generated_tokens / self.total_time

    @property
    def peak_gpu_bytes(self) -> float:
        if not self.steps:
            return 0.0
        return max(step.gpu_used_bytes for step in self.steps)

    @property
    def peak_cpu_bytes(self) -> float:
        if not self.steps:
            return 0.0
        return max(step.cpu_used_bytes for step in self.steps)

    def time_by_component(self) -> dict[str, float]:
        """Total time split into compute / transfer / recompute / overhead."""
        return {
            "prefill": self.prefill_time,
            "compute": left_sum(s.compute_time for s in self.steps),
            "transfer": left_sum(s.transfer_time for s in self.steps),
            "recompute": left_sum(s.recompute_time for s in self.steps),
            "overhead": left_sum(s.overhead_time for s in self.steps),
        }

    def time_by_phase(self) -> dict[str, float]:
        """Total decode time grouped by scheduling phase."""
        totals: dict[str, float] = {}
        for step in self.steps:
            totals[step.phase] = totals.get(step.phase, 0.0) + step.total_time
        return totals

    def steps_in_phase(self, phase: str) -> list[StepTiming]:
        return [step for step in self.steps if step.phase == phase]

    def phase_boundaries(self) -> dict[str, tuple[int, int]]:
        """First and last sequence length observed in each phase."""
        bounds: dict[str, tuple[int, int]] = {}
        for step in self.steps:
            lo, hi = bounds.get(step.phase, (step.sequence_length, step.sequence_length))
            bounds[step.phase] = (min(lo, step.sequence_length),
                                  max(hi, step.sequence_length))
        return bounds

    def summary(self) -> dict:
        """Flat summary dictionary used by experiment reports."""
        return {
            "system": self.system,
            "model": self.model,
            "batch_size": self.batch_size,
            "input_len": self.input_len,
            "output_len": self.output_len,
            "oom": self.oom,
            "throughput_tokens_per_s": self.throughput if not self.oom else 0.0,
            "total_time_s": self.total_time,
            "prefill_time_s": self.prefill_time,
            "decode_time_s": self.decode_time,
            "peak_gpu_gb": self.peak_gpu_bytes / 1e9,
            "peak_cpu_gb": self.peak_cpu_bytes / 1e9,
            **{f"time_{k}_s": v for k, v in self.time_by_component().items()},
        }
