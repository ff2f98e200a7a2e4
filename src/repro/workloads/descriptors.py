"""Workload descriptors for the system-level experiments.

A workload is the (batch size, input length, output length) triple the paper
calls ``(b, s, n)``.  The system evaluation (Figure 9) samples prompts from
the Alpaca dataset with ``s = 128`` and ``n = 512`` and sweeps the batch
size from 4 to 64; the motivation figure (Figure 1) uses three heavier
workloads on OPT-6.7B.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._common import validate_positive


@dataclass(frozen=True)
class Workload:
    """An inference workload: ``b`` sequences of ``s`` input + ``n`` output tokens."""

    batch_size: int
    input_len: int
    output_len: int
    name: str = "workload"

    def __post_init__(self) -> None:
        validate_positive(batch_size=self.batch_size, input_len=self.input_len,
                          output_len=self.output_len)

    @property
    def max_seq_len(self) -> int:
        return self.input_len + self.output_len

    def with_batch_size(self, batch_size: int) -> "Workload":
        return replace(self, batch_size=batch_size,
                       name=f"{self.name}-b{batch_size}")


#: The throughput-evaluation workload of Section VI-A: Alpaca prompts,
#: input length 128, output length 512.
ALPACA_WORKLOAD = Workload(batch_size=16, input_len=128, output_len=512,
                           name="alpaca")

#: Batch sizes swept in Figure 9.
FIGURE9_BATCH_SIZES = (4, 8, 16, 32, 64)

#: The three motivation workloads of Figure 1 (OPT-6.7B on a V100-32GB).
FIGURE1_WORKLOADS = (
    Workload(batch_size=8, input_len=512, output_len=512, name="workload-1"),
    Workload(batch_size=32, input_len=512, output_len=512, name="workload-2"),
    Workload(batch_size=64, input_len=512, output_len=512, name="workload-3"),
)


def alpaca_batch_sweep(batch_sizes=FIGURE9_BATCH_SIZES) -> list[Workload]:
    """The Figure 9 workload sweep."""
    return [ALPACA_WORKLOAD.with_batch_size(b) for b in batch_sizes]
