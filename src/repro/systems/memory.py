"""Simulated memory devices and the GPU-CPU interconnect.

These classes model the *capacity* and *traffic* side of LLM inference on a
GPU-CPU node (single- or multi-GPU — multi-GPU nodes pool their HBM and
host links, see :meth:`MemoryHierarchy.from_hardware`): every byte of
weights, activations, and KV tensors is
allocated on a named device with a finite capacity, and every KV offload or
reload crosses the PCIe link, which charges transfer time against the step.

The simulator is byte-accurate but intentionally simple: allocations are
named ledger entries, not address ranges, because fragmentation is not part
of what the paper evaluates (vLLM's paged memory is modelled at the level of
block counts in :mod:`repro.baselines.vllm_system`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._common import (ConfigurationError, OutOfMemoryError, left_sum,
                           validate_positive)


@dataclass
class MemoryDevice:
    """A memory pool with finite capacity and an allocation ledger."""

    name: str
    capacity_bytes: float
    _allocations: dict[str, float] = field(default_factory=dict, repr=False)
    peak_bytes: float = 0.0

    def __post_init__(self) -> None:
        validate_positive(capacity_bytes=self.capacity_bytes)

    @property
    def used_bytes(self) -> float:
        return left_sum(self._allocations.values())

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def allocations(self) -> dict[str, float]:
        """Snapshot of the current allocation ledger (label -> bytes)."""
        return dict(self._allocations)

    def allocate(self, label: str, num_bytes: float) -> None:
        """Allocate (or grow) the ledger entry ``label`` by ``num_bytes``."""
        if num_bytes < 0:
            raise ConfigurationError("allocation size must be non-negative")
        if num_bytes > self.free_bytes:
            raise OutOfMemoryError(
                f"{self.name}: cannot allocate {num_bytes / 1e9:.2f} GB for "
                f"{label!r}; {self.free_bytes / 1e9:.2f} GB free of "
                f"{self.capacity_bytes / 1e9:.2f} GB"
            )
        self._allocations[label] = self._allocations.get(label, 0.0) + num_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def resize(self, label: str, num_bytes: float) -> None:
        """Set the ledger entry ``label`` to exactly ``num_bytes``."""
        if num_bytes < 0:
            raise ConfigurationError("allocation size must be non-negative")
        current = self._allocations.get(label, 0.0)
        delta = num_bytes - current
        if delta > self.free_bytes:
            raise OutOfMemoryError(
                f"{self.name}: cannot grow {label!r} by {delta / 1e9:.2f} GB; "
                f"{self.free_bytes / 1e9:.2f} GB free"
            )
        if num_bytes == 0.0:
            self._allocations.pop(label, None)
        else:
            self._allocations[label] = num_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def free(self, label: str, num_bytes: float | None = None) -> None:
        """Free ``num_bytes`` from ``label`` (all of it if ``None``)."""
        current = self._allocations.get(label, 0.0)
        if num_bytes is None or num_bytes >= current:
            self._allocations.pop(label, None)
            return
        if num_bytes < 0:
            raise ConfigurationError("free size must be non-negative")
        self._allocations[label] = current - num_bytes

    def usage(self, label: str) -> float:
        return self._allocations.get(label, 0.0)


@dataclass
class PCIeLink:
    """The CPU-GPU interconnect; charges time for every byte moved."""

    bandwidth_bytes_per_s: float
    latency_s: float = 10e-6
    bytes_host_to_device: float = 0.0
    bytes_device_to_host: float = 0.0

    def __post_init__(self) -> None:
        validate_positive(bandwidth_bytes_per_s=self.bandwidth_bytes_per_s)
        if self.latency_s < 0:
            raise ConfigurationError("latency_s must be non-negative")

    def transfer_time(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` one way (0 bytes costs nothing)."""
        if num_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s

    def host_to_device(self, num_bytes: float) -> float:
        """Record a CPU->GPU transfer and return its time."""
        time = self.transfer_time(num_bytes)
        self.bytes_host_to_device += num_bytes
        return time

    def device_to_host(self, num_bytes: float) -> float:
        """Record a GPU->CPU transfer and return its time."""
        time = self.transfer_time(num_bytes)
        self.bytes_device_to_host += num_bytes
        return time

    @property
    def total_bytes(self) -> float:
        return self.bytes_host_to_device + self.bytes_device_to_host


@dataclass
class MemoryHierarchy:
    """GPU memory + CPU memory + the PCIe link between them."""

    gpu: MemoryDevice
    cpu: MemoryDevice
    link: PCIeLink

    @classmethod
    def from_hardware(cls, hardware) -> "MemoryHierarchy":
        """Build a hierarchy from a :class:`repro.hardware.HardwareSpec`.

        Multi-GPU nodes pool their GPU memory into one device and drive
        their host links concurrently (one per GPU), so the GPU capacity
        and the link bandwidth aggregate over ``gpu_count``.
        """
        return cls(
            gpu=MemoryDevice(hardware.gpu.name,
                             hardware.node_gpu_memory_bytes),
            cpu=MemoryDevice(hardware.cpu.name, hardware.cpu.memory_bytes),
            link=PCIeLink(hardware.node_pcie_bandwidth),
        )
