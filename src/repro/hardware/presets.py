"""Hardware specifications used by the analytic performance model.

The paper's system evaluation runs on a single GPU-CPU node:

* NVIDIA Tesla V100 with 16 GB or 32 GB HBM for the 7B/13B models,
* NVIDIA H100 with 80 GB HBM for the 30B models,
* a 2.60 GHz Intel Xeon host with 128 GB DRAM,
* 20 GB/s of CPU-GPU bandwidth (Section VI-A).

These presets capture the capacity, compute throughput, and bandwidth
numbers that drive the cost model.  Compute throughputs are the published
dense FP16 tensor throughputs de-rated to a realistic attainable fraction,
because the reproduction cares about relative behaviour (compute vs. I/O
crossovers), not peak-spec marketing numbers.

Beyond the paper's single-GPU nodes, :class:`HardwareSpec` also describes
multi-GPU nodes: ``gpu_count`` identical GPUs joined by an
:class:`InterconnectSpec` (NVLink- or PCIe-P2P-class bandwidth and
latency), each with its own host link of ``pcie_bandwidth``.  The
:func:`multi_gpu` helper derives an ``xN`` node from any single-GPU
preset at equal per-GPU memory; 2- and 4-GPU presets are registered in
:data:`HARDWARE_PRESETS` for the serving sweep's parallelism axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._common import ConfigurationError, validate_positive

GB = 1024**3
#: Attainable fraction of peak tensor throughput for the GEMM-heavy parts of
#: LLM decoding (memory-bound small-batch GEMMs rarely exceed this).
DEFAULT_COMPUTE_EFFICIENCY = 0.35


@dataclass(frozen=True)
class GPUSpec:
    """A GPU accelerator: capacity, compute, and HBM bandwidth."""

    name: str
    memory_bytes: float
    fp16_flops: float
    hbm_bandwidth: float
    compute_efficiency: float = DEFAULT_COMPUTE_EFFICIENCY

    def __post_init__(self) -> None:
        validate_positive(memory_bytes=self.memory_bytes,
                          fp16_flops=self.fp16_flops,
                          hbm_bandwidth=self.hbm_bandwidth,
                          compute_efficiency=self.compute_efficiency)

    @property
    def effective_flops(self) -> float:
        return self.fp16_flops * self.compute_efficiency


@dataclass(frozen=True)
class CPUSpec:
    """The host CPU and its DRAM."""

    name: str
    memory_bytes: float
    flops: float
    dram_bandwidth: float

    def __post_init__(self) -> None:
        validate_positive(memory_bytes=self.memory_bytes, flops=self.flops,
                          dram_bandwidth=self.dram_bandwidth)


@dataclass(frozen=True)
class InterconnectSpec:
    """The GPU-to-GPU link of a multi-GPU node.

    ``bandwidth`` is the attainable per-GPU link bandwidth used by the
    collective-communication cost terms (ring all-reduce for tensor
    parallelism, point-to-point stage transfers for pipeline parallelism);
    ``latency_s`` is the per-message launch/synchronization latency charged
    once per communication step.
    """

    name: str
    bandwidth: float
    latency_s: float

    def __post_init__(self) -> None:
        validate_positive(bandwidth=self.bandwidth)
        if self.latency_s < 0:
            raise ConfigurationError("latency_s must be non-negative")


#: NVLink-class GPU interconnect (attainable ring bandwidth per GPU).
NVLINK = InterconnectSpec("nvlink", bandwidth=250e9, latency_s=3e-6)
#: PCIe peer-to-peer GPU interconnect (no NVLink bridge).
PCIE_P2P = InterconnectSpec("pcie-p2p", bandwidth=24e9, latency_s=10e-6)

INTERCONNECT_PRESETS: dict[str, InterconnectSpec] = {
    spec.name: spec for spec in (NVLINK, PCIE_P2P)
}


def get_interconnect(name: str) -> InterconnectSpec:
    """Look up an interconnect preset by name."""
    try:
        return INTERCONNECT_PRESETS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown interconnect preset {name!r}; "
            f"known: {sorted(INTERCONNECT_PRESETS)}"
        ) from exc


@dataclass(frozen=True)
class HardwareSpec:
    """A GPU-CPU inference node: ``gpu_count`` identical GPUs plus a host.

    ``pcie_bandwidth`` is the CPU-GPU bandwidth *per GPU* (each GPU has its
    own host link); ``interconnect`` joins the GPUs of a multi-GPU node and
    is required whenever ``gpu_count > 1``.
    """

    name: str
    gpu: GPUSpec
    cpu: CPUSpec
    pcie_bandwidth: float
    gpu_count: int = 1
    interconnect: InterconnectSpec | None = None

    def __post_init__(self) -> None:
        validate_positive(pcie_bandwidth=self.pcie_bandwidth,
                          gpu_count=self.gpu_count)
        if self.gpu_count > 1 and self.interconnect is None:
            raise ConfigurationError(
                f"node {self.name!r} has {self.gpu_count} GPUs but no "
                "interconnect; pass an InterconnectSpec"
            )

    @property
    def node_gpu_memory_bytes(self) -> float:
        """Aggregate GPU memory across all GPUs of the node."""
        return self.gpu.memory_bytes * self.gpu_count

    @property
    def node_pcie_bandwidth(self) -> float:
        """Aggregate CPU-GPU bandwidth (each GPU drives its own host link)."""
        return self.pcie_bandwidth * self.gpu_count

    def with_pcie_bandwidth(self, bandwidth: float) -> "HardwareSpec":
        """Copy of this node with a different CPU-GPU bandwidth (ablations)."""
        return replace(self, pcie_bandwidth=bandwidth)


V100_GPU_16GB = GPUSpec("V100-16GB", memory_bytes=16 * GB, fp16_flops=112e12,
                        hbm_bandwidth=900e9)
V100_GPU_32GB = GPUSpec("V100-32GB", memory_bytes=32 * GB, fp16_flops=112e12,
                        hbm_bandwidth=900e9)
A100_GPU_40GB = GPUSpec("A100-40GB", memory_bytes=40 * GB, fp16_flops=312e12,
                        hbm_bandwidth=1555e9)
H100_GPU_80GB = GPUSpec("H100-80GB", memory_bytes=80 * GB, fp16_flops=990e12,
                        hbm_bandwidth=3350e9)

XEON_HOST_128GB = CPUSpec("Xeon-2.6GHz-128GB", memory_bytes=128 * GB,
                          flops=2e12, dram_bandwidth=100e9)

#: The paper's stated CPU-GPU bandwidth (Section VI-A).
PAPER_PCIE_BANDWIDTH = 20e9

V100_16GB_NODE = HardwareSpec("v100-16gb-node", V100_GPU_16GB, XEON_HOST_128GB,
                              PAPER_PCIE_BANDWIDTH)
V100_32GB_NODE = HardwareSpec("v100-32gb-node", V100_GPU_32GB, XEON_HOST_128GB,
                              PAPER_PCIE_BANDWIDTH)
A100_40GB_NODE = HardwareSpec("a100-40gb-node", A100_GPU_40GB, XEON_HOST_128GB,
                              PAPER_PCIE_BANDWIDTH)
H100_80GB_NODE = HardwareSpec("h100-80gb-node", H100_GPU_80GB, XEON_HOST_128GB,
                              PAPER_PCIE_BANDWIDTH)

def multi_gpu(base: HardwareSpec, gpu_count: int,
              interconnect: InterconnectSpec = NVLINK) -> HardwareSpec:
    """An ``xN`` node built from ``base`` at equal per-GPU memory.

    Every GPU keeps the per-GPU memory, compute, and host-link bandwidth of
    ``base``; only the GPU count and the GPU-to-GPU interconnect change, so
    single- vs. multi-GPU comparisons isolate the effect of sharding.

    ``base`` must be a single-GPU node: deriving an ``xN`` node from an
    already-multi-GPU spec would silently compound the GPU count (and stack
    an ``-xN-`` suffix onto an ``-xM-`` name), so that is rejected.
    """
    validate_positive(gpu_count=gpu_count)
    if base.gpu_count > 1:
        raise ConfigurationError(
            f"multi_gpu needs a single-GPU base spec, but {base.name!r} "
            f"already has gpu_count={base.gpu_count}; derive the xN node "
            "from the original single-GPU preset instead of compounding"
        )
    if gpu_count == 1:
        return base
    return replace(base, name=f"{base.name}-x{gpu_count}-{interconnect.name}",
                   gpu_count=gpu_count, interconnect=interconnect)


#: 2- and 4-GPU NVLink variants of the paper's nodes (equal per-GPU memory).
V100_16GB_X2_NODE = multi_gpu(V100_16GB_NODE, 2)
V100_16GB_X4_NODE = multi_gpu(V100_16GB_NODE, 4)
H100_80GB_X2_NODE = multi_gpu(H100_80GB_NODE, 2)
H100_80GB_X4_NODE = multi_gpu(H100_80GB_NODE, 4)

HARDWARE_PRESETS: dict[str, HardwareSpec] = {
    spec.name: spec
    for spec in (V100_16GB_NODE, V100_32GB_NODE, A100_40GB_NODE, H100_80GB_NODE,
                 V100_16GB_X2_NODE, V100_16GB_X4_NODE,
                 H100_80GB_X2_NODE, H100_80GB_X4_NODE)
}


def get_hardware(name: str) -> HardwareSpec:
    """Look up a hardware preset by name."""
    try:
        return HARDWARE_PRESETS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown hardware preset {name!r}; known: {sorted(HARDWARE_PRESETS)}"
        ) from exc


def hardware_for_model(model_name: str) -> HardwareSpec:
    """Pick the node the paper uses for a given model scale.

    7B/13B-level models run on the V100 (16/32 GB), 30B-level models on the
    H100 80 GB (Section VI-A).
    """
    lowered = model_name.lower()
    if any(tag in lowered for tag in ("30b", "33b")):
        return H100_80GB_NODE
    if any(tag in lowered for tag in ("12b", "13b")):
        return V100_32GB_NODE
    return V100_16GB_NODE


@dataclass(frozen=True)
class ClusterSpec:
    """A data-parallel cluster: ``num_replicas`` identical serving nodes.

    Each replica is one :class:`HardwareSpec` node (itself possibly
    multi-GPU) running an independent model copy; a router spreads arrival
    traffic across the replicas (:mod:`repro.cluster`).  The spec is pure
    hardware description — how a replica shards its model over its node is
    the replica's :class:`~repro.systems.cost.ParallelismSpec`, not the
    cluster's concern.
    """

    name: str
    node: HardwareSpec
    num_replicas: int = 1

    def __post_init__(self) -> None:
        validate_positive(num_replicas=self.num_replicas)

    @property
    def total_gpus(self) -> int:
        """GPUs across the whole cluster (replicas x GPUs per node)."""
        return self.num_replicas * self.node.gpu_count

    @property
    def total_gpu_memory_bytes(self) -> float:
        """Aggregate GPU memory across every replica of the cluster."""
        return self.num_replicas * self.node.node_gpu_memory_bytes


def cluster_of(node: HardwareSpec, num_replicas: int) -> ClusterSpec:
    """A cluster of ``num_replicas`` copies of ``node``."""
    validate_positive(num_replicas=num_replicas)
    return ClusterSpec(name=f"{node.name}-dp{num_replicas}", node=node,
                       num_replicas=num_replicas)


def validate_equal_gpu_count(*clusters: ClusterSpec) -> int:
    """Assert all ``clusters`` spend the same GPU count; return that count.

    Cluster comparisons (TP-4 vs 2x(TP-2) vs 4x(TP-1)) are only meaningful
    at equal total GPU count — otherwise the bigger cluster trivially wins.
    """
    if not clusters:
        raise ConfigurationError(
            "validate_equal_gpu_count needs at least one cluster"
        )
    counts = {spec.total_gpus for spec in clusters}
    if len(counts) > 1:
        detail = ", ".join(f"{spec.name}={spec.total_gpus}"
                           for spec in clusters)
        raise ConfigurationError(
            f"clusters spend unequal GPU counts ({detail}); compare "
            "configurations at equal total GPUs or drop the check"
        )
    return counts.pop()
