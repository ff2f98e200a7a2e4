"""Analytic (roofline) performance model for transformer inference.

The paper's throughput results are governed by three quantities:

* compute time of the MHA and FFN blocks (GEMM-dominated),
* HBM traffic for weights and KV tensors on the GPU,
* PCIe traffic when KV tensors are offloaded to CPU memory.

This module provides a roofline-style cost model over the *paper-scale*
model configurations: each operator is charged
``max(flops / attainable_flops, bytes / hbm_bandwidth)`` on the GPU, and
CPU-GPU movement is charged against the PCIe link by the system simulators.
The absolute numbers are approximations; the experiments only rely on the
relative behaviour (compute vs. I/O crossovers, scaling with batch size and
sequence length), which the roofline captures.

Multi-GPU parallelism
---------------------
A :class:`ParallelismSpec` layers tensor- or pipeline-parallel execution on
top of the single-GPU roofline:

* **tensor parallelism** (``mode="tp"``) shards every GEMM and the KV cache
  head-wise across ``degree`` GPUs, dividing per-step compute by the degree
  and adding two ring all-reduces of the layer activations per layer
  (:meth:`LLMCostModel.tp_allreduce_time`);
* **pipeline parallelism** (``mode="pp"``) splits the layer stack into
  ``degree`` stages, dividing per-step compute by the degree, inflating it
  by the GPipe bubble factor ``(m + d - 1) / m`` for ``m`` microbatches,
  and adding ``degree - 1`` point-to-point activation transfers per pass
  (:meth:`LLMCostModel.pp_boundary_time`).

KV offload traffic, recomputation, and (de)quantization are sharded too:
each GPU moves and processes only its shard, concurrently, so those terms
scale with ``1 / degree`` (the host links operate in parallel —
:attr:`LLMCostModel.effective_pcie_bandwidth`).  At ``degree == 1`` every
adjustment is an exact no-op, so single-GPU costs are bit-identical to the
pre-parallelism model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._common import (ConfigurationError, dtype_bytes, left_sum,
                           validate_positive)
from repro.core.swa import sequence_table
from repro.hardware.presets import HardwareSpec
from repro.model.config import ModelConfig

#: Parallelism strategies understood by :class:`ParallelismSpec`.
PARALLELISM_MODES = ("none", "tp", "pp")

#: Share of node GPU memory kept free of weights, activations and KV
#: tensors (allocator fragmentation and workspace head-room).
KV_HEADROOM = 0.05

#: Sequence-length entries one step-table pass prices: a pass builds
#: ``max(1, STEP_PASS_ENTRIES // row_length)`` consecutive batch sizes
#: (see :meth:`LLMCostModel._grow_step_table`).  A short pass costs mostly
#: per-call NumPy overhead, so short rows share one; past about 9,000
#: entries its temporaries outgrow the cache and a row costs more than
#: in a pass of its own.  Per dense row, alone -> in a block (best of 40,
#: 2 vCPUs, NumPy 2.4): 256 entries 42 -> 12 µs in 16 rows; 512: 46 -> 22
#: in 4; 1,024: 51 -> 37 in 2, 31 in 4; 1,694: 58 -> 48 in 2, 65 in 8;
#: 2,988: 77 -> 69 in 2, 91 in 3.  4,096 stays well below the crossover,
#: which leaves room for the rows of a block that a run never reads.
STEP_PASS_ENTRIES = 4096


@dataclass(frozen=True)
class ParallelismSpec:
    """How one model replica is spread over the GPUs of a node.

    ``mode``
        ``"none"`` (single GPU), ``"tp"`` (tensor parallel), or ``"pp"``
        (pipeline parallel).
    ``degree``
        Number of GPUs cooperating on the replica; must equal the node's
        ``gpu_count`` (the serving layer shards its KV budget one shard per
        GPU).
    ``pp_microbatches``
        Microbatches per pipeline pass (``m`` of the GPipe bubble factor
        ``(m + d - 1) / m``); ignored outside ``mode="pp"``.
    """

    mode: str = "none"
    degree: int = 1
    pp_microbatches: int = 4

    def __post_init__(self) -> None:
        if self.mode not in PARALLELISM_MODES:
            raise ConfigurationError(
                f"unknown parallelism mode {self.mode!r}; "
                f"known: {PARALLELISM_MODES}"
            )
        validate_positive(degree=self.degree,
                          pp_microbatches=self.pp_microbatches)
        if self.mode == "none" and self.degree != 1:
            raise ConfigurationError(
                "mode 'none' requires degree 1; use 'tp' or 'pp' for "
                "multi-GPU execution"
            )
        if self.mode != "none" and self.degree < 2:
            raise ConfigurationError(
                f"mode {self.mode!r} requires degree >= 2, got {self.degree}"
            )

    @classmethod
    def parse(cls, spec: str, pp_microbatches: int = 4) -> "ParallelismSpec":
        """Parse a compact axis label: ``"none"``, ``"tp-2"``, ``"pp-4"``.

        ``"1gpu"`` and degree-1 labels (``"tp-1"``) normalize to the
        single-GPU spec, so sweep axes can mix single- and multi-GPU
        entries uniformly.
        """
        label = spec.strip().lower()
        if label in ("none", "single", "1gpu"):
            return cls()
        for mode in ("tp", "pp"):
            if label.startswith(mode):
                digits = label[len(mode):].lstrip("-x")
                if digits.isdigit():
                    degree = int(digits)
                    if degree == 1:
                        return cls()
                    return cls(mode=mode, degree=degree,
                               pp_microbatches=pp_microbatches)
        raise ConfigurationError(
            f"cannot parse parallelism spec {spec!r}; expected 'none', "
            "'tp-<degree>', or 'pp-<degree>'"
        )

    @property
    def label(self) -> str:
        """Compact label used in experiment rows (inverse of :meth:`parse`)."""
        return "none" if self.degree == 1 else f"{self.mode}-{self.degree}"


@dataclass(frozen=True)
class OpCost:
    """Cost of a single operator instance."""

    name: str
    flops: float
    bytes_moved: float
    time_s: float

    @property
    def achieved_flops(self) -> float:
        """Attained FLOP/s (the FLOPS annotation of Figure 11)."""
        return self.flops / self.time_s if self.time_s > 0 else 0.0


@dataclass
class AttentionBreakdown:
    """Per-operator costs of one attention module call (Figure 11)."""

    ops: list[OpCost] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return left_sum(op.time_s for op in self.ops)

    def as_dict(self) -> dict[str, float]:
        return {op.name: op.time_s for op in self.ops}


class LLMCostModel:
    """Roofline cost model for one model configuration on one node."""

    def __init__(self, config: ModelConfig, hardware: HardwareSpec,
                 dtype: str = "fp16",
                 parallelism: ParallelismSpec | None = None) -> None:
        self.config = config
        self.hardware = hardware
        self.dtype = dtype
        self.bytes_per_element = dtype_bytes(dtype)
        validate_positive(bytes_per_element=self.bytes_per_element)
        self.parallelism = parallelism or ParallelismSpec()
        if self.parallelism.degree != hardware.gpu_count:
            raise ConfigurationError(
                f"parallelism degree {self.parallelism.degree} must match the "
                f"node's GPU count {hardware.gpu_count} (one KV shard per GPU)"
            )
        if self.parallelism.degree > 1 and hardware.interconnect is None:
            raise ConfigurationError(
                f"node {hardware.name!r} has no interconnect; multi-GPU "
                "execution needs one for its collective-communication terms"
            )
        # The model config is frozen, so its weight bytes are priced once.
        self._weight_bytes = config.num_parameters() * self.bytes_per_element
        # Per-batch-size decode constants of the vectorized step formula:
        # the qkv/out projection rooflines and the FFN time do not depend
        # on the sequence length (see _decode_constants).
        self._decode_constant_cache: dict[int, tuple] = {}
        # Decode-step times keyed by (batch_size, split), indexed by
        # sequence length (see decode_step_times), each with a list view
        # made whenever the table grows (decode_step_list), and prefill
        # times keyed by (batch_size, prompt_len) (prefill_time).  Per
        # cost model, so every freshly built system prices its own; a
        # serving engine's PricingStore replaces them with the memos of
        # its identity (repro.systems.pricing).
        self._step_tables: dict[tuple, np.ndarray] = {}
        self._step_lists: dict[tuple, list[float]] = {}
        self._prefill_times: dict[tuple[int, int], float] = {}
        # Longest sequence length the latest serving run will price (see
        # reserve_step_tables); 0 until a run reserves one.
        self._reserved_seq_len = 0

    @property
    def identity(self) -> tuple:
        """``(config, hardware, dtype, parallelism)``: every input of the
        step and prefill formulas.  Cost models with equal identities
        price every decode step and prefill pass identically, so a
        :class:`~repro.systems.pricing.PricingStore` gives them one set of
        step tables and prefill times."""
        return (self.config, self.hardware, self.dtype, self.parallelism)

    @property
    def effective_pcie_bandwidth(self) -> float:
        """Aggregate host-link bandwidth (each GPU moves its own KV shard)."""
        return self.hardware.node_pcie_bandwidth

    def kv_budget_tokens(self, batch_size: int, input_len: int, kv_dtype: str,
                         weights_on_gpu: bool = True) -> int:
        """How many KV tokens of a ``(b, s)`` shape fit in node GPU memory.

        The one capacity rule: every KV budget (ALISA's ``p1``, FlexGen's
        static split, vLLM's waves, serving admission) is this number.
        Capacity aggregates over all GPUs of the node less
        :data:`KV_HEADROOM`, weights are charged once (TP shards them
        head-wise, PP stage-wise) and activations per GPU (every rank
        keeps a working copy at the TP/PP boundaries); what is left is
        divided by :meth:`kv_bytes_per_token`.  At least 1, also when
        weights and activations alone overflow the node.
        """
        gpu_count = self.hardware.gpu_count
        capacity = (self.hardware.gpu.memory_bytes * gpu_count
                    * (1.0 - KV_HEADROOM))
        if weights_on_gpu:
            capacity -= self._weight_bytes
        capacity -= gpu_count * self.activation_bytes(batch_size, input_len)
        return max(1, int(capacity // self.kv_bytes_per_token(batch_size,
                                                               kv_dtype)))

    # ------------------------------------------------------------------ #
    # static sizes
    # ------------------------------------------------------------------ #
    def weight_bytes(self) -> float:
        """Total model weight size in the compute dtype."""
        return self._weight_bytes

    def kv_bytes_per_token(self, batch_size: int, kv_dtype: str | None = None) -> float:
        """KV-cache bytes contributed by one token across all layers."""
        width = dtype_bytes(kv_dtype) if kv_dtype else self.bytes_per_element
        return 2.0 * width * self.config.num_layers * self.config.hidden_size * batch_size

    def kv_bytes(self, batch_size: int, num_tokens: int,
                 kv_dtype: str | None = None) -> float:
        return self.kv_bytes_per_token(batch_size, kv_dtype) * num_tokens

    def activation_bytes(self, batch_size: int, seq_len: int) -> float:
        """Live activation footprint for one forward pass (one layer deep)."""
        h = self.config.hidden_size
        return 4.0 * batch_size * seq_len * h * self.bytes_per_element

    # ------------------------------------------------------------------ #
    # roofline primitives
    # ------------------------------------------------------------------ #
    def _roofline_time(self, flops: float, bytes_moved: float,
                       min_time: float = 2e-6) -> float:
        compute_time = flops / self.hardware.gpu.effective_flops
        memory_time = bytes_moved / self.hardware.gpu.hbm_bandwidth
        return max(compute_time, memory_time, min_time)

    def _roofline(self, name: str, flops: float, bytes_moved: float,
                  min_time: float = 2e-6) -> OpCost:
        return OpCost(name=name, flops=flops, bytes_moved=bytes_moved,
                      time_s=self._roofline_time(flops, bytes_moved, min_time))

    # ------------------------------------------------------------------ #
    # multi-GPU communication terms (tensor / pipeline parallelism)
    # ------------------------------------------------------------------ #
    def _activation_message_bytes(self, batch_size: int,
                                  query_len: int) -> float:
        """Bytes of the per-layer activation tensor exchanged between GPUs."""
        return (batch_size * query_len * self.config.hidden_size
                * self.bytes_per_element)

    def tp_allreduce_time(self, batch_size: int, query_len: int = 1) -> float:
        """Per-layer all-reduce time under tensor parallelism.

        Each transformer layer ends its attention and FFN blocks with one
        ring all-reduce of the activation tensor: ``2 * (d - 1)``
        communication steps, each moving ``1/d`` of the message and paying
        the interconnect latency.  Returns 0 outside ``mode="tp"``.
        """
        p = self.parallelism
        if p.mode != "tp":
            return 0.0
        link = self.hardware.interconnect
        message = self._activation_message_bytes(batch_size, query_len)
        steps = 2.0 * (p.degree - 1)
        per_allreduce = steps * link.latency_s \
            + steps * (message / p.degree) / link.bandwidth
        return 2.0 * per_allreduce

    def pp_boundary_time(self, batch_size: int, query_len: int = 1) -> float:
        """Stage-boundary activation transfers of one pipeline pass.

        A ``d``-stage pipeline hands the activation tensor across ``d - 1``
        boundaries per (micro)batch pass.  Returns 0 outside ``mode="pp"``.
        """
        p = self.parallelism
        if p.mode != "pp":
            return 0.0
        link = self.hardware.interconnect
        message = self._activation_message_bytes(batch_size, query_len)
        return (p.degree - 1) * (link.latency_s + message / link.bandwidth)

    def pp_bubble_factor(self) -> float:
        """GPipe bubble inflation ``(m + d - 1) / m`` (1.0 outside PP)."""
        p = self.parallelism
        if p.mode != "pp":
            return 1.0
        return (p.pp_microbatches + p.degree - 1) / p.pp_microbatches

    def parallel_comm_time(self, batch_size: int, query_len: int = 1) -> float:
        """Communication time one forward pass spends on the interconnect.

        TP: two ring all-reduces per layer across all layers; PP: the
        stage-boundary transfers.  Pipeline bubble idle time is *not*
        counted here — it inflates compute, not communication.
        """
        p = self.parallelism
        if p.degree == 1:
            return 0.0
        if p.mode == "tp":
            return self.config.num_layers * self.tp_allreduce_time(batch_size,
                                                                   query_len)
        return self.pp_boundary_time(batch_size, query_len)

    def _parallel_forward_time(self, base_time: float, batch_size: int,
                               query_len: int) -> float:
        """Layer a single-GPU forward-pass time onto the parallel node.

        Exact identity at ``degree == 1``.  TP divides compute by the degree
        (weights, heads, and FFN columns are sharded) and adds the per-layer
        all-reduces; PP divides compute across stages, inflates it by the
        pipeline bubble, and adds the boundary transfers.
        """
        p = self.parallelism
        if p.degree == 1:
            return base_time
        if p.mode == "tp":
            return base_time / p.degree + self.parallel_comm_time(batch_size,
                                                                  query_len)
        return (base_time / p.degree * self.pp_bubble_factor()
                + self.pp_boundary_time(batch_size, query_len))

    def _shard_scale(self) -> float:
        """Concurrency factor for work sharded one slice per GPU.

        KV recomputation and (de)quantization touch only the owning shard's
        slice of the cache; the shards work in parallel, so the node-level
        time divides by the degree (exactly 1.0 on a single GPU).
        """
        return 1.0 / self.parallelism.degree

    # ------------------------------------------------------------------ #
    # attention module breakdown (Figure 11)
    # ------------------------------------------------------------------ #
    def _attention_ops(self, batch_size: int, kv_len: int,
                       kept_kv: int | None, local_window: int,
                       query_len: int) -> list[tuple[str, float, float, float]]:
        """``(name, flops, bytes_moved, min_time)`` of each attention
        operator, in execution order (see :meth:`attention_breakdown`)."""
        if kv_len <= 0 or batch_size <= 0 or query_len <= 0:
            raise ConfigurationError("batch_size, kv_len, query_len must be positive")
        kept = kv_len if kept_kv is None else min(kept_kv, kv_len)
        h = self.config.hidden_size
        heads = self.config.num_heads
        width = self.bytes_per_element
        b, q = batch_size, query_len

        # QKV projection of the new token(s).
        ops = [("qkv_proj", 2.0 * 3.0 * b * q * h * h,
                3.0 * h * h * width + 4.0 * b * q * h * width, 2e-6)]
        if local_window > 0:
            # SWA local attention sum: add `local_window` rows of length kv_len
            # per head (vector adds, very low arithmetic intensity).  These and
            # the gather below are small kernel-launch-bound ops, hence the
            # larger floor time (the Figure 11 overhead).
            ops.append(("local_attention_sum",
                        1.0 * b * heads * local_window * kv_len,
                        b * heads * local_window * kv_len * width, 10e-6))
            # Gather sparse KV tensors into a packed dense tensor.
            ops.append(("sparse_kv_gather", 0.0,
                        2.0 * 2.0 * b * kept * h * width, 10e-6))
        ops += [
            # QK^T over the kept tokens.
            ("qk_matmul", 2.0 * b * q * kept * h,
             (b * kept * h + b * q * h + b * heads * q * kept) * width, 2e-6),
            # Softmax over the attention weights.
            ("softmax", 5.0 * b * heads * q * kept,
             2.0 * b * heads * q * kept * width, 2e-6),
            # Attention-weight x V.
            ("av_matmul", 2.0 * b * q * kept * h,
             (b * kept * h + b * q * h) * width, 2e-6),
            # Output projection.
            ("out_proj", 2.0 * b * q * h * h,
             (h * h + 2.0 * b * q * h) * width, 2e-6),
        ]
        return ops

    def attention_breakdown(self, batch_size: int, kv_len: int,
                            kept_kv: int | None = None,
                            local_window: int = 0,
                            query_len: int = 1) -> AttentionBreakdown:
        """Cost of a single attention-module call, operator by operator.

        ``kept_kv`` is the number of KV tokens that actually participate
        (``None`` means dense attention over all ``kv_len`` tokens);
        ``local_window`` is the number of recent attention rows summed by
        SWA's local attention sum (0 disables the extra SWA operators).
        """
        return AttentionBreakdown([
            self._roofline(name, flops, bytes_moved, min_time)
            for name, flops, bytes_moved, min_time in self._attention_ops(
                batch_size, kv_len, kept_kv, local_window, query_len)
        ])

    # ------------------------------------------------------------------ #
    # block- and step-level times
    # ------------------------------------------------------------------ #
    def attention_time(self, batch_size: int, kv_len: int,
                       kept_kv: int | None = None, local_window: int = 0,
                       query_len: int = 1) -> float:
        """:meth:`attention_breakdown`'s ``total_time`` without building
        its records: the same rooflines (:meth:`_roofline_time`), summed
        in the same order, with the GPU's rates read once per call."""
        gpu = self.hardware.gpu
        flop_rate = gpu.effective_flops
        bandwidth = gpu.hbm_bandwidth
        total = 0
        for _, flops, bytes_moved, min_time in self._attention_ops(
                batch_size, kv_len, kept_kv, local_window, query_len):
            total += max(flops / flop_rate, bytes_moved / bandwidth,
                         min_time)
        return total

    # ------------------------------------------------------------------ #
    # vectorized (epoch-granular) pricing
    #
    # Each *_batch method applies the scalar method's formula elementwise
    # over per-step arrays, preserving the exact operation order (and the
    # roofline floor times), so a priced epoch is bit-identical to pricing
    # its steps one by one.  The bit-identity is pinned by the property
    # tests in tests/test_epoch_pricing.py.
    # ------------------------------------------------------------------ #
    def _roofline_time_batch(self, flops: np.ndarray, bytes_moved: np.ndarray,
                             min_time: float = 2e-6) -> np.ndarray:
        compute_time = flops / self.hardware.gpu.effective_flops
        memory_time = bytes_moved / self.hardware.gpu.hbm_bandwidth
        return np.maximum(np.maximum(compute_time, memory_time), min_time)

    def _decode_constants(self, batch_size: int) -> tuple:
        """``(qkv, out, ffn)`` times of one decode step (q = 1) at
        ``batch_size``: the sequence-length-independent terms of
        :meth:`attention_time_batch` and :meth:`decode_step_time_batch`,
        priced once per batch size with the formulas of the scalar path."""
        constants = self._decode_constant_cache.get(batch_size)
        if constants is None:
            h = self.config.hidden_size
            width = self.bytes_per_element
            b, q = batch_size, 1
            qkv = self._roofline_time_batch(
                np.float64(2.0 * 3.0 * b * q * h * h),
                np.float64(3.0 * h * h * width + 4.0 * b * q * h * width),
            )
            out = self._roofline_time_batch(
                np.float64(2.0 * b * q * h * h),
                np.float64((h * h + 2.0 * b * q * h) * width),
            )
            constants = (qkv, out, self.ffn_time(batch_size))
            self._decode_constant_cache[batch_size] = constants
        return constants

    def attention_time_batch(self, batch_size: int, kv_lens: np.ndarray,
                             kept_kv: np.ndarray | None = None,
                             local_windows: np.ndarray | None = None) -> np.ndarray:
        """Vectorized :meth:`attention_time` over per-step arrays (q = 1).

        ``kept_kv is None`` means dense attention at every step;
        ``local_windows is None`` means no SWA operators at any step (a
        per-step window of 0 also skips them, matching the scalar path).
        """
        kv_len = np.asarray(kv_lens, dtype=np.float64)
        kept = (kv_len if kept_kv is None
                else np.minimum(np.asarray(kept_kv, dtype=np.float64), kv_len))
        qkv, out, _ = self._decode_constants(batch_size)
        qk, soft, av = self._kept_token_times(batch_size, kept)
        dense_total = qkv + qk + soft + av + out
        if local_windows is None:
            return dense_total

        window = np.asarray(local_windows, dtype=np.float64)
        local, gather = self._swa_operator_times(batch_size, kv_len, kept,
                                                 window)
        swa_total = qkv + local + gather + qk + soft + av + out
        return np.where(window > 0, swa_total, dense_total)

    def _kept_token_times(self, b, kept: np.ndarray) -> tuple:
        """``(qk, soft, av)`` times of one decode step (q = 1) over
        ``kept`` tokens at batch size ``b``, an int or a column of batch
        sizes that broadcasts against ``kept``."""
        h = self.config.hidden_size
        heads = self.config.num_heads
        width = self.bytes_per_element
        gpu = self.hardware.gpu
        q = 1
        # QK^T and AV share their FLOP count and the K/V + query byte
        # prefix; QK^T also reads the attention weights.
        matmul_flop_time = (2.0 * b * q * kept * h) / gpu.effective_flops
        kv_query_bytes = b * kept * h + b * q * h
        qk = np.maximum(np.maximum(
            matmul_flop_time,
            (kv_query_bytes + b * heads * q * kept) * width / gpu.hbm_bandwidth),
            2e-6)
        soft = self._roofline_time_batch(
            5.0 * b * heads * q * kept,
            2.0 * b * heads * q * kept * width,
        )
        av = np.maximum(np.maximum(
            matmul_flop_time, kv_query_bytes * width / gpu.hbm_bandwidth),
            2e-6)
        return qk, soft, av

    def _swa_operator_times(self, b, kv_len: np.ndarray, kept: np.ndarray,
                            window: np.ndarray) -> tuple:
        """``(local, gather)`` times of SWA's two extra operators, with
        ``b`` as in :meth:`_kept_token_times`."""
        h = self.config.hidden_size
        heads = self.config.num_heads
        width = self.bytes_per_element
        local = self._roofline_time_batch(
            1.0 * b * heads * window * kv_len,
            b * heads * window * kv_len * width,
            min_time=10e-6,
        )
        # A FLOP-free gather: its compute-time term is 0.0, which never
        # wins the roofline maximum over a non-negative memory time.
        gather = np.maximum(
            2.0 * 2.0 * b * kept * h * width / self.hardware.gpu.hbm_bandwidth,
            10e-6)
        return local, gather

    def decode_step_time_batch(self, batch_size: int, kv_lens: np.ndarray,
                               kept_kv: np.ndarray | None = None,
                               local_windows: np.ndarray | None = None) -> np.ndarray:
        """Vectorized :meth:`decode_step_time` over per-step arrays."""
        attention = self.attention_time_batch(batch_size, kv_lens, kept_kv,
                                              local_windows)
        ffn = self._decode_constants(batch_size)[2]
        base = self.config.num_layers * (attention + ffn)
        return self._parallel_forward_time(base, batch_size, query_len=1)

    def decode_step_times(self, batch_size: int, first_seq: int,
                          num_steps: int, split=None) -> np.ndarray:
        """Decode-step times at sequence lengths ``first_seq`` onwards.

        Returns ``num_steps`` entries, one per consecutive sequence length,
        as a read-only slice of a table row kept per ``(batch_size,
        split)`` and indexed by sequence length.  ``split`` is ``None`` for
        dense attention, or the :class:`~repro.core.swa.SWAConfig` (the
        hashable ``(caching_ratio, local_fraction)`` pair) whose split of
        each sequence length gives ``kept_kv = local + global`` and
        ``local_windows = local``.  Entries equal
        :meth:`decode_step_time_batch` at the same lengths bit for bit.
        A missing or short row is priced with its neighbouring batch sizes
        in one pass (:meth:`_grow_step_table`); a row that a read outgrows
        at least doubles, so a run of increasing lengths re-prices only
        logarithmically often, and a serving run sizes rows to its longest
        context up front (:meth:`reserve_step_tables`).
        """
        end = first_seq + num_steps
        table = self._step_tables.get((batch_size, split))
        if table is None or end > table.size or first_seq <= 0:
            table = self._grow_step_table(batch_size, split, first_seq, end)
        return table[first_seq:end]

    def decode_step_list(self, batch_size: int, first_seq: int,
                         num_steps: int, split=None) -> list[float]:
        """:meth:`decode_step_times` as a list of Python floats.

        A slice of the row's list view, made by the pass that built the
        row, so a read costs no NumPy call.  The same table entries, so
        ``decode_step_list(...) == decode_step_times(...).tolist()``.
        """
        end = first_seq + num_steps
        values = self._step_lists.get((batch_size, split))
        if values is None or end > len(values) or first_seq <= 0:
            self._grow_step_table(batch_size, split, first_seq, end)
            values = self._step_lists[(batch_size, split)]
        return values[first_seq:end]

    def reserve_step_tables(self, max_seq_len: int) -> None:
        """Size every step-table row built from now on to hold sequence
        lengths up to ``max_seq_len``.

        A serving run passes its longest context (prompt bound plus output
        bound), so each ``(batch_size, split)`` row is built once, in one
        block pass with its neighbours, instead of doubling as contexts
        lengthen; the row length also fixes how many rows share a pass
        (:data:`STEP_PASS_ENTRIES`).  Entries are elementwise, so a row's
        values do not depend on when, how large or beside which rows it
        was built.
        """
        self._reserved_seq_len = max_seq_len

    def _grow_step_table(self, batch_size: int, split, first_seq: int,
                         end: int) -> np.ndarray:
        """Build the ``(batch_size, split)`` row to hold lengths below
        ``end`` (and up to the reserved length) in one pass with the other
        rows of its block, and return it.

        The row length ``size`` is at least 256 and at least double the
        old row.  A block is the aligned run of ``max(1,
        STEP_PASS_ENTRIES // size)`` consecutive batch sizes holding
        ``batch_size``; the pass prices every row of it that is missing or
        shorter than ``size`` (:meth:`_price_step_rows`) and stores each
        row, with its list view, under its own key.
        """
        if first_seq <= 0:
            raise ConfigurationError("sequence lengths must be positive")
        tables = self._step_tables
        table = tables.get((batch_size, split))
        size = max(end, self._reserved_seq_len + 1,
                   256 if table is None else 2 * table.size)
        rows = max(1, STEP_PASS_ENTRIES // size)
        low = (batch_size - 1) // rows * rows + 1
        batches = [b for b in range(low, low + rows)
                   if (b, split) not in tables
                   or tables[(b, split)].size < size]
        block = self._price_step_rows(batches, split, size)
        block[:, 0] = np.nan  # no sequence has length 0
        block.flags.writeable = False
        for b, row, values in zip(batches, block, block.tolist()):
            tables[(b, split)] = row
            self._step_lists[(b, split)] = values
        return tables[(batch_size, split)]

    def _price_step_rows(self, batches: list[int], split,
                         size: int) -> np.ndarray:
        """Decode-step times of sequence lengths ``0 .. size - 1`` (entry
        0 is filler) for each batch size of ``batches``, one row each.

        The formula of :meth:`decode_step_time_batch` with the batch size
        as a column that broadcasts against the sequence lengths, and the
        per-batch constants (:meth:`_decode_constants`) stacked the same
        way.  Only what a row keeps is priced: an SWA row reads its split
        as slices of the config's :class:`~repro.core.swa.SequenceTable`
        and, its local window being at least one token at every length,
        needs neither the dense total nor the choice between the two.
        """
        b = np.array(batches)[:, None]
        qkv, out, ffn = np.array(
            [self._decode_constants(batch) for batch in batches]).T[:, :, None]
        kv_len = np.arange(size, dtype=np.float64)
        if split is None:
            qk, soft, av = self._kept_token_times(b, kv_len)
            attention = qkv + qk + soft + av + out
        else:
            table = sequence_table(split, size - 1)
            window = table.num_local[:size]
            # split_budget keeps at most seq_len tokens, so the clamp of
            # attention_time_batch (kept <= kv_len) is a no-op here.
            kept = (window + table.num_global[:size]).astype(np.float64)
            qk, soft, av = self._kept_token_times(b, kept)
            local, gather = self._swa_operator_times(
                b, kv_len, kept, window.astype(np.float64))
            attention = qkv + local + gather + qk + soft + av + out
        base = self.config.num_layers * (attention + ffn)
        return self._parallel_forward_time(base, b, query_len=1)

    def quantize_time_batch(self, batch_size: int,
                            num_tokens: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`quantize_time` over an array of token counts."""
        tokens = np.asarray(num_tokens, dtype=np.float64)
        elements = 2.0 * batch_size * tokens * self.config.hidden_size \
            * self.config.num_layers
        time = self._shard_scale() * self._roofline_time_batch(
            2.0 * elements, 3.0 * elements)
        return np.where(tokens > 0, time, 0.0)

    def cpu_attention_time_batch(self, batch_size: int,
                                 cpu_tokens: np.ndarray,
                                 kv_dtype: str | None = None,
                                 efficiency: float = 0.5) -> np.ndarray:
        """Vectorized :meth:`cpu_attention_time` over an array of tokens."""
        tokens = np.asarray(cpu_tokens, dtype=np.float64)
        kv_bytes = self.kv_bytes_per_token(batch_size, kv_dtype) * tokens
        flop_time = (4.0 * batch_size * tokens * self.config.hidden_size
                     * self.config.num_layers) / self.hardware.cpu.flops
        bandwidth = self.hardware.cpu.dram_bandwidth * efficiency
        time = np.maximum(kv_bytes / bandwidth, flop_time)
        return np.where(tokens > 0, time, 0.0)

    def ffn_time(self, batch_size: int, query_len: int = 1) -> float:
        h = self.config.hidden_size
        f = self.config.ffn_size
        flops = 2.0 * 2.0 * batch_size * query_len * h * f
        bytes_moved = (2.0 * h * f + 2.0 * batch_size * query_len * (h + f)) \
            * self.bytes_per_element
        return self._roofline_time(flops, bytes_moved)

    def decode_layer_time(self, batch_size: int, kv_len: int,
                          kept_kv: int | None = None,
                          local_window: int = 0) -> float:
        """Compute time of one transformer layer for one decoding step."""
        return (self.attention_time(batch_size, kv_len, kept_kv, local_window)
                + self.ffn_time(batch_size))

    def decode_step_time(self, batch_size: int, kv_len: int,
                         kept_kv: int | None = None,
                         local_window: int = 0) -> float:
        """GPU time of one decoding step across all layers (with TP/PP)."""
        base = self.config.num_layers * self.decode_layer_time(
            batch_size, kv_len, kept_kv, local_window
        )
        return self._parallel_forward_time(base, batch_size, query_len=1)

    def prefill_time(self, batch_size: int, prompt_len: int) -> float:
        """GPU time of the prefilling stage (dense attention, with TP/PP).

        Priced once per ``(batch_size, prompt_len)`` into a memo that
        equal-identity cost models of one
        :class:`~repro.systems.pricing.PricingStore` share, so serving
        admissions, chunks and router estimates of one shape pay the
        formula once.
        """
        key = (batch_size, prompt_len)
        time = self._prefill_times.get(key)
        if time is None:
            time = self._prefill_times[key] = self._prefill_time(batch_size,
                                                                 prompt_len)
        return time

    def _prefill_time(self, batch_size: int, prompt_len: int) -> float:
        """The prefill formula behind :meth:`prefill_time`'s memo."""
        attention = self.attention_time(batch_size, prompt_len,
                                        query_len=prompt_len)
        ffn = self.ffn_time(batch_size, query_len=prompt_len)
        base = self.config.num_layers * (attention + ffn)
        return self._parallel_forward_time(base, batch_size,
                                           query_len=prompt_len)

    def recompute_time(self, batch_size: int, num_tokens: int,
                       num_layers: int | None = None) -> float:
        """Time to recompute the K and V projections of ``num_tokens`` tokens.

        This is the cost Phase III pays instead of reloading those tokens'
        KV tensors from CPU memory (the ``T^r`` term of Equation 5).
        """
        if num_tokens <= 0:
            return 0.0
        h = self.config.hidden_size
        layers = self.config.num_layers if num_layers is None else num_layers
        flops = 2.0 * 2.0 * batch_size * num_tokens * h * h  # K and V projections
        bytes_moved = (2.0 * h * h + 3.0 * batch_size * num_tokens * h) \
            * self.bytes_per_element
        return layers * self._shard_scale() \
            * self._roofline_time(flops, bytes_moved)

    def recompute_time_batch(self, batch_size: int,
                             num_tokens: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`recompute_time` over an array of token counts.

        Applies the same roofline (identical FLOP/byte formulas and floor
        time) elementwise, so the scheduler optimizer can price hundreds of
        candidate step plans without a Python call per step.
        """
        tokens = np.asarray(num_tokens, dtype=np.float64)
        h = self.config.hidden_size
        flops = 2.0 * 2.0 * batch_size * tokens * h * h
        bytes_moved = (2.0 * h * h + 3.0 * batch_size * tokens * h) \
            * self.bytes_per_element
        time = np.maximum(flops / self.hardware.gpu.effective_flops,
                          bytes_moved / self.hardware.gpu.hbm_bandwidth)
        time = self.config.num_layers * self._shard_scale() \
            * np.maximum(time, 2e-6)
        return np.where(tokens > 0, time, 0.0)

    def quantize_time(self, batch_size: int, num_tokens: int) -> float:
        """Time to (de)quantize the KV tensors of ``num_tokens`` tokens."""
        if num_tokens <= 0:
            return 0.0
        elements = 2.0 * batch_size * num_tokens * self.config.hidden_size \
            * self.config.num_layers
        return self._shard_scale() \
            * self._roofline_time(2.0 * elements, 3.0 * elements)

    def cpu_attention_time(self, batch_size: int, cpu_tokens: float,
                           kv_dtype: str | None = None,
                           efficiency: float = 0.5) -> float:
        """Time to compute attention over CPU-resident KV tensors on the CPU.

        FlexGen computes attention next to the data when KV tensors live in
        CPU memory (moving the whole cache over PCIe every step would be far
        slower).  Attention is memory-bound, so the cost is the CPU-resident
        KV bytes divided by the attainable DRAM bandwidth.
        """
        if cpu_tokens <= 0:
            return 0.0
        kv_bytes = self.kv_bytes_per_token(batch_size, kv_dtype) * cpu_tokens
        flop_time = (4.0 * batch_size * cpu_tokens * self.config.hidden_size
                     * self.config.num_layers) / self.hardware.cpu.flops
        bandwidth = self.hardware.cpu.dram_bandwidth * efficiency
        return max(kv_bytes / bandwidth, flop_time)

    def pcie_time(self, num_bytes: float) -> float:
        """One-way PCIe transfer time for ``num_bytes`` (Equation 3).

        On a multi-GPU node the KV cache is sharded one slice per GPU and
        every GPU drives its own host link, so the node-level transfer runs
        at the aggregate bandwidth.
        """
        if num_bytes < 0:
            raise ConfigurationError("transfer size must be non-negative")
        if num_bytes == 0:
            return 0.0
        return num_bytes / self.effective_pcie_bandwidth
