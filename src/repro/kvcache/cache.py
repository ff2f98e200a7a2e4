"""Token-level KV cache for the functional (NumPy-executable) model.

The cache stores the key/value tensors produced at every decoding step, at
the granularity of a single token — the granularity ALISA schedules at
(Table I in the paper).  Sparse attention variants do not *delete* entries
here; they select which cached tokens participate in attention.  Deletion is
modelled separately by the system-level simulator, because the functional
model needs all tokens available to emulate "recompute on demand".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._common import ConfigurationError, left_sum


@dataclass
class LayerKVCache:
    """KV cache for a single attention layer.

    Keys and values are stored as arrays of shape
    ``(batch, seq_len, num_heads, head_dim)`` and grown by appending along
    the sequence axis.  When ``quantization`` is set, every appended tensor
    is stored through a quantize/de-quantize round trip, emulating ALISA's
    compressed KV storage (Section V-B) in the functional model.
    """

    batch_size: int
    num_heads: int
    head_dim: int
    quantization: object | None = None
    _keys: np.ndarray | None = field(default=None, repr=False)
    _values: np.ndarray | None = field(default=None, repr=False)

    @property
    def seq_len(self) -> int:
        """Number of cached token positions."""
        return 0 if self._keys is None else self._keys.shape[1]

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            raise ConfigurationError("KV cache is empty; nothing cached yet")
        return self._keys

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise ConfigurationError("KV cache is empty; nothing cached yet")
        return self._values

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append new per-token keys/values along the sequence axis."""
        expected = (self.batch_size, keys.shape[1], self.num_heads, self.head_dim)
        if keys.shape != expected or values.shape != expected:
            raise ConfigurationError(
                f"KV append shape mismatch: keys {keys.shape}, values "
                f"{values.shape}, expected {expected}"
            )
        if self.quantization is not None:
            from repro.core.compression import roundtrip_kv

            keys, values = roundtrip_kv(keys, values, self.quantization)
        if self._keys is None:
            self._keys = keys.copy()
            self._values = values.copy()
        else:
            self._keys = np.concatenate([self._keys, keys], axis=1)
            self._values = np.concatenate([self._values, values], axis=1)

    def gather(self, indices: np.ndarray | list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Pack the KV tensors of the selected token positions into dense
        arrays (the gather operation of Algorithm 1, line 6)."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1:
            raise ConfigurationError("gather indices must be 1-D")
        if idx.size and (idx.min() < 0 or idx.max() >= self.seq_len):
            raise ConfigurationError(
                f"gather index out of range [0, {self.seq_len}): {idx}"
            )
        return self.keys[:, idx], self.values[:, idx]

    def size_bytes(self, dtype_bytes: float = 2.0) -> float:
        """Total bytes of cached KV tensors at the given element width."""
        if self._keys is None:
            return 0.0
        return 2.0 * dtype_bytes * float(np.prod(self._keys.shape))

    def clone(self) -> "LayerKVCache":
        """Deep copy of this cache (used by what-if experiments)."""
        copy = LayerKVCache(self.batch_size, self.num_heads, self.head_dim)
        if self._keys is not None:
            copy._keys = self._keys.copy()
            copy._values = self._values.copy()
        return copy


class ModelKVCache:
    """Per-layer collection of :class:`LayerKVCache` for a whole model."""

    def __init__(self, num_layers: int, batch_size: int, num_heads: int,
                 head_dim: int, quantization: object | None = None) -> None:
        if num_layers <= 0:
            raise ConfigurationError("num_layers must be positive")
        self.num_layers = num_layers
        self.batch_size = batch_size
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.quantization = quantization
        self.layers = [
            LayerKVCache(batch_size, num_heads, head_dim, quantization)
            for _ in range(num_layers)
        ]

    def __getitem__(self, layer_idx: int) -> LayerKVCache:
        return self.layers[layer_idx]

    def __len__(self) -> int:
        return self.num_layers

    @property
    def seq_len(self) -> int:
        """Cached sequence length (identical across layers by construction)."""
        return self.layers[0].seq_len

    def size_bytes(self, dtype_bytes: float = 2.0) -> float:
        return left_sum(layer.size_bytes(dtype_bytes) for layer in self.layers)

    def clone(self) -> "ModelKVCache":
        copy = ModelKVCache(
            self.num_layers, self.batch_size, self.num_heads, self.head_dim
        )
        copy.layers = [layer.clone() for layer in self.layers]
        return copy
