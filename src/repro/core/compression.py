"""KV compression via fine-grained channel-wise quantization (Section V-B).

ALISA quantizes KV tensors to INT8 on their way to memory and de-quantizes
them back to FP16 for computation, using the affine scheme of Equation 7::

    x_quant = round(x / lambda + z),      x = lambda * (x_quant - z)

with ``lambda = (max - min) / (2^b - 1)`` computed per channel (the last
tensor dimension), which the paper adopts for inference robustness [9].

The module provides both the numerical transform (used by the functional
accuracy experiments, Figure 8's "SWA + Compression" series) and the byte
accounting (used by the system simulator to shrink PCIe traffic and CPU/GPU
footprints).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._common import ConfigurationError, validate_positive


@dataclass(frozen=True)
class QuantizationSpec:
    """Bit-width and granularity of KV compression."""

    num_bits: int = 8
    channel_axis: int = -1

    def __post_init__(self) -> None:
        if self.num_bits not in (2, 4, 8, 16):
            raise ConfigurationError(
                f"num_bits must be one of 2, 4, 8, 16; got {self.num_bits}"
            )

    @property
    def bytes_per_element(self) -> float:
        return self.num_bits / 8.0

    @property
    def num_levels(self) -> int:
        return 2**self.num_bits

    def compression_ratio(self, source_bytes_per_element: float = 2.0) -> float:
        """How much smaller compressed KV tensors are than the source dtype."""
        validate_positive(source_bytes_per_element=source_bytes_per_element)
        return source_bytes_per_element / self.bytes_per_element


@dataclass
class QuantizedTensor:
    """A quantized tensor together with its per-channel scale and zero point."""

    codes: np.ndarray
    scale: np.ndarray
    zero_point: np.ndarray
    spec: QuantizationSpec
    original_shape: tuple

    def dequantize(self) -> np.ndarray:
        """Recover the floating-point tensor (Equation 7, right)."""
        return dequantize(self)


def _moveaxis_to_last(x: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(x, axis, -1)


def quantize(x: np.ndarray, spec: QuantizationSpec | None = None) -> QuantizedTensor:
    """Channel-wise affine quantization of ``x`` (Equation 7, left).

    Channels are taken along ``spec.channel_axis``; each channel gets its own
    scale ``lambda`` and zero point ``z``.
    """
    spec = spec or QuantizationSpec()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ConfigurationError("cannot quantize a scalar")

    moved = _moveaxis_to_last(x, spec.channel_axis)
    flat = moved.reshape(-1, moved.shape[-1])

    channel_min = flat.min(axis=0)
    channel_max = flat.max(axis=0)
    span = channel_max - channel_min
    # Degenerate channels (constant value) fall back to a unit span; their
    # round-trip error is bounded by one quantization step like any other.
    span = np.where(span <= 0, 1.0, span)

    scale = span / (spec.num_levels - 1)
    zero_point = np.round(-channel_min / scale)

    codes = np.round(flat / scale + zero_point)
    codes = np.clip(codes, 0, spec.num_levels - 1)

    if spec.num_bits <= 8:
        codes = codes.astype(np.uint8)
    else:
        codes = codes.astype(np.uint16)

    return QuantizedTensor(
        codes=codes.reshape(moved.shape),
        scale=scale,
        zero_point=zero_point,
        spec=spec,
        original_shape=x.shape,
    )


def dequantize(tensor: QuantizedTensor) -> np.ndarray:
    """Recover the floating-point tensor and restore the channel axis."""
    moved_shape_restored = tensor.scale * (
        tensor.codes.astype(np.float64) - tensor.zero_point
    )
    original_axis = tensor.spec.channel_axis
    restored = np.moveaxis(moved_shape_restored, -1, original_axis)
    return restored.reshape(tensor.original_shape)


def quantization_error(x: np.ndarray, spec: QuantizationSpec | None = None) -> float:
    """Relative L2 error introduced by a quantize/de-quantize round trip."""
    spec = spec or QuantizationSpec()
    x = np.asarray(x, dtype=np.float64)
    restored = dequantize(quantize(x, spec))
    denom = np.linalg.norm(x)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(x - restored) / denom)


def compress_kv(keys: np.ndarray, values: np.ndarray,
                spec: QuantizationSpec | None = None
                ) -> tuple[QuantizedTensor, QuantizedTensor]:
    """Quantize a key/value tensor pair with a shared spec."""
    spec = spec or QuantizationSpec()
    return quantize(keys, spec), quantize(values, spec)


def roundtrip_kv(keys: np.ndarray, values: np.ndarray,
                 spec: QuantizationSpec | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Simulate storing KV tensors compressed: quantize then de-quantize.

    The functional accuracy experiments use this to measure the accuracy
    impact of INT8 KV compression (the ALISA series of Figure 8).
    """
    q_keys, q_values = compress_kv(keys, values, spec)
    return dequantize(q_keys), dequantize(q_values)
