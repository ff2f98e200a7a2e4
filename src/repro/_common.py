"""Shared small utilities used across the :mod:`repro` package.

The reproduction is NumPy-only, so a handful of helpers that PyTorch would
normally provide (seeded generators, numerically stable softmax, dtype byte
sizes) live here.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np
from numpy.random import default_rng

#: Bytes per element for the data formats the paper discusses.
DTYPE_BYTES = {
    "fp32": 4,
    "fp16": 2,
    "int8": 1,
    "int4": 0.5,
}


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a configuration object is internally inconsistent.

    Also a :class:`ValueError`: configuration mistakes are bad argument
    values, so callers outside the package can catch them idiomatically
    without importing :mod:`repro`.
    """


class OutOfMemoryError(ReproError):
    """Raised when a simulated memory device cannot satisfy an allocation."""


def rng(seed: int | None = 0) -> np.random.Generator:
    """Return a seeded NumPy random generator.

    A single entry point for randomness keeps every experiment deterministic
    and reproducible from its seed.
    """
    return default_rng(seed)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def dtype_bytes(name: str) -> float:
    """Bytes per element for a named data format (``fp16``, ``int8``, ...)."""
    try:
        return DTYPE_BYTES[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown dtype {name!r}; expected one of {sorted(DTYPE_BYTES)}"
        ) from exc


def validate_positive(**kwargs: float) -> None:
    """Raise :class:`ConfigurationError` unless every named value is > 0."""
    for name, value in kwargs.items():
        if value is None or value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value!r}")


def validate_fraction(**kwargs: float) -> None:
    """Raise :class:`ConfigurationError` unless every named value is in [0, 1]."""
    for name, value in kwargs.items():
        if value is None or not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")


def left_sum(values: Iterable[float], start: float = 0) -> float:
    """``start`` plus ``values``, added one by one from the left.

    The float reduction for everything the simulator reports: the same
    IEEE adds in the same order on every Python.  The builtin ``sum()``
    of floats compensates its rounding error from Python 3.12 on, so it
    would move the last digit of a total between 3.11 and 3.12; this is
    what 3.10/3.11 ``sum()`` computes.  Sums of ints may stay ``sum()``
    (``tests/test_common.py`` lists every ``sum(`` call site allowed in
    ``src``).
    """
    return reduce(add, values, start)


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (paper's ``⌊nr⌉``)."""
    return int(np.floor(x + 0.5))


def unique_preserving_order(indices: Iterable[int]) -> list[int]:
    """De-duplicate ``indices`` while preserving first-seen order."""
    seen: set[int] = set()
    out: list[int] = []
    for idx in indices:
        if idx not in seen:
            seen.add(idx)
            out.append(int(idx))
    return out


def chunked(seq: Sequence, size: int) -> list[Sequence]:
    """Split ``seq`` into consecutive chunks of at most ``size`` items."""
    validate_positive(size=size)
    return [seq[i : i + size] for i in range(0, len(seq), size)]
