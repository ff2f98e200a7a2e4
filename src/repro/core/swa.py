"""Sparse Window Attention (SWA) — Algorithm 1 of the ALISA paper.

SWA keeps, at every decoding step, a mixture of

* **locally static** tokens: the ``k`` most recent positions, preserving the
  sequential semantics of language, and
* **globally dynamic** tokens: the ``k`` positions with the highest *local
  attention sum*, i.e. the attention weight they received from the most
  recent ``k`` queries, capturing semantically important distant tokens.

With a caching ratio ``r`` and current sequence length ``n`` the paper sets
``k = ⌊n·r/2⌉`` so the two groups are evenly split.

Two entry points are provided:

* :func:`select_sparse_tokens` — the token-selection rule alone, used by the
  attention-policy adapter and by the system-level scheduler;
* :func:`sparse_window_attention` — the full Algorithm 1, computing the
  attention output over the gathered sparse KV tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._common import (
    ConfigurationError,
    round_half_up,
    softmax,
    validate_fraction,
)


@dataclass(frozen=True)
class SWAConfig:
    """Configuration of the Sparse Window Attention algorithm.

    ``caching_ratio`` is the paper's ``r``; ``local_fraction`` controls the
    split between locally static and globally dynamic tokens (0.5 reproduces
    the paper's even split and is the default; other values are exposed for
    the ablation study).
    """

    caching_ratio: float
    local_fraction: float = 0.5

    def __post_init__(self) -> None:
        validate_fraction(caching_ratio=self.caching_ratio,
                          local_fraction=self.local_fraction)

    @property
    def kv_sparsity(self) -> float:
        """KV sparsity implied by the caching ratio (``1 - r``)."""
        return 1.0 - self.caching_ratio

    @classmethod
    def from_sparsity(cls, kv_sparsity: float,
                      local_fraction: float = 0.5) -> "SWAConfig":
        validate_fraction(kv_sparsity=kv_sparsity)
        return cls(caching_ratio=1.0 - kv_sparsity, local_fraction=local_fraction)

    def split_budget(self, seq_len: int) -> tuple[int, int]:
        """Return ``(num_local, num_global)`` kept tokens for ``seq_len``.

        Both counts are at least one token so attention always has something
        to attend to, and their total never exceeds ``seq_len``.
        """
        if seq_len <= 0:
            raise ConfigurationError("seq_len must be positive")
        total = max(2, round_half_up(seq_len * self.caching_ratio))
        total = min(total, seq_len)
        num_local = max(1, round_half_up(total * self.local_fraction))
        num_local = min(num_local, seq_len)
        num_global = max(0, min(total - num_local, seq_len - num_local))
        if num_global == 0 and seq_len > num_local:
            num_global = 1 if total > num_local else 0
        return num_local, num_global

    def split_budget_batch(self, seq_lens: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`split_budget` over an array of sequence lengths.

        Applies the identical rounding (``⌊x + 0.5⌋``) and clamping rules
        elementwise, so ``split_budget_batch(seq)[...][j]`` always equals
        ``split_budget(seq[j])`` — relied on by the epoch-granular pricing
        fast path of the system simulators.  The split is a pure function
        of the sequence length, so it is read from a table kept per
        configuration (see :func:`sequence_table`); the returned arrays
        are fresh copies.
        """
        seq = np.asarray(seq_lens, dtype=np.int64)
        if not seq.size:
            return seq.copy(), seq.copy()
        if seq.min() <= 0:
            raise ConfigurationError("seq_len must be positive")
        table = sequence_table(self, int(seq.max()))
        return table.num_local[seq], table.num_global[seq]


class SequenceTable:
    """Per-sequence-length quantities of one :class:`SWAConfig`.

    Every array is read-only and indexed by sequence length (entry 0 is
    unused), so ``table.num_local[s + 1:s + n + 1]`` is the local window
    of the ``n`` decode steps after an ``s``-token prompt.  Besides the
    split itself it holds the two non-local counts the three-phase
    scheduler derives from it: ``non_local = max(0, seq - num_local)``
    (tokens Phase II may offload) and ``non_local_total = max(1, seq -
    num_local)`` (the divisor spreading global tokens over them).
    """

    __slots__ = ("num_local", "num_global", "non_local", "non_local_total",
                 "_local_list")

    def __init__(self, config: SWAConfig, size: int) -> None:
        seq = np.arange(size, dtype=np.int64)
        total = np.maximum(
            2, np.floor(seq * config.caching_ratio + 0.5).astype(np.int64))
        total = np.minimum(total, seq)
        num_local = np.maximum(
            1, np.floor(total * config.local_fraction + 0.5).astype(np.int64))
        num_local = np.minimum(num_local, seq)
        num_global = np.maximum(0, np.minimum(total - num_local,
                                              seq - num_local))
        bump = (num_global == 0) & (seq > num_local) & (total > num_local)
        num_global = np.where(bump, 1, num_global)
        self.num_local = num_local
        self.num_global = num_global
        self.non_local = np.maximum(0, seq - num_local)
        self.non_local_total = np.maximum(1, seq - num_local)
        for array in (self.num_local, self.num_global, self.non_local,
                      self.non_local_total):
            array.flags.writeable = False
        self._local_list: list[int] | None = None

    @property
    def size(self) -> int:
        return self.num_local.size

    def local_list(self) -> list[int]:
        """``num_local`` as a Python list (built on first use), for
        scalar recurrences that index it one sequence length at a time."""
        if self._local_list is None:
            self._local_list = self.num_local.tolist()
        return self._local_list


#: ``(caching_ratio, local_fraction) -> SequenceTable``, shared by equal
#: configs.
_SEQUENCE_TABLES: dict[tuple[float, float], SequenceTable] = {}


def sequence_table(config: SWAConfig, max_seq: int) -> SequenceTable:
    """The config's :class:`SequenceTable`, covering at least ``1..max_seq``.

    Grown geometrically (at least doubling) so a run of increasing
    sequence lengths rebuilds it only logarithmically often.  The split
    entries are the array form of :meth:`SWAConfig.split_budget`.
    """
    key = (config.caching_ratio, config.local_fraction)
    table = _SEQUENCE_TABLES.get(key)
    if table is not None and max_seq < table.size:
        return table
    size = max(max_seq + 1, 1024 if table is None else 2 * table.size)
    table = _SEQUENCE_TABLES[key] = SequenceTable(config, size)
    return table


@dataclass(frozen=True)
class SWASelection:
    """Result of the SWA token-selection rule."""

    local_indices: np.ndarray
    global_indices: np.ndarray

    @property
    def indices(self) -> np.ndarray:
        """All kept token positions, sorted and de-duplicated."""
        return np.unique(np.concatenate([self.local_indices, self.global_indices]))

    @property
    def num_kept(self) -> int:
        return int(self.indices.size)


def select_sparse_tokens(local_attention_sum: np.ndarray, seq_len: int,
                         config: SWAConfig) -> SWASelection:
    """Select the locally static and globally dynamic token positions.

    Parameters
    ----------
    local_attention_sum:
        Per-position attention weight summed over the last ``k`` queries
        (Algorithm 1, line 2).  Positions beyond ``local_attention_sum.size``
        are treated as zero.
    seq_len:
        Current sequence length ``n`` (number of cached tokens).
    config:
        SWA configuration (caching ratio and local/global split).
    """
    if seq_len <= 0:
        raise ConfigurationError("seq_len must be positive")
    num_local, num_global = config.split_budget(seq_len)

    local_indices = np.arange(seq_len - num_local, seq_len)

    candidate_scores = np.zeros(seq_len)
    n = min(seq_len, local_attention_sum.size)
    candidate_scores[:n] = local_attention_sum[:n]
    # Globally dynamic tokens are drawn from outside the local window so the
    # two groups are disjoint (matching the illustration in Figure 6).
    candidate_scores[seq_len - num_local:] = -np.inf

    num_candidates = seq_len - num_local
    num_global = min(num_global, num_candidates)
    if num_global > 0:
        top = np.argpartition(candidate_scores, -num_global)[-num_global:]
        global_indices = np.sort(top)
    else:
        global_indices = np.empty(0, dtype=int)
    return SWASelection(local_indices=local_indices,
                        global_indices=global_indices.astype(int))


def local_attention_window(seq_len: int, config: SWAConfig) -> int:
    """Number of recent query rows used to compute the local attention sum.

    The paper uses the same ``k`` as the locally static window
    (Algorithm 1 computes ``S`` from rows ``n - k .. n - 1``).
    """
    num_local, _ = config.split_budget(seq_len)
    return num_local


def sparse_window_attention(previous_weights: np.ndarray, query: np.ndarray,
                            keys: np.ndarray, values: np.ndarray,
                            config: SWAConfig) -> tuple[np.ndarray, np.ndarray, SWASelection]:
    """Algorithm 1: compute one decoding step of Sparse Window Attention.

    Parameters
    ----------
    previous_weights:
        Attention weight rows of preceding steps, shape ``(steps, n)`` where
        ``n`` is the current sequence length.  Only the last ``k`` rows are
        used (the local attention window).
    query:
        Query vector(s) of the current step, shape ``(..., d)``.
    keys, values:
        Cached key/value tensors, shape ``(n, d)`` (single head) — the
        multi-head case is handled by the model layer, which calls this per
        head or uses the policy adapter.
    config:
        SWA configuration.

    Returns
    -------
    attention_scores:
        ``(..., d)`` attention output computed over the sparse KV tensors.
    attention_weights:
        ``(..., m)`` attention weights over the kept tokens.
    selection:
        The :class:`SWASelection` describing which tokens were kept.
    """
    if keys.ndim != 2 or values.ndim != 2:
        raise ConfigurationError("keys/values must be 2-D (seq_len, head_dim)")
    seq_len, head_dim = keys.shape
    if values.shape != (seq_len, head_dim):
        raise ConfigurationError("keys and values must share their shape")

    window = local_attention_window(seq_len, config)
    if previous_weights.size == 0:
        local_sum = np.zeros(seq_len)
    else:
        if previous_weights.ndim != 2:
            raise ConfigurationError("previous_weights must be 2-D (steps, n)")
        recent = previous_weights[-window:]
        local_sum = np.zeros(seq_len)
        width = min(seq_len, recent.shape[1])
        local_sum[:width] = recent[:, :width].sum(axis=0)

    selection = select_sparse_tokens(local_sum, seq_len, config)
    kept = selection.indices
    sparse_keys = keys[kept]
    sparse_values = values[kept]

    logits = query @ sparse_keys.T / np.sqrt(head_dim)
    weights = softmax(logits, axis=-1)
    scores = weights @ sparse_values
    return scores, weights, selection
