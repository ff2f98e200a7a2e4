"""Attention-score distribution comparison (Figure 4).

The paper compares the average attention-score distribution each sparse
method produces against dense attention and reports the Spearman rank
correlation ``rho`` — SWA tracks dense attention almost perfectly while
local and strided attention are nearly uncorrelated.
"""

from __future__ import annotations

import numpy as np

from repro._common import ConfigurationError


def spearman_correlation(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Spearman rank correlation between two attention-score distributions.

    The Pearson correlation (``np.corrcoef``) of the two average-rank
    vectors (:func:`average_ranks`), as ``scipy.stats.spearmanr`` computes
    it.  Constant inputs and inputs holding a NaN give 0.0.
    """
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape:
        raise ConfigurationError("distributions must have the same shape")
    if reference.size < 3:
        raise ConfigurationError("need at least 3 positions to correlate")
    if np.allclose(reference, reference[0]) or np.allclose(candidate, candidate[0]):
        return 0.0
    if np.isnan(reference).any() or np.isnan(candidate).any():
        return 0.0
    # Non-constant, NaN-free inputs have non-constant ranks, so rho is
    # finite.  Columns, as scipy stacks them, give its rho bit for bit.
    ranks = np.column_stack((average_ranks(reference), average_ranks(candidate)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, ties given the mean of their ranks.

    The rule of ``scipy.stats.rankdata(method="average")``: a run of
    ``k`` equal values occupying sorted positions ``i + 1`` to ``i + k``
    all get ``i + (k + 1) / 2``.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    group = np.cumsum(starts)
    # bounds[g - 1] is how many values sort before group g, and bounds[g]
    # how many sort up to its end.
    bounds = np.append(np.flatnonzero(starts), values.size)
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group - 1] + 1)
    return ranks


def score_distribution(received_attention: np.ndarray,
                       descending: bool = True) -> np.ndarray:
    """Sorted attention-score distribution (the power-law curves of Fig. 4)."""
    dist = np.sort(np.asarray(received_attention, dtype=np.float64))
    return dist[::-1] if descending else dist


def distribution_summary(received_attention: np.ndarray) -> dict:
    """Summary statistics of an attention-score distribution."""
    dist = score_distribution(received_attention)
    total = dist.sum()
    if total <= 0:
        raise ConfigurationError("attention distribution must have positive mass")
    normalized = dist / total
    top10 = max(1, int(0.1 * normalized.size))
    return {
        "top10pct_mass": float(normalized[:top10].sum()),
        "max_share": float(normalized[0]),
        "entropy": float(-(normalized * np.log(normalized + 1e-12)).sum()),
    }
