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
    """Spearman rank correlation between two attention-score distributions."""
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape:
        raise ConfigurationError("distributions must have the same shape")
    if reference.size < 3:
        raise ConfigurationError("need at least 3 positions to correlate")
    if np.allclose(reference, reference[0]) or np.allclose(candidate, candidate[0]):
        return 0.0
    # Imported here: scipy costs most of a second to import, and the
    # serving layer reaches this module through repro.evaluation.
    from scipy import stats

    rho, _ = stats.spearmanr(reference, candidate)
    if np.isnan(rho):
        return 0.0
    return float(rho)


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
