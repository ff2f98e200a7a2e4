"""Task metrics: perplexity, answer accuracy, throughput and serving helpers.

The paper reports negative perplexity for language modelling and accuracy
for question answering (Figure 8, "higher is better" on both axes), and
token throughput for the system experiments (Figure 9).  The serving layer
(Section VI generalized to online traffic) additionally reports tail-latency
percentiles and SLO-conditioned goodput.
"""

from __future__ import annotations

import numpy as np

from repro._common import ConfigurationError, log_softmax


def token_log_likelihoods(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-token log-likelihoods.

    ``logits`` has shape ``(batch, seq, vocab)`` and ``targets`` has shape
    ``(batch, seq)``; ``logits[:, t]`` must be the prediction for
    ``targets[:, t]``.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.ndim != 3 or targets.ndim != 2:
        raise ConfigurationError("logits must be 3-D and targets 2-D")
    if logits.shape[:2] != targets.shape:
        raise ConfigurationError(
            f"shape mismatch: logits {logits.shape[:2]} vs targets {targets.shape}"
        )
    log_probs = log_softmax(logits, axis=-1)
    batch_idx = np.arange(targets.shape[0])[:, None]
    pos_idx = np.arange(targets.shape[1])[None, :]
    return log_probs[batch_idx, pos_idx, targets]


def perplexity(logits: np.ndarray, targets: np.ndarray,
               positions: np.ndarray | None = None) -> float:
    """Perplexity over all target positions (or a subset of positions)."""
    lls = token_log_likelihoods(logits, targets)
    if positions is not None:
        positions = np.asarray(positions, dtype=int)
        lls = lls[:, positions]
    return float(np.exp(-np.mean(lls)))


def negative_perplexity(logits: np.ndarray, targets: np.ndarray,
                        positions: np.ndarray | None = None) -> float:
    """The paper's language-modelling metric (higher is better)."""
    return -perplexity(logits, targets, positions)


def answer_accuracy(logits: np.ndarray, targets: np.ndarray,
                    positions: np.ndarray) -> float:
    """Fraction of answer positions where the argmax prediction is correct."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    positions = np.asarray(positions, dtype=int)
    if positions.size == 0:
        raise ConfigurationError("no answer positions supplied")
    predictions = logits[:, positions].argmax(axis=-1)
    reference = targets[:, positions]
    return float(np.mean(predictions == reference))


def relative_accuracy_drop(baseline: float, value: float) -> float:
    """Relative drop of a metric versus its dense-attention baseline."""
    if baseline == 0:
        raise ConfigurationError("baseline metric must be non-zero")
    return (baseline - value) / abs(baseline)


def percentiles(values, qs=(50, 90, 99)) -> dict[float, float]:
    """Percentiles of ``values`` keyed by percentile rank.

    Uses :func:`numpy.percentile`'s default linear interpolation, so the
    serving reports match what any NumPy post-processing would compute.
    The values are sorted once and each rank is interpolated in Python
    floats by NumPy's own steps, so it equals that rank's
    :func:`numpy.percentile` bit for bit without that call's fixed
    overhead.  (The one exception: NumPy partitions rather than sorts, so
    where ``-0.0`` and ``0.0`` tie at a rank the zero's sign may differ;
    serving figures are never negative.)  A NaN anywhere gives NaN; a
    rank outside [0, 100] raises :class:`ConfigurationError`.
    """
    arr = np.fromiter(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("percentiles require at least one value")
    arr.sort()
    item = arr.item
    last = arr.size - 1
    top = item(last)
    result: dict[float, float] = {}
    for q in qs:
        q = float(q)
        fraction = q / 100.0
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"percentile ranks must lie in [0, 100], got {q!r}"
            )
        if top != top:  # NaN sorts last and poisons every rank
            result[q] = top
            continue
        virtual = last * fraction
        if virtual >= last:
            # NumPy clips both neighbours to index -1 and measures gamma
            # from that clipped index, not from ``floor(virtual)``.
            below = above = top
            gamma = virtual + 1.0
        else:
            index = int(virtual)
            below = item(index)
            above = item(index + 1)
            gamma = virtual - index
        step = above - below
        result[q] = (above - step * (1.0 - gamma) if gamma >= 0.5
                     else below + step * gamma)
    return result


def serving_goodput(records, duration_s: float, ttft_slo_s: float | None = None,
                    tpot_slo_s: float | None = None) -> float:
    """Generated tokens per second from requests that met their latency SLOs.

    ``records`` are completed-request records exposing ``ttft``, ``tpot``,
    and ``output_len`` (see :class:`repro.serving.trace.RequestRecord`); a
    ``None`` SLO leaves that dimension unconstrained.  An empty record set or
    non-positive ``duration_s`` yields 0 rather than dividing by zero.
    """
    if duration_s <= 0:
        return 0.0
    good_tokens = sum(
        record.output_len for record in records
        if (ttft_slo_s is None or record.ttft <= ttft_slo_s)
        and (tpot_slo_s is None or record.tpot <= tpot_slo_s)
    )
    return good_tokens / duration_s


def geometric_mean(values) -> float:
    """Geometric mean of positive values (used for speedup summaries)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0 or np.any(arr <= 0):
        raise ConfigurationError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
