"""Autoregressive text generation over the functional transformer.

Implements the prefilling + decoding loop of Figure 2 (a) with greedy or
temperature sampling, returning generated tokens plus the per-step attention
records and KV-cache sizes needed by the analysis experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._common import ConfigurationError, rng
from repro.attention.base import AttentionPolicy
from repro.model.transformer import InferenceSession, StepRecord, TransformerModel


@dataclass
class GenerationResult:
    """Output of :func:`generate`."""

    prompt_tokens: np.ndarray
    generated_tokens: np.ndarray
    records: list[StepRecord] = field(default_factory=list)
    kv_bytes_per_step: list[float] = field(default_factory=list)

    @property
    def sequences(self) -> np.ndarray:
        """Full sequences (prompt + generated), shape ``(batch, total_len)``."""
        return np.concatenate([self.prompt_tokens, self.generated_tokens], axis=1)


def _select_next(logits: np.ndarray, temperature: float,
                 generator: np.random.Generator) -> np.ndarray:
    """Pick next tokens from logits of shape ``(batch, vocab)``."""
    if temperature <= 0.0:
        return logits.argmax(axis=-1)
    scaled = logits / temperature
    scaled -= scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.array([
        generator.choice(probs.shape[1], p=row) for row in probs
    ])


def generate(model: TransformerModel, prompt_tokens: np.ndarray,
             max_new_tokens: int, policy: AttentionPolicy | None = None,
             temperature: float = 0.0, eos_token: int | None = None,
             seed: int = 0, record_attention: bool = True,
             kv_dtype_bytes: float = 2.0) -> GenerationResult:
    """Generate ``max_new_tokens`` continuations for each prompt.

    Parameters
    ----------
    prompt_tokens:
        Array of shape ``(batch, prompt_len)``.
    policy:
        Attention policy applied during decoding (dense if ``None``).
    temperature:
        0 means greedy decoding; otherwise softmax sampling.
    eos_token:
        Decoding stops early for the whole batch once *every* sequence has
        emitted this token (mirrors the paper's ``<EOS>`` behaviour).
    """
    prompt_tokens = np.asarray(prompt_tokens)
    if prompt_tokens.ndim != 2:
        raise ConfigurationError("prompt_tokens must be (batch, prompt_len)")
    if max_new_tokens <= 0:
        raise ConfigurationError("max_new_tokens must be positive")

    batch = prompt_tokens.shape[0]
    generator = rng(seed)
    session = InferenceSession(model, batch_size=batch, policy=policy,
                               record_attention=record_attention)

    logits = session.prefill(prompt_tokens)
    next_tokens = _select_next(logits[:, -1], temperature, generator)

    generated = [next_tokens]
    kv_bytes = [session.kv_cache_bytes(kv_dtype_bytes)]
    finished = np.zeros(batch, dtype=bool)
    if eos_token is not None:
        finished |= next_tokens == eos_token

    for _ in range(max_new_tokens - 1):
        if eos_token is not None and bool(finished.all()):
            break
        logits = session.decode_step(next_tokens)
        next_tokens = _select_next(logits, temperature, generator)
        generated.append(next_tokens)
        kv_bytes.append(session.kv_cache_bytes(kv_dtype_bytes))
        if eos_token is not None:
            finished |= next_tokens == eos_token

    result = GenerationResult(
        prompt_tokens=prompt_tokens,
        generated_tokens=np.stack(generated, axis=1),
        records=session.records,
        kv_bytes_per_step=kv_bytes,
    )
    return result


def teacher_forced_logits(model: TransformerModel, token_ids: np.ndarray,
                          policy: AttentionPolicy | None = None,
                          prefill_len: int = 8,
                          record_attention: bool = False,
                          kv_quantization=None
                          ) -> tuple[np.ndarray, InferenceSession]:
    """Run a sequence through the model one token at a time (teacher forcing).

    The first ``prefill_len`` tokens are processed densely in one prefill
    pass (the paper applies sparsity only during decoding); every following
    token is fed through :meth:`InferenceSession.decode_step` under the given
    policy, which emulates evaluating the model with a sparsified KV cache.

    Returns logits of shape ``(batch, seq_len - 1, vocab)`` aligned so that
    ``logits[:, t]`` predicts ``token_ids[:, t + 1]``, plus the session (for
    attention-record inspection).
    """
    token_ids = np.asarray(token_ids)
    if token_ids.ndim != 2:
        raise ConfigurationError("token_ids must be (batch, seq_len)")
    batch, seq_len = token_ids.shape
    prefill_len = int(np.clip(prefill_len, 1, seq_len - 1))

    session = InferenceSession(model, batch_size=batch, policy=policy,
                               record_attention=record_attention,
                               kv_quantization=kv_quantization)
    prefill_logits = session.prefill(token_ids[:, :prefill_len])

    all_logits = [prefill_logits[:, :-1], prefill_logits[:, -1:]]
    for t in range(prefill_len, seq_len - 1):
        step_logits = session.decode_step(token_ids[:, t])
        all_logits.append(step_logits[:, None, :])
    logits = np.concatenate(all_logits, axis=1)
    return logits, session
