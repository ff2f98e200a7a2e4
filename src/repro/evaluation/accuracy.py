"""End-to-end accuracy evaluation of attention policies (Figure 8).

This module plays the role of the paper's lm-evaluation-harness runs: it
feeds a recall dataset through the constructed model one sequence at a time
under a chosen attention policy (and optional KV compression) and reports
the task metric — negative perplexity for language-modelling datasets,
answer accuracy for question-answering datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._common import ConfigurationError
from repro.attention.variants import make_policy
from repro.core.compression import QuantizationSpec
from repro.model.constructed import build_recall_model
from repro.model.generation import teacher_forced_logits
from repro.model.transformer import TransformerModel
from repro.evaluation.metrics import answer_accuracy, perplexity
from repro.workloads.recall import (
    RecallDataset,
    RecallTaskConfig,
    generate_recall_dataset,
)


@dataclass(frozen=True)
class AccuracyResult:
    """Metric values of one (model, dataset, policy, sparsity) combination."""

    model: str
    dataset: str
    policy: str
    kv_sparsity: float
    compressed: bool
    metric_name: str
    metric_value: float
    perplexity: float
    accuracy: float
    num_sequences: int

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "policy": self.policy,
            "kv_sparsity": self.kv_sparsity,
            "compressed": self.compressed,
            "metric_name": self.metric_name,
            "metric_value": self.metric_value,
            "perplexity": self.perplexity,
            "accuracy": self.accuracy,
            "num_sequences": self.num_sequences,
        }


def evaluate_policy_on_dataset(model: TransformerModel,
                               dataset: RecallDataset,
                               policy_name: str,
                               kv_sparsity: float,
                               compressed: bool = False,
                               model_name: str | None = None) -> AccuracyResult:
    """Evaluate one attention policy at one KV sparsity on one dataset."""
    config = dataset.config
    if not dataset.sequences:
        raise ConfigurationError("dataset has no sequences")

    quantization = QuantizationSpec(num_bits=8) if compressed else None

    log_likelihood_ppls = []
    accuracies = []
    for sequence in dataset.sequences:
        tokens = sequence.tokens[None, :]
        policy = make_policy(policy_name, kv_sparsity=kv_sparsity)
        logits, _ = teacher_forced_logits(
            model, tokens, policy=policy, prefill_len=config.prefill_len,
            kv_quantization=quantization,
        )
        targets = tokens[:, 1:]
        # logits[:, t] predicts tokens[:, t + 1]; answer positions index the
        # original sequence, so shift by one to index the prediction array.
        answer_idx = sequence.answer_positions - 1
        answer_idx = answer_idx[(answer_idx >= config.prefill_len - 1)
                                & (answer_idx < targets.shape[1])]
        log_likelihood_ppls.append(perplexity(logits, targets))
        if answer_idx.size:
            accuracies.append(answer_accuracy(logits, targets, answer_idx))

    mean_ppl = float(np.mean(log_likelihood_ppls))
    mean_acc = float(np.mean(accuracies)) if accuracies else 0.0
    if config.task_type == "language-modeling":
        metric_name, metric_value = "negative_perplexity", -mean_ppl
    else:
        metric_name, metric_value = "accuracy", mean_acc
    return AccuracyResult(
        model=model_name or model.config.name,
        dataset=config.name,
        policy=policy_name,
        kv_sparsity=kv_sparsity,
        compressed=compressed,
        metric_name=metric_name,
        metric_value=metric_value,
        perplexity=mean_ppl,
        accuracy=mean_acc,
        num_sequences=len(dataset.sequences),
    )


def sweep_sparsity(paper_model: str, dataset_config: RecallTaskConfig,
                   policies: tuple[str, ...] = ("dense", "local", "strided", "swa"),
                   sparsities: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8),
                   include_alisa: bool = True,
                   num_sequences: int | None = None,
                   seed: int = 0) -> list[AccuracyResult]:
    """The Figure 8 sweep for one model and one dataset.

    ``include_alisa`` adds the "SWA + compression" series (the full ALISA
    algorithm configuration).  Dense attention is only evaluated at sparsity
    0 since sparsity does not apply to it.
    """
    config = dataset_config
    if num_sequences is not None:
        config = config.with_sequences(num_sequences)
    model = build_recall_model(paper_model, seed=seed)
    dataset = generate_recall_dataset(config, seed=seed)

    results: list[AccuracyResult] = []
    results.append(evaluate_policy_on_dataset(
        model, dataset, "dense", kv_sparsity=0.0, model_name=paper_model))
    for sparsity in sparsities:
        if sparsity == 0.0:
            continue
        for policy in policies:
            if policy == "dense":
                continue
            results.append(evaluate_policy_on_dataset(
                model, dataset, policy, kv_sparsity=sparsity,
                model_name=paper_model))
        if include_alisa:
            results.append(evaluate_policy_on_dataset(
                model, dataset, "swa", kv_sparsity=sparsity, compressed=True,
                model_name=paper_model))
    return results
