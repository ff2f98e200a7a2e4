"""Tests for workloads (recall/corpus/descriptors) and evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ConfigurationError
from repro.attention.variants import make_policy
from repro.evaluation.accuracy import evaluate_policy_on_dataset, sweep_sparsity
from repro.evaluation.correlation import (
    average_ranks,
    distribution_summary,
    score_distribution,
    spearman_correlation,
)
from repro.evaluation.metrics import (
    answer_accuracy,
    geometric_mean,
    negative_perplexity,
    perplexity,
    relative_accuracy_drop,
)
from repro.evaluation.sparsity import (
    attention_weight_sparsity,
    sparsity_over_steps,
)
from repro.model.constructed import DEFAULT_VOCABULARY
from repro.model.generation import generate
from repro.workloads.corpus import sample_prompts, zipf_prompt_batch, zipf_token_stream
from repro.workloads.descriptors import (
    ALPACA_WORKLOAD,
    FIGURE1_WORKLOADS,
    Workload,
    alpaca_batch_sweep,
)
from repro.workloads.recall import (
    ALL_DATASETS,
    LM_DATASETS,
    QA_DATASETS,
    generate_recall_dataset,
    generate_recall_sequence,
    get_dataset_config,
)


class TestWorkloadDescriptors:
    def test_max_seq_len(self):
        assert Workload(4, 128, 512, "w").max_seq_len == 640

    def test_invalid_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            Workload(0, 128, 512, "w")

    def test_alpaca_sweep_batches(self):
        sweep = alpaca_batch_sweep()
        assert [w.batch_size for w in sweep] == [4, 8, 16, 32, 64]
        assert all(w.input_len == 128 and w.output_len == 512 for w in sweep)

    def test_figure1_workloads_share_lengths(self):
        assert {w.input_len for w in FIGURE1_WORKLOADS} == {512}

    def test_with_batch_size_preserves_lengths(self):
        wl = ALPACA_WORKLOAD.with_batch_size(64)
        assert (wl.batch_size, wl.input_len, wl.output_len) == (64, 128, 512)


class TestRecallWorkloads:
    def test_sequence_layout(self, rng):
        config = QA_DATASETS["copa"]
        seq = generate_recall_sequence(config, rng)
        assert seq.length <= config.sequence_length
        vocab = config.vocabulary
        # Every answer position holds the bound value for its query token.
        for pos, answer in zip(seq.answer_positions, seq.answer_tokens):
            assert seq.tokens[pos] == answer
            assert vocab.value_start <= answer < vocab.filler_start
            query = seq.tokens[pos - 1]
            assert vocab.query_start <= query < vocab.value_start

    def test_binding_sites_in_prefix(self, rng):
        config = LM_DATASETS["wikitext-2"]
        seq = generate_recall_sequence(config, rng)
        assert seq.binding_positions.max() < config.prefill_len

    def test_answers_consistent_with_bindings(self, rng):
        config = QA_DATASETS["piqa"]
        seq = generate_recall_sequence(config, rng)
        vocab = config.vocabulary
        binding = {}
        for pos in seq.binding_positions:
            binding[int(seq.tokens[pos - 1])] = int(seq.tokens[pos])
        for pos, answer in zip(seq.answer_positions, seq.answer_tokens):
            query = int(seq.tokens[pos - 1])
            key = vocab.key(query - vocab.query_start)
            assert binding[key] == answer

    def test_dataset_determinism(self):
        a = generate_recall_dataset(QA_DATASETS["copa"], seed=5)
        b = generate_recall_dataset(QA_DATASETS["copa"], seed=5)
        assert np.array_equal(a.token_matrix(), b.token_matrix())

    def test_dataset_size(self):
        dataset = generate_recall_dataset(LM_DATASETS["alpaca"].with_sequences(3))
        assert len(dataset) == 3

    def test_all_seven_paper_datasets_registered(self):
        assert set(LM_DATASETS) == {"wikitext-2", "penn-treebank", "alpaca"}
        assert set(QA_DATASETS) == {"piqa", "copa", "openbookqa", "winogrande"}

    def test_get_dataset_config_unknown(self):
        with pytest.raises(ConfigurationError):
            get_dataset_config("mmlu")

    def test_vocabulary_ranges_disjoint(self):
        vocab = DEFAULT_VOCABULARY
        assert vocab.key_start < vocab.query_start < vocab.value_start < vocab.filler_start
        assert vocab.filler_start < vocab.vocab_size

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ALL_DATASETS["copa"].__class__("x", "question-answering",
                                           num_pairs=100)


class TestCorpus:
    def test_zipf_stream_range(self):
        stream = zipf_token_stream(500, 128, seed=1)
        assert stream.min() >= 4 and stream.max() < 128

    def test_zipf_stream_heavy_tail(self):
        stream = zipf_token_stream(2000, 256, seed=2)
        counts = np.bincount(stream, minlength=256)
        assert counts.max() > 5 * np.median(counts[counts > 0])

    def test_zipf_prompt_batch_shape(self):
        batch = zipf_prompt_batch(3, 40, 128, seed=0)
        assert batch.shape == (3, 40)

    def test_sample_prompts_bounds(self):
        prompts = sample_prompts(2, 16, 100, seed=0)
        assert prompts.min() >= 4 and prompts.max() < 100

    def test_invalid_repeat_probability(self):
        with pytest.raises(ConfigurationError):
            zipf_token_stream(10, 64, repeat_probability=1.5)


class TestMetrics:
    def test_perplexity_of_perfect_prediction(self):
        logits = np.full((1, 4, 8), -100.0)
        targets = np.array([[1, 2, 3, 4]])
        for t, tok in enumerate(targets[0]):
            logits[0, t, tok] = 100.0
        assert perplexity(logits, targets) == pytest.approx(1.0)

    def test_perplexity_of_uniform_prediction(self):
        logits = np.zeros((1, 5, 16))
        targets = np.zeros((1, 5), dtype=int)
        assert perplexity(logits, targets) == pytest.approx(16.0)

    def test_negative_perplexity_sign(self):
        logits = np.zeros((1, 5, 16))
        targets = np.zeros((1, 5), dtype=int)
        assert negative_perplexity(logits, targets) == pytest.approx(-16.0)

    def test_answer_accuracy(self):
        logits = np.zeros((1, 4, 8))
        logits[0, 1, 3] = 5.0
        logits[0, 3, 2] = 5.0
        targets = np.array([[0, 3, 0, 7]])
        assert answer_accuracy(logits, targets, np.array([1, 3])) == 0.5

    def test_accuracy_requires_positions(self):
        with pytest.raises(ConfigurationError):
            answer_accuracy(np.zeros((1, 2, 4)), np.zeros((1, 2), dtype=int),
                            np.array([]))

    def test_relative_drop(self):
        assert relative_accuracy_drop(0.8, 0.6) == pytest.approx(0.25)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            perplexity(np.zeros((1, 3, 4)), np.zeros((1, 4), dtype=int))


class TestSparsityAndCorrelation:
    def test_one_hot_rows_are_sparse(self):
        weights = np.zeros((1, 1, 1, 10))
        weights[..., 3] = 1.0
        assert attention_weight_sparsity(weights) == pytest.approx(0.9)

    def test_uniform_rows_are_dense(self):
        weights = np.full((1, 1, 1, 10), 0.1)
        assert attention_weight_sparsity(weights) == 0.0

    def test_causal_masking_excluded_from_count(self):
        weights = np.full((1, 1, 4, 4), 0.25)
        sparsity = attention_weight_sparsity(weights, causal=True)
        assert sparsity == 0.0

    def test_sparsity_over_steps_shape(self, tiny_random_model):
        prompts = sample_prompts(1, 16, tiny_random_model.config.vocab_size)
        run = generate(tiny_random_model, prompts, max_new_tokens=3,
                       policy=make_policy("dense"))
        matrix = sparsity_over_steps(run.records)
        # One prefill record plus max_new_tokens - 1 decode records.
        assert matrix.shape == (3, tiny_random_model.config.num_layers)
        assert np.all((matrix >= 0) & (matrix <= 1))

    def test_spearman_perfect_and_inverted(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_correlation(a, a * 10) == pytest.approx(1.0)
        assert spearman_correlation(a, -a) == pytest.approx(-1.0)

    def test_spearman_constant_input(self):
        assert spearman_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_spearman_nan_input(self):
        a = np.array([1.0, np.nan, 3.0, 4.0])
        assert spearman_correlation(a, np.arange(4.0)) == 0.0

    def test_average_ranks_ties_by_hand(self):
        assert average_ranks(np.array([10.0, 20.0, 20.0, 5.0])).tolist() \
            == [2.0, 3.5, 3.5, 1.0]
        assert average_ranks(np.array([3.0, 3.0, 3.0])).tolist() \
            == [2.0, 2.0, 2.0]
        assert average_ranks(np.array([2.0, 1.0, 2.0, 1.0, 2.0])).tolist() \
            == [4.0, 1.5, 4.0, 1.5, 4.0]
        assert average_ranks(np.array([-0.0, 0.0, np.inf, -np.inf])).tolist() \
            == [2.5, 2.5, 4.0, 1.0]

    def test_spearman_ties_by_hand(self):
        # Ranks [1.5, 1.5, 3, 4] against [1, 2, 3, 4]: Pearson of the
        # centred ranks [-1, -1, 0.5, 1.5] and [-1.5, -0.5, 0.5, 1.5] is
        # 4.5 / sqrt(4.5 * 5).
        rho = spearman_correlation(np.array([1.0, 1.0, 2.0, 3.0]),
                                   np.arange(4.0))
        assert rho == pytest.approx(4.5 / np.sqrt(4.5 * 5.0), abs=1e-15)
        assert spearman_correlation(np.array([1.0, 2.0, 2.0, 3.0]),
                                    np.array([3.0, 2.0, 2.0, 1.0])) \
            == pytest.approx(-1.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), size=st.integers(3, 40))
    def test_spearman_matches_scipy(self, data, size):
        stats = pytest.importorskip("scipy.stats")
        # Few distinct values, so most draws carry ties.
        values = st.one_of(
            st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
        a = np.array(data.draw(st.lists(values, min_size=size,
                                        max_size=size)))
        b = np.array(data.draw(st.lists(values, min_size=size,
                                        max_size=size)))
        assert np.array_equal(average_ranks(a), stats.rankdata(a))
        assert np.array_equal(average_ranks(b), stats.rankdata(b))
        if np.allclose(a, a[0]) or np.allclose(b, b[0]):
            # A (nearly) constant input answers 0.0 before any ranking.
            assert spearman_correlation(a, b) == 0.0
            return
        expected = stats.spearmanr(a, b)[0]
        assert spearman_correlation(a, b) == pytest.approx(expected,
                                                           abs=1e-12)

    def test_distribution_summary(self):
        summary = distribution_summary(np.array([10.0, 1.0, 1.0, 1.0, 1.0,
                                                 1.0, 1.0, 1.0, 1.0, 1.0]))
        assert summary["top10pct_mass"] > 0.5
        assert summary["max_share"] > 0.5

    def test_score_distribution_sorted(self):
        dist = score_distribution(np.array([0.1, 0.9, 0.5]))
        assert dist.tolist() == sorted(dist.tolist(), reverse=True)


class TestAccuracyIntegration:
    """Integration: the full Figure-8 mechanism on a small configuration."""

    def test_dense_solves_the_recall_task(self, recall_model, small_recall_dataset):
        result = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                            "dense", kv_sparsity=0.0)
        assert result.accuracy >= 0.9

    def test_swa_matches_dense_at_high_sparsity(self, recall_model,
                                                small_recall_dataset):
        dense = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                           "dense", kv_sparsity=0.0)
        swa = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                         "swa", kv_sparsity=0.8)
        assert swa.accuracy >= dense.accuracy - 0.15

    def test_local_attention_collapses(self, recall_model, small_recall_dataset):
        local = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                           "local", kv_sparsity=0.5)
        swa = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                         "swa", kv_sparsity=0.5)
        assert local.accuracy < swa.accuracy - 0.3

    def test_compression_tracks_swa(self, recall_model, small_recall_dataset):
        swa = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                         "swa", kv_sparsity=0.8)
        alisa = evaluate_policy_on_dataset(recall_model, small_recall_dataset,
                                           "swa", kv_sparsity=0.8,
                                           compressed=True)
        assert alisa.accuracy == pytest.approx(swa.accuracy, abs=0.05)

    def test_sweep_contains_all_series(self):
        results = sweep_sparsity("opt-6.7b", QA_DATASETS["copa"],
                                 sparsities=(0.0, 0.8), num_sequences=2)
        policies = {(r.policy, r.compressed) for r in results}
        assert ("dense", False) in policies
        assert ("swa", True) in policies
        assert ("local", False) in policies
