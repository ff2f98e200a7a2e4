"""Tests for the NumPy transformer substrate (layers, configs, model)."""

import numpy as np
import pytest

from repro._common import ConfigurationError
from repro.attention.variants import DenseAttentionPolicy, make_policy
from repro.model.builder import default_attention_gain
from repro.model.config import (
    EXECUTABLE_CONFIGS,
    PAPER_CONFIGS,
    ModelConfig,
    executable_stand_in,
    get_config,
    list_configs,
)
from repro.model.generation import generate, teacher_forced_logits
from repro.model.layers import (
    Embedding,
    LayerNorm,
    Linear,
    causal_mask,
    gelu,
    masked_softmax,
    sinusoidal_positions,
)
from repro.model.tokenizer import SyntheticTokenizer
from repro.model.transformer import InferenceSession


class TestLayers:
    def test_linear_matches_matmul(self, rng):
        weight = rng.normal(size=(4, 3))
        bias = rng.normal(size=3)
        layer = Linear(weight, bias)
        x = rng.normal(size=(2, 4))
        assert np.allclose(layer(x), x @ weight + bias)

    def test_linear_shape_validation(self):
        with pytest.raises(ConfigurationError):
            Linear(np.zeros((4, 3)), np.zeros(4))

    def test_layernorm_zero_mean_unit_variance(self, rng):
        layer = LayerNorm(np.ones(16), np.zeros(16))
        out = layer(rng.normal(size=(3, 16)) * 5 + 2)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_embedding_lookup_and_range_check(self, rng):
        table = rng.normal(size=(10, 4))
        emb = Embedding(table)
        assert np.allclose(emb(np.array([1, 3])), table[[1, 3]])
        with pytest.raises(ConfigurationError):
            emb(np.array([10]))

    def test_gelu_fixed_points(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)

    def test_causal_mask_square(self):
        mask = causal_mask(3, 3)
        assert mask.tolist() == [[True, False, False],
                                 [True, True, False],
                                 [True, True, True]]

    def test_causal_mask_with_offset(self):
        mask = causal_mask(2, 5)
        assert mask[0].tolist() == [True, True, True, True, False]
        assert mask[1].tolist() == [True, True, True, True, True]

    def test_causal_mask_rejects_short_keys(self):
        with pytest.raises(ConfigurationError):
            causal_mask(4, 2)

    def test_masked_softmax_zeroes_masked_positions(self):
        scores = np.zeros((1, 1, 2, 3))
        mask = causal_mask(2, 3)
        out = masked_softmax(scores, mask)
        assert out[0, 0, 0, 2] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_sinusoidal_positions_shape_and_bounds(self):
        pos = sinusoidal_positions(32, 16)
        assert pos.shape == (32, 16)
        assert np.all(np.abs(pos) <= 1.0 + 1e-9)


class TestConfig:
    def test_paper_configs_have_expected_dimensions(self):
        opt30 = get_config("opt-30b")
        assert (opt30.num_layers, opt30.hidden_size, opt30.num_heads) == (48, 7168, 56)

    def test_head_dim_divides_hidden(self):
        for name in list_configs():
            config = get_config(name)
            assert config.hidden_size == config.head_dim * config.num_heads

    def test_kv_bytes_per_token_matches_paper_formula(self, opt_cost_model):
        config = opt_cost_model.config
        # Paper: 4 * l * h bytes per token per batch element at FP16.
        assert opt_cost_model.kv_bytes_per_token(1, "fp16") == 4 * config.num_layers * config.hidden_size

    def test_parameter_count_scale(self):
        params = get_config("opt-6.7b").num_parameters()
        assert 5e9 < params < 9e9

    def test_invalid_head_split_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(name="x", family="test", num_layers=2, hidden_size=10,
                        num_heads=3)

    def test_unknown_config_raises(self):
        with pytest.raises(ConfigurationError):
            get_config("opt-175b")

    def test_executable_stand_in_mapping(self):
        stand_in = executable_stand_in("opt-30b")
        assert stand_in.executable
        assert stand_in.family == "opt"

    def test_every_paper_config_has_a_stand_in(self):
        for name in PAPER_CONFIGS:
            assert executable_stand_in(name).executable

    def test_executable_configs_are_small(self):
        for config in EXECUTABLE_CONFIGS.values():
            assert config.hidden_size <= 256


class TestRandomModel:
    def test_parameter_count_positive(self, tiny_random_model):
        assert tiny_random_model.num_parameters() > 0

    def test_attention_gain_grows_with_width(self):
        assert (default_attention_gain(get_config("opt-base"))
                > default_attention_gain(get_config("opt-tiny")))

    def test_prefill_logits_shape(self, tiny_random_model):
        session = InferenceSession(tiny_random_model, batch_size=2)
        logits = session.prefill(np.zeros((2, 5), dtype=int) + 7)
        assert logits.shape == (2, 5, tiny_random_model.config.vocab_size)

    def test_decode_appends_to_cache(self, tiny_random_model):
        session = InferenceSession(tiny_random_model, batch_size=1)
        session.prefill(np.full((1, 4), 5))
        session.decode_step(np.array([[6]]))
        assert session.seq_len == 5
        assert session.cache.seq_len == 5

    def test_decode_matches_prefill_for_dense_attention(self, tiny_random_model):
        """Incremental decoding with a KV cache must reproduce the one-shot
        forward pass (the correctness property KV caching relies on)."""
        tokens = np.array([[5, 9, 17, 33, 21, 8]])
        full_session = InferenceSession(tiny_random_model, batch_size=1)
        full_logits = full_session.prefill(tokens)

        incremental = InferenceSession(tiny_random_model, batch_size=1,
                                       policy=DenseAttentionPolicy())
        incremental.prefill(tokens[:, :3])
        outs = []
        for t in range(3, tokens.shape[1]):
            outs.append(incremental.decode_step(tokens[:, t]))
        assert np.allclose(outs[-1], full_logits[:, -1], atol=1e-8)

    def test_generation_shapes_and_determinism(self, tiny_random_model):
        prompt = np.full((2, 6), 11)
        a = generate(tiny_random_model, prompt, max_new_tokens=4, seed=3)
        b = generate(tiny_random_model, prompt, max_new_tokens=4, seed=3)
        assert a.generated_tokens.shape == (2, 4)
        assert np.array_equal(a.generated_tokens, b.generated_tokens)
        assert a.sequences.shape == (2, 10)

    def test_generation_kv_bytes_grow(self, tiny_random_model):
        prompt = np.full((1, 6), 11)
        result = generate(tiny_random_model, prompt, max_new_tokens=4)
        assert result.kv_bytes_per_step == sorted(result.kv_bytes_per_step)

    def test_teacher_forcing_alignment(self, tiny_random_model):
        tokens = np.full((1, 10), 9)
        logits, _ = teacher_forced_logits(tiny_random_model, tokens, prefill_len=4)
        assert logits.shape == (1, 9, tiny_random_model.config.vocab_size)

    def test_sequence_length_limit_enforced(self, tiny_random_model):
        session = InferenceSession(tiny_random_model, batch_size=1)
        too_long = tiny_random_model.config.max_seq_len + 1
        with pytest.raises(ConfigurationError):
            session.prefill(np.full((1, too_long), 5))

    def test_sparse_policy_reduces_attended_tokens(self, tiny_random_model):
        prompt = np.full((1, 32), 13)
        run = generate(tiny_random_model, prompt, max_new_tokens=4,
                       policy=make_policy("swa", kv_sparsity=0.8))
        decode_record = run.records[-1]
        assert all(len(pos) < decode_record.seq_len
                   for pos in decode_record.key_positions)


class TestTokenizer:
    def test_roundtrip(self):
        tok = SyntheticTokenizer()
        ids = tok.encode("the capital of france")
        assert tok.decode(ids[1:]) == "the capital of france"

    def test_bos_prepended(self):
        tok = SyntheticTokenizer()
        assert tok.encode("hello")[0] == tok.bos_token

    def test_same_word_same_id(self):
        tok = SyntheticTokenizer()
        a = tok.encode("paris paris", add_bos=False)
        assert a[0] == a[1]

    def test_overflow_maps_to_unk(self):
        tok = SyntheticTokenizer(vocab_size=10)
        ids = tok.encode(" ".join(f"w{i}" for i in range(20)), add_bos=False)
        assert tok.unk_token in ids.tolist()

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ConfigurationError):
            SyntheticTokenizer(vocab_size=4)
