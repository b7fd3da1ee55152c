"""Unit tests for transformer architecture descriptions."""

import pytest

from repro.models.config import AttentionKind, ModelConfig
from repro.models.graph import decode_operators
from repro.models.layers import OperatorKind


def make_config(**overrides) -> ModelConfig:
    base = dict(
        name="test-model",
        num_layers=4,
        hidden_size=512,
        num_heads=8,
        num_kv_heads=8,
        intermediate_size=2048,
        vocab_size=32000,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestValidation:
    def test_head_dim_defaults_to_hidden_over_heads(self):
        config = make_config()
        assert config.head_dim == 512 // 8

    def test_explicit_head_dim_is_kept(self):
        config = make_config(head_dim=256)
        assert config.head_dim == 256

    def test_rejects_non_divisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            make_config(num_heads=8, num_kv_heads=3)

    def test_rejects_non_positive_layers(self):
        with pytest.raises(ValueError):
            make_config(num_layers=0)

    def test_rejects_zero_heads(self):
        with pytest.raises(ValueError):
            make_config(num_heads=0, num_kv_heads=0)

    def test_rejects_experts_per_token_above_experts(self):
        with pytest.raises(ValueError, match="experts_per_token"):
            make_config(num_experts=2, experts_per_token=4)


class TestAttentionKind:
    def test_mha(self):
        assert make_config(num_kv_heads=8).attention_kind == AttentionKind.MHA

    def test_gqa(self):
        assert make_config(num_kv_heads=2).attention_kind == AttentionKind.GQA

    def test_mqa(self):
        assert make_config(num_kv_heads=1).attention_kind == AttentionKind.MQA

    def test_group_size(self):
        assert make_config(num_kv_heads=2).gqa_group_size == 4
        assert make_config(num_kv_heads=1).gqa_group_size == 8
        assert make_config(num_kv_heads=8).gqa_group_size == 1


class TestParameterCounts:
    def test_attention_params_mha(self):
        config = make_config()
        # q + k + v + o, all hidden x hidden for MHA with default head_dim
        assert config.attention_params_per_layer == 4 * 512 * 512

    def test_attention_params_shrink_with_gqa(self):
        mha = make_config(num_kv_heads=8)
        gqa = make_config(num_kv_heads=2)
        assert gqa.attention_params_per_layer < mha.attention_params_per_layer

    def test_gated_mlp_has_three_matrices(self):
        gated = make_config(gated_mlp=True)
        plain = make_config(gated_mlp=False)
        assert gated.mlp_params_per_expert == 3 * 512 * 2048
        assert plain.mlp_params_per_expert == 2 * 512 * 2048

    def test_embedding_params_tied_vs_untied(self):
        untied = make_config(tie_word_embeddings=False)
        tied = make_config(tie_word_embeddings=True)
        assert untied.embedding_params == 2 * tied.embedding_params

    def test_param_bytes_uses_dtype(self):
        fp16 = make_config(dtype_bytes=2)
        fp32 = make_config(dtype_bytes=4)
        assert fp32.param_bytes == 2 * fp16.param_bytes

    def test_moe_total_vs_active(self):
        moe = make_config(num_experts=8, experts_per_token=2)
        dense = make_config()
        # all experts stored...
        assert moe.mlp_params_per_layer == 8 * dense.mlp_params_per_layer
        # ...but only two read per token
        active_mlp = moe.active_params_per_token \
            - moe.num_layers * moe.attention_params_per_layer \
            - moe.vocab_size * moe.hidden_size
        assert active_mlp == moe.num_layers * 2 * dense.mlp_params_per_expert

    def test_flops_per_token_is_two_per_active_param(self):
        """A decode step's GEMMs do one multiply-add per active weight."""
        config = make_config()
        gemms = [op for op in decode_operators(config, 1, 16)
                 if op.kind == OperatorKind.GEMM]
        assert sum(op.flops for op in gemms) \
            == 2.0 * config.active_params_per_token


class TestKnownModels:
    """Spot-check derived counts against public figures."""

    def test_llama3_8b_parameter_count(self):
        from repro.models.zoo import get_model
        model = get_model("llama3-8b")
        assert model.num_parameters == pytest.approx(8.0e9, rel=0.02)

    def test_llama2_7b_parameter_count(self):
        from repro.models.zoo import get_model
        model = get_model("llama2-7b")
        assert model.num_parameters == pytest.approx(6.7e9, rel=0.03)

    def test_llama3_70b_parameter_count(self):
        from repro.models.zoo import get_model
        model = get_model("llama3-70b")
        assert model.num_parameters == pytest.approx(70.6e9, rel=0.03)

    def test_mixtral_total_vs_active(self):
        from repro.models.zoo import get_model
        model = get_model("mixtral-8x7b")
        assert model.num_parameters == pytest.approx(46.7e9, rel=0.05)
        assert model.active_params_per_token == pytest.approx(12.9e9, rel=0.1)

    def test_q_and_kv_dims(self):
        from repro.models.zoo import get_model
        model = get_model("llama3-8b")
        assert model.q_dim == 4096
        assert model.kv_dim == 1024
