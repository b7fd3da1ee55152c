"""Unit tests for per-layer operator shape generation."""

import pytest

from repro.models.layers import (
    OperatorKind,
    attention_operator,
    decoder_layer_operators,
    embedding_operator,
    lm_head_operator,
)
from repro.models.zoo import get_model


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


class TestDecoderLayerOperators:
    def test_decode_gemms_have_batch_rows(self, llama3):
        ops = decoder_layer_operators(llama3, batch=32,
                                      query_len=1, context_len=512)
        gemms = [op for op in ops if op.kind == OperatorKind.GEMM]
        assert gemms and all(op.m == 32 for op in gemms)

    def test_prefill_gemms_have_batch_by_seq_rows(self, llama3):
        ops = decoder_layer_operators(llama3, batch=4,
                                      query_len=128, context_len=128)
        gemms = [op for op in ops if op.kind == OperatorKind.GEMM]
        assert gemms and all(op.m == 4 * 128 for op in gemms)

    def test_qkv_projection_width(self, llama3):
        ops = decoder_layer_operators(llama3, 1, 1, 1)
        qkv = next(op for op in ops if op.name == "qkv_proj")
        assert qkv.n == llama3.q_dim + 2 * llama3.kv_dim  # 4096 + 2048

    def test_gated_mlp_has_three_projections(self, llama3):
        ops = decoder_layer_operators(llama3, 1, 1, 1)
        names = {op.name for op in ops}
        assert {"mlp_gate", "mlp_up", "mlp_down"} <= names

    def test_plain_mlp_has_two_projections(self):
        opt = get_model("opt-6.7b")
        ops = decoder_layer_operators(opt, 1, 1, 1)
        names = {op.name for op in ops}
        assert {"mlp_fc1", "mlp_fc2"} <= names
        assert "mlp_gate" not in names

    def test_moe_router_present_only_for_moe(self, llama3):
        mixtral = get_model("mixtral-8x7b")
        moe_names = {op.name for op in
                     decoder_layer_operators(mixtral, 1, 1, 1)}
        dense_names = {op.name for op in
                       decoder_layer_operators(llama3, 1, 1, 1)}
        assert "moe_router" in moe_names
        assert "moe_router" not in dense_names

    def test_moe_weight_traffic_counts_active_experts(self):
        mixtral = get_model("mixtral-8x7b")
        ops = decoder_layer_operators(mixtral, 1, 1, 1)
        gate = next(op for op in ops if op.name == "mlp_gate")
        expected = mixtral.hidden_size * mixtral.intermediate_size \
            * mixtral.dtype_bytes * mixtral.experts_per_token
        assert gate.weight_bytes == expected

    def test_gemm_flops_formula(self, llama3):
        ops = decoder_layer_operators(llama3, 8, 1, 1)
        out_proj = next(op for op in ops if op.name == "out_proj")
        assert out_proj.flops == 2.0 * 8 * llama3.q_dim * llama3.hidden_size

    def test_rejects_zero_batch(self, llama3):
        with pytest.raises(ValueError):
            decoder_layer_operators(llama3, 0, 1, 1)


class TestAttentionOperator:
    def test_kv_bytes_use_kv_heads_not_query_heads(self, llama3):
        op = attention_operator(llama3, batch=16, query_len=1,
                                context_len=1000)
        expected = 2.0 * 16 * 1000 * llama3.num_kv_heads * llama3.head_dim \
            * llama3.dtype_bytes
        assert op.io_bytes == expected

    def test_flops_use_query_heads(self, llama3):
        op = attention_operator(llama3, batch=1, query_len=1,
                                context_len=100)
        expected = 2.0 * 2.0 * llama3.num_heads * llama3.head_dim * 100
        assert op.flops == expected

    def test_prefill_causal_halving(self, llama3):
        full = attention_operator(llama3, 1, 1, 128).flops
        causal = attention_operator(llama3, 1, 128, 128).flops
        # prefill does 128 query positions at half the rectangle
        assert causal == pytest.approx(full * 128 * 0.5)

    def test_group_size_recorded(self):
        falcon = get_model("falcon-7b")
        op = attention_operator(falcon, 1, 1, 10)
        assert op.group_size == 71

    def test_no_weights(self, llama3):
        op = attention_operator(llama3, 1, 1, 10)
        assert op.weight_bytes == 0.0

    def test_norm_moves_no_dram_bytes(self, llama3):
        ops = decoder_layer_operators(llama3, 1, 1, 1)
        norm = next(op for op in ops if op.name == "input_norm")
        assert norm.weight_bytes == norm.io_bytes == 0.0


class TestHeadAndEmbedding:
    def test_lm_head_spans_vocab(self, llama3):
        op = lm_head_operator(llama3, batch=4)
        assert (op.m, op.k, op.n) == (4, llama3.hidden_size, llama3.vocab_size)

    def test_embedding_has_no_flops(self, llama3):
        op = embedding_operator(llama3, m=128)
        assert op.flops == 0.0
        assert op.kind == OperatorKind.VECTOR
