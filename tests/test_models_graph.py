"""Unit tests for whole-model operator lists."""

import pytest

from repro.models.graph import decode_operators, operation_share
from repro.models.layers import decoder_layer_operators
from repro.models.zoo import get_model


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


def total_flops(ops):
    return sum(op.flops for op in ops)


class TestOperatorOrder:
    def test_decode_runs_embedding_first_lm_head_last(self, llama3):
        ops = decode_operators(llama3, 1, 16)
        assert ops[0].name == "token_embedding"
        assert ops[-1].name == "lm_head"

    def test_layers_run_in_decoder_layer_order(self, llama3):
        layer = [op.name for op in
                 decoder_layer_operators(llama3, 1, 1, 16)]
        names = [op.name for op in decode_operators(llama3, 1, 16)]
        assert names == ["token_embedding", *layer * llama3.num_layers,
                         "lm_head"]


class TestAggregates:
    def test_decode_weight_bytes_match_active_params(self, llama3):
        weights = sum(op.weight_bytes
                      for op in decode_operators(llama3, 8, 128))
        assert weights == pytest.approx(llama3.active_param_bytes_per_token)

    def test_decode_flops_scale_with_batch(self, llama3):
        one = total_flops(decode_operators(llama3, 1, 128))
        eight = total_flops(decode_operators(llama3, 8, 128))
        assert eight == pytest.approx(8 * one, rel=1e-6)


class TestOperationShare:
    """Fig. 3(b): attention share grows toward dominance with context."""

    def test_share_grows_with_context(self, llama3):
        shares = [operation_share(llama3, s).attention_fraction
                  for s in (4096, 8192, 65536)]
        assert shares == sorted(shares)

    def test_attention_dominates_at_64k(self, llama3):
        share = operation_share(llama3, 65536)
        assert share.attention_fraction > 0.5

    def test_attention_minor_at_4k(self, llama3):
        share = operation_share(llama3, 4096)
        assert share.attention_fraction < 0.35

    def test_fractions_sum_to_one(self, llama3):
        share = operation_share(llama3, 8192)
        total = share.attention_fraction + share.mlp_fraction \
            + share.other / share.total
        assert total == pytest.approx(1.0)
