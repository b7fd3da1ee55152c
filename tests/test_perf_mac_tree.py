"""Unit tests for MAC-tree timing (paper Fig. 11b behaviours)."""

import pytest

from repro.hardware.components import MacTree
from repro.models.zoo import get_model
from repro.perf.effective_bandwidth import MT_BANDWIDTH_CURVE
from repro.perf.mac_tree import MacTreeTimingModel


def make_model(tree=16, lanes=16, cores=32, bw=2e12):
    return MacTreeTimingModel(
        tree=MacTree(tree, lanes),
        cores=cores,
        frequency_hz=1.5e9,
        dram_bandwidth=bw,
    )


def attention(model_name, lanes, batch=32, ctx=1024):
    cfg = get_model(model_name)
    mt = make_model(lanes=lanes)
    est = mt.decode_attention(
        batch=batch,
        num_heads=cfg.num_heads,
        num_kv_heads=cfg.num_kv_heads,
        head_dim=cfg.head_dim,
        context_len=ctx,
    )
    return est


class TestGemv:
    def test_weight_stream_dominates_small_batch(self):
        """One row: the time is the weight bytes over the Fig. 10
        effective bandwidth."""
        mt = make_model()
        est = mt.gemv(batch=1, k=4096, n=4096)
        bandwidth = MT_BANDWIDTH_CURVE.effective_bandwidth(
            2e12, 2.0 * 4096 * 4096)
        assert est.seconds == 4096 * 4096 * 2 / bandwidth

    def test_batch_amortizes_weights(self):
        """Same weight bytes, more flops: time constant while bw-bound."""
        mt = make_model()
        one = mt.gemv(1, 4096, 4096)
        sixteen = mt.gemv(16, 4096, 4096)
        assert sixteen.seconds <= one.seconds * 1.01

    def test_compute_bound_at_huge_batch(self):
        """One 16-wide tree: the time is the FLOPs over its peak."""
        mt = make_model(lanes=1, cores=1)
        est = mt.gemv(batch=100_000, k=4096, n=4096)
        assert est.seconds == 2.0 * 100_000 * 4096 * 4096 / (2.0 * 16 * 1.5e9)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            make_model().gemv(0, 4096, 4096)


class TestFig11bBehaviours:
    def test_mha_flat_across_lanes(self):
        """MHA is already KV-bandwidth-bound at one lane: each KV byte
        feeds exactly one query head, so extra lanes cannot help."""
        t1 = attention("llama2-7b", 1).seconds
        t16 = attention("llama2-7b", 16).seconds
        assert t16 == pytest.approx(t1, rel=0.01)

    def test_gqa_gains_up_to_group_size(self):
        """LLaMA3-8B has GQA group 4: lanes 4 reaches the KV-read floor."""
        t1 = attention("llama3-8b", 1).seconds
        t4 = attention("llama3-8b", 4).seconds
        t16 = attention("llama3-8b", 16).seconds
        assert t4 < t1 / 2
        assert t16 == pytest.approx(t4, rel=0.05)

    def test_mqa_keeps_gaining_through_16_lanes(self):
        t8 = attention("falcon-7b", 8).seconds
        t16 = attention("falcon-7b", 16).seconds
        assert t16 < t8 * 0.7

    def test_ordering_at_16_lanes_matches_figure(self):
        """MHA slowest, MQA fastest at 16 lanes (Fig. 11b right side)."""
        mha = attention("llama2-7b", 16).seconds
        gqa = attention("llama3-8b", 16).seconds
        mqa = attention("falcon-7b", 16).seconds
        assert mha > gqa > mqa

    def test_lane_deficit_forces_kv_rereads(self):
        """GQA group 4 on 2 lanes streams KV twice."""
        two = attention("llama3-8b", 2)
        four = attention("llama3-8b", 4)
        assert two.seconds == pytest.approx(2 * four.seconds, rel=0.01)

    def test_empty_context_is_free(self):
        est = make_model().decode_attention(1, 32, 8, 128, 0)
        assert est.seconds == 0.0

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            make_model().decode_attention(1, 30, 7, 128, 10)


class TestStreamWeights:
    def test_effective_bandwidth_reported(self):
        """A GEMV's weight stream runs at the Fig. 10 effective
        bandwidth: between 55% and 90% of the DRAM peak."""
        est = make_model().gemv(1, 4096, 4096)
        bandwidth = 4096 * 4096 * 2 / est.seconds
        assert 0.55 * 2e12 <= bandwidth <= 0.90 * 2e12
