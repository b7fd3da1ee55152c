"""Unit tests for multimodal workloads (LMM / DiT, paper Fig. 2a)."""

import pytest

from repro.models.multimodal import (
    DIT_XL_2,
    DitWorkload,
    LmmWorkload,
    VIT_L_14,
    VisionEncoderWorkload,
)
from repro.models.layers import decoder_layer_operators
from repro.models.zoo import get_model


class TestVisionEncoder:
    def test_vit_l_registered(self):
        assert get_model("vit-l-14") is VIT_L_14
        assert VIT_L_14.num_parameters == pytest.approx(0.3e9, rel=0.15)

    def test_operators_cover_all_layers(self):
        workload = VisionEncoderWorkload(VIT_L_14, num_tokens=576)
        ops = workload.operators()
        layers = VIT_L_14.num_layers
        # each encoder layer contributes the same operator set
        assert len(ops) % layers == 0

    def test_flops_scale_with_batch(self):
        workload = VisionEncoderWorkload(VIT_L_14)
        assert workload.flops(batch=4) > 3.9 * workload.flops(batch=1)

    def test_flops_roughly_2nd_per_token(self):
        """Encoder FLOPs ~ 2 * params * tokens (plus attention)."""
        workload = VisionEncoderWorkload(VIT_L_14, num_tokens=576)
        dense = 2.0 * VIT_L_14.active_params_per_token * 576
        assert workload.flops() == pytest.approx(dense, rel=0.35)

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            VisionEncoderWorkload(VIT_L_14).operators(batch=0)


class TestLmmWorkload:
    def test_effective_input_includes_image_tokens(self):
        lmm = LmmWorkload.default()
        assert lmm.effective_input_tokens(100, images=1) == 100 + 576
        assert lmm.effective_input_tokens(100, images=2) == 100 + 1152

    def test_no_images_is_plain_text(self):
        lmm = LmmWorkload.default()
        assert lmm.effective_input_tokens(100, images=0) == 100

    def test_encoder_flops_positive(self):
        assert LmmWorkload.default().encoder_flops() > 1e11

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            LmmWorkload.default().effective_input_tokens(-1)


class TestDitWorkload:
    def test_default_uses_dit_xl(self):
        workload = DitWorkload.default()
        assert workload.dit is DIT_XL_2

    def test_generation_is_heavy(self):
        """One image generation rivals a long LLM prefill — the reason
        Fig. 9 lists DiT as a distinct workload class."""
        workload = DitWorkload.default()
        llama3 = get_model("llama3-8b")
        llm_prefill = 2.0 * llama3.active_params_per_token * 1024
        layer = decoder_layer_operators(workload.dit, 1,
                                        workload.latent_tokens,
                                        workload.latent_tokens)
        generation = workload.sampling_steps * workload.dit.num_layers \
            * sum(op.flops for op in layer)
        assert generation > 0.5 * llm_prefill
