"""Unit tests for the model registry."""

import pytest

from repro.models.config import AttentionKind, ModelConfig
from repro.models.zoo import get_model, list_models, register_model


class TestRegistry:
    def test_lookup_matches_names_exactly(self):
        with pytest.raises(KeyError, match="unknown model 'LLaMA3-8B'"):
            get_model("LLaMA3-8B")

    def test_unknown_model_lists_known_names(self):
        with pytest.raises(KeyError, match="llama3-8b"):
            get_model("definitely-not-a-model")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model(get_model("llama3-8b"))

    def test_list_models_sorted_and_complete(self):
        names = list_models()
        assert names == sorted(names)
        for required in ("llama2-7b", "llama3-8b", "llama3-70b", "gptj-6b",
                         "mistral-7b", "falcon-7b", "qwen2-7b", "gemma2-9b",
                         "mixtral-8x7b", "yi-34b", "opt-1.3b", "opt-66b"):
            assert required in names


class TestArchitecturalFacts:
    """The paper's figures depend on these head layouts (Fig. 11b)."""

    def test_llama2_is_mha(self):
        assert get_model("llama2-7b").attention_kind == AttentionKind.MHA

    def test_llama3_is_gqa_group_4(self):
        model = get_model("llama3-8b")
        assert model.attention_kind == AttentionKind.GQA
        assert model.gqa_group_size == 4

    def test_falcon_is_mqa(self):
        model = get_model("falcon-7b")
        assert model.attention_kind == AttentionKind.MQA
        assert model.gqa_group_size == 71

    def test_mixtral_is_moe(self):
        model = get_model("mixtral-8x7b")
        assert model.is_moe
        assert model.num_experts == 8
        assert model.experts_per_token == 2

    def test_opt_family_is_dense_mha(self):
        for name in ("opt-1.3b", "opt-6.7b", "opt-13b", "opt-30b", "opt-66b"):
            model = get_model(name)
            assert model.attention_kind == AttentionKind.MHA
            assert not model.gated_mlp

    def test_opt_sizes_are_ordered(self):
        sizes = [get_model(f"opt-{s}").num_parameters
                 for s in ("1.3b", "6.7b", "13b", "30b", "66b")]
        assert sizes == sorted(sizes)

    def test_every_model_is_valid_config(self):
        for name in list_models():
            model = get_model(name)
            assert isinstance(model, ModelConfig)
            assert model.num_parameters > 0
            assert model.param_bytes == model.num_parameters * model.dtype_bytes

    def test_gemma2_ties_embeddings(self):
        assert get_model("gemma2-9b").tie_word_embeddings

    def test_extended_zoo_sizes(self):
        import pytest as _pytest
        assert get_model("llama2-13b").num_parameters \
            == _pytest.approx(13.0e9, rel=0.03)
        assert get_model("llama2-70b").num_parameters \
            == _pytest.approx(69e9, rel=0.03)
        assert get_model("qwen2-72b").num_parameters \
            == _pytest.approx(72.7e9, rel=0.05)
        assert get_model("phi-3-mini").num_parameters \
            == _pytest.approx(3.8e9, rel=0.05)

    def test_llama2_70b_is_gqa(self):
        model = get_model("llama2-70b")
        assert model.gqa_group_size == 8
