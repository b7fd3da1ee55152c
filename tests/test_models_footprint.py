"""Unit tests for the local-memory footprint simulator (paper Fig. 12)."""

import dataclasses

import pytest

from repro.models.footprint import FLASH_TILE, peak_local_memory
from repro.models.zoo import get_model

KIB = 1024
MIB = 1024 * 1024


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


class TestFig12Claims:
    """The paper: at batch 32 on LLaMA3-8B, only the LM head exceeds
    1.5 MB; its peak approaches 4 MiB."""

    def test_lm_head_is_the_peak(self, llama3):
        report = peak_local_memory(llama3, 32)
        assert max(report.as_dict().values()) == report.lm_head

    def test_non_lm_head_under_1_5_mib(self, llama3):
        report = peak_local_memory(llama3, 32)
        assert report.peak_excluding_lm_head <= 1.5 * MIB

    def test_lm_head_around_4_mib(self, llama3):
        report = peak_local_memory(llama3, 32)
        assert 3.5 * MIB <= report.lm_head <= 4.5 * MIB

    def test_mlp_is_largest_per_layer_type(self, llama3):
        report = peak_local_memory(llama3, 32)
        assert report.peak_excluding_lm_head == report.mlp

    def test_token_embedding_is_smallest(self, llama3):
        report = peak_local_memory(llama3, 32)
        values = report.as_dict()
        assert min(values.values()) == report.token_embedding


class TestScaling:
    def test_linear_in_batch(self, llama3):
        small = peak_local_memory(llama3, 16)
        large = peak_local_memory(llama3, 32)
        assert large.mlp == pytest.approx(2 * small.mlp)
        assert large.lm_head == pytest.approx(2 * small.lm_head)

    def test_flash_tile_bounds_attention(self, llama3):
        """Scores are held one flash tile at a time: a context window
        past the tile adds nothing, one shorter than it holds less."""
        def attention(context):
            model = dataclasses.replace(llama3,
                                        max_position_embeddings=context)
            return peak_local_memory(model, 32).self_attention

        assert attention(4 * FLASH_TILE) == attention(FLASH_TILE)
        assert attention(FLASH_TILE // 2) < attention(FLASH_TILE)

    def test_rejects_zero_batch(self, llama3):
        with pytest.raises(ValueError):
            peak_local_memory(llama3, 0)

    def test_as_dict_covers_all_types(self, llama3):
        report = peak_local_memory(llama3, 32)
        assert len(report.as_dict()) == 6


class TestRequiredLocalMemory:
    def test_table3_local_memory_derivation(self, llama3):
        """The Table III design's 2 MiB local memory follows from the
        batch-32 footprint with 25 % headroom, rounded to a power of two."""
        report = peak_local_memory(llama3, 32)
        sized = report.peak_excluding_lm_head * 1.25
        assert 1 * MIB < sized <= 2 * MIB
