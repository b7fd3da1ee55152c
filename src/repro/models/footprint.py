"""Local-memory footprint simulator (paper Fig. 12 and Section V-B).

ADOR sizes each core's local SRAM so the *activations* of any single layer
fit on chip — off-chip bandwidth is then spent exclusively on weights and
KV cache.  This module computes the peak activation bytes per layer type
for a decode step, mirroring the simulator the authors "developed to
calculate local memory usage".

Softmax decomposition (FlashAttention) bounds the attention score matrix
to one tile, which is why long contexts do not blow up the footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig

#: Tile width (in context positions) kept resident by the softmax
#: decomposition.  FlashAttention-style kernels stream the rest.
FLASH_TILE = 256

#: Number of vocabulary tiles the LM head is split into.  The logits
#: matrix (batch x vocab) is the one activation that cannot fit whole;
#: tiling over the vocabulary bounds its residency.
LM_HEAD_VOCAB_TILES = 2


@dataclass(frozen=True)
class LocalMemoryReport:
    """Peak local-memory bytes per layer type for one decode step."""

    token_embedding: float
    residual_elementwise: float
    rmsnorm: float
    self_attention: float
    mlp: float
    lm_head: float

    def as_dict(self) -> dict[str, float]:
        return {
            "Token Embedding": self.token_embedding,
            "Residual/Element-wise": self.residual_elementwise,
            "RMSNorm Layer": self.rmsnorm,
            "Self-Attention Layer": self.self_attention,
            "MLP Layer": self.mlp,
            "LM-Head Layer": self.lm_head,
        }

    @property
    def peak_excluding_lm_head(self) -> float:
        """Peak over the per-layer types (the paper notes only the LM head
        exceeds 1.5 MB for LLaMA3-8B at batch 32)."""
        values = self.as_dict()
        values.pop("LM-Head Layer")
        return max(values.values())


def peak_local_memory(config: ModelConfig, batch: int) -> LocalMemoryReport:
    """Peak activation bytes by layer type for a decode step at ``batch``.

    The decode stage is the local-memory sizing case ADOR uses: prefill
    activations are larger but are tiled along the token dimension
    (Section IV-B), so a configuration that holds one token's activations
    per request suffices.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    d = config.dtype_bytes
    h = config.hidden_size
    row = batch * d  # bytes per scalar column across the batch

    token_embedding = row * h
    # residual add: input + skip + output
    residual = 3.0 * row * h
    # norm: input + output (statistics negligible)
    rmsnorm = 2.0 * row * h
    # attention: q/k/v rows for the new token, a flash tile of scores per
    # head, and the accumulated context output
    qkv_rows = row * (config.q_dim + 2 * config.kv_dim)
    score_tile = batch * config.num_heads \
        * min(FLASH_TILE, config.max_position_embeddings) * d
    attn_out = row * config.q_dim
    self_attention = qkv_rows + score_tile + attn_out
    # MLP: input row + intermediate + output row.  SwiGLU kernels fuse the
    # gate multiply into the up projection's epilogue, so only one
    # intermediate tensor is ever resident.
    mlp = row * h + row * config.intermediate_size + row * h
    # LM head: input row + one vocabulary tile of logits
    lm_head = row * h + row * (config.vocab_size / LM_HEAD_VOCAB_TILES)
    return LocalMemoryReport(
        token_embedding=token_embedding,
        residual_elementwise=residual,
        rmsnorm=rmsnorm,
        self_attention=self_attention,
        mlp=mlp,
        lm_head=lm_head,
    )
