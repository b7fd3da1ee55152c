"""Transformer architecture descriptions.

A :class:`ModelConfig` captures exactly the architectural constants the
ADOR analytical models need: layer counts, projection dimensions, the
attention head layout (MHA / GQA / MQA), the MLP flavour, and optional
mixture-of-experts structure.  Everything downstream — operator shapes,
KV-cache byte math, FLOP counts — is derived from these constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class AttentionKind(enum.Enum):
    """Head layout of the attention block.

    The paper's Fig. 11(b) contrasts the three layouts because they have
    radically different KV-cache footprints and therefore different
    decode-stage bandwidth demands.
    """

    MHA = "mha"  # one KV head per query head
    GQA = "gqa"  # query heads grouped over fewer KV heads
    MQA = "mqa"  # a single KV head shared by all query heads


@dataclass(frozen=True)
class ModelConfig:
    """Architectural constants of a decoder-only transformer.

    Parameters
    ----------
    name:
        Identifier used by the zoo and in reports (e.g. ``"llama3-8b"``).
    num_layers:
        Number of decoder blocks.
    hidden_size:
        Model (embedding) dimension.
    num_heads:
        Number of query heads.
    num_kv_heads:
        Number of key/value heads.  ``num_kv_heads == num_heads`` is MHA,
        ``1`` is MQA, anything in between is GQA.
    intermediate_size:
        MLP inner dimension (per expert for MoE models).
    vocab_size:
        Vocabulary size; drives the LM-head GEMM and its local-memory peak.
    head_dim:
        Per-head dimension.  Defaults to ``hidden_size // num_heads`` but a
        few models (GPT-J, Gemma-2, Falcon) override it.
    gated_mlp:
        ``True`` for LLaMA-style SwiGLU MLPs (gate + up + down projections),
        ``False`` for the classic two-matrix GELU MLP (OPT, GPT-J, Falcon).
    num_experts / experts_per_token:
        Mixture-of-experts structure (Mixtral).  Dense models use ``1``/``1``.
    max_position_embeddings:
        Maximum supported sequence length.
    dtype_bytes:
        Bytes per parameter / activation element (2 for fp16/bf16).
    tie_word_embeddings:
        Whether the LM head shares the token-embedding matrix.
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    num_kv_heads: int
    intermediate_size: int
    vocab_size: int
    head_dim: int = 0
    gated_mlp: bool = True
    num_experts: int = 1
    experts_per_token: int = 1
    max_position_embeddings: int = 8192
    dtype_bytes: int = 2
    tie_word_embeddings: bool = False

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_size <= 0:
            raise ValueError(f"{self.name}: layer count and hidden size must be positive")
        if self.num_heads <= 0 or self.num_kv_heads <= 0:
            raise ValueError(f"{self.name}: head counts must be positive")
        if self.head_dim == 0:
            object.__setattr__(self, "head_dim", self.hidden_size // self.num_heads)
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"{self.name}: num_heads ({self.num_heads}) must be divisible by "
                f"num_kv_heads ({self.num_kv_heads})"
            )
        if self.experts_per_token > self.num_experts:
            raise ValueError(f"{self.name}: experts_per_token exceeds num_experts")

    # ------------------------------------------------------------------ #
    # Attention layout                                                    #
    # ------------------------------------------------------------------ #

    @property
    def attention_kind(self) -> AttentionKind:
        """Classify the head layout (paper Fig. 11b)."""
        if self.num_kv_heads == 1:
            return AttentionKind.MQA
        if self.num_kv_heads == self.num_heads:
            return AttentionKind.MHA
        return AttentionKind.GQA

    @property
    def gqa_group_size(self) -> int:
        """Query heads sharing one KV head (1 for MHA, num_heads for MQA)."""
        return self.num_heads // self.num_kv_heads

    @property
    def q_dim(self) -> int:
        """Output dimension of the query projection."""
        return self.num_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        """Output dimension of each of the key and value projections."""
        return self.num_kv_heads * self.head_dim

    @property
    def is_moe(self) -> bool:
        return self.num_experts > 1

    # ------------------------------------------------------------------ #
    # Parameter counts                                                    #
    # ------------------------------------------------------------------ #

    @property
    def attention_params_per_layer(self) -> int:
        """Weights in Q/K/V/O projections of one decoder layer."""
        q = self.hidden_size * self.q_dim
        kv = 2 * self.hidden_size * self.kv_dim
        o = self.q_dim * self.hidden_size
        return q + kv + o

    @property
    def mlp_params_per_expert(self) -> int:
        """Weights of one MLP expert."""
        matrices = 3 if self.gated_mlp else 2
        return matrices * self.hidden_size * self.intermediate_size

    @property
    def mlp_params_per_layer(self) -> int:
        """Weights of all experts in one decoder layer."""
        return self.num_experts * self.mlp_params_per_expert

    @property
    def embedding_params(self) -> int:
        """Token embedding table (and untied LM head)."""
        tables = 1 if self.tie_word_embeddings else 2
        return tables * self.vocab_size * self.hidden_size

    @property
    def num_parameters(self) -> int:
        """Total parameter count (norms and biases are negligible and omitted)."""
        per_layer = self.attention_params_per_layer + self.mlp_params_per_layer
        return self.num_layers * per_layer + self.embedding_params

    @property
    def param_bytes(self) -> int:
        """Total parameter storage in bytes."""
        return self.num_parameters * self.dtype_bytes

    # ------------------------------------------------------------------ #
    # Per-step working set                                                #
    # ------------------------------------------------------------------ #

    @property
    def active_params_per_token(self) -> int:
        """Parameters touched when decoding one token.

        For MoE models only ``experts_per_token`` experts are read per
        token, which is what bounds decode-stage DRAM traffic.
        """
        per_layer = (
            self.attention_params_per_layer
            + self.experts_per_token * self.mlp_params_per_expert
        )
        lm_head = self.vocab_size * self.hidden_size
        return self.num_layers * per_layer + lm_head

    @property
    def active_param_bytes_per_token(self) -> int:
        return self.active_params_per_token * self.dtype_bytes

    def with_dtype(self, dtype_bytes: int) -> "ModelConfig":
        """A copy quantized to ``dtype_bytes`` per element.

        Used by the fp8 ablation: halving the element size halves both
        the weight-stream and KV-cache traffic, which is exactly how it
        enters every analytical model.
        """
        if dtype_bytes < 1:
            raise ValueError("dtype_bytes must be >= 1")
        suffix = {1: "fp8", 2: "fp16", 4: "fp32"}.get(dtype_bytes,
                                                      f"{dtype_bytes}B")
        return replace(self, name=f"{self.name}-{suffix}",
                       dtype_bytes=dtype_bytes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.num_layers}L x {self.hidden_size}d, "
            f"{self.num_heads}q/{self.num_kv_heads}kv heads "
            f"({self.attention_kind.value}), "
            f"{self.num_parameters / 1e9:.2f}B params"
        )
