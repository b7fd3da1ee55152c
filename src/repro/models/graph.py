"""Whole-model operator list for the decoding stage.

A decoder-only model runs its operators as one linear chain: the token
embedding, every decoder layer's operators in order, then the LM head.
:func:`decode_operators` returns that chain as a plain
``list[Operator]`` in execution order, which the Fig. 3(b) operation
share (:func:`operation_share`) and the compiler tests walk directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    decoder_layer_operators,
    embedding_operator,
    lm_head_operator,
)


def decode_operators(
    config: ModelConfig,
    batch: int,
    context_len: int,
) -> list[Operator]:
    """Operators, in execution order, for one decode step of ``batch``
    requests.

    Each request generates one token while attending to ``context_len``
    cached tokens; GEMMs have ``m == batch`` and the LM head always runs.
    """
    ops = [embedding_operator(config, batch)]
    for _ in range(config.num_layers):
        ops += decoder_layer_operators(config, batch, 1,
                                       context_len)
    ops.append(lm_head_operator(config, batch))
    return ops


@dataclass(frozen=True)
class OperationShare:
    """Breakdown of a stage's FLOPs by operator family (paper Fig. 3b)."""

    attention: float
    mlp_and_projections: float
    other: float

    @property
    def attention_fraction(self) -> float:
        return self.attention / self.total

    @property
    def mlp_fraction(self) -> float:
        return self.mlp_and_projections / self.total

    @property
    def total(self) -> float:
        return self.attention + self.mlp_and_projections + self.other


def operation_share(config: ModelConfig, seq_len: int) -> OperationShare:
    """FLOP share of self-attention vs. MLP+projections at a sequence length.

    Reproduces the paper's Fig. 3(b): the attention share grows toward
    dominance as context length increases (LLaMA3-8B: roughly a quarter of
    the work at short context, three quarters at 64k) because score and
    context products scale with the context while projections stay flat.
    The paper counts operations in the decoding stage, where each new token
    attends to the full cached context: one request's decode step is
    counted.
    """
    ops = decode_operators(config, 1, seq_len)
    attention = 0.0
    gemm = 0.0
    other = 0.0
    for op in ops:
        if op.kind == OperatorKind.ATTENTION:
            attention += op.flops
        elif op.kind == OperatorKind.GEMM:
            gemm += op.flops
        else:
            other += op.flops
    return OperationShare(attention=attention, mlp_and_projections=gemm, other=other)
