"""Whole-model operator lists for the prefill and decoding stages.

A decoder-only model runs its operators as one linear chain: the token
embedding, every decoder layer's operators in order, then (in decode)
the LM head.  The builders return that chain as a plain
``list[Operator]`` in execution order, which the Fig. 3(b) operation
share (:func:`operation_share`) and the compiler tests walk directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    Phase,
    decoder_layer_operators,
    embedding_operator,
    lm_head_operator,
)


def prefill_operators(
    config: ModelConfig,
    batch: int,
    seq_len: int,
    include_lm_head: bool = False,
) -> list[Operator]:
    """Operators, in execution order, for prefilling ``batch`` requests
    of ``seq_len`` tokens.

    All ``seq_len`` tokens are processed in parallel, so GEMM ``m`` is
    ``batch * seq_len`` and the attention context equals the sequence
    length.  The LM head is normally skipped in prefill (the paper notes it
    "is only involved in the decoding stage"); enable ``include_lm_head``
    for the first generated token's logits.
    """
    ops = [embedding_operator(config, batch * seq_len)]
    for _ in range(config.num_layers):
        ops += decoder_layer_operators(config, batch, seq_len,
                                       seq_len)
    if include_lm_head:
        ops.append(lm_head_operator(config, batch))
    return ops


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


def operation_share(
    config: ModelConfig,
    seq_len: int,
    batch: int = 1,
    phase: Phase = Phase.DECODE,
) -> OperationShare:
    """FLOP share of self-attention vs. MLP+projections at a sequence length.

    Reproduces the paper's Fig. 3(b): the attention share grows toward
    dominance as context length increases (LLaMA3-8B: roughly a quarter of
    the work at short context, three quarters at 64k) because score and
    context products scale with the context while projections stay flat.
    The paper counts operations in the decoding stage, where each new token
    attends to the full cached context — ``phase`` defaults accordingly.
    """
    if phase == Phase.DECODE:
        ops = decode_operators(config, batch, seq_len)
    else:
        ops = prefill_operators(config, batch, seq_len)
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
