"""Operator-level description of transformer layers.

Every performance model in :mod:`repro.perf` consumes a stream of
:class:`Operator` records — GEMMs, attention kernels and vector ops with
explicit shapes and byte counts.  This module builds those records for a
single decoder layer; :mod:`repro.models.graph` chains them into
whole-model operator lists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.models.config import ModelConfig


class Phase(enum.Enum):
    """Inference stage an operator belongs to."""

    PREFILL = "prefill"
    DECODE = "decode"


class OperatorKind(enum.Enum):
    """Coarse operator classes, mapped to compute units by the scheduler.

    ``GEMM`` operators carry weights that are shared across the batch;
    ``ATTENTION`` operators read per-request KV-cache state that cannot be
    shared (the crux of the paper's Section II-B analysis); ``VECTOR``
    covers norms, activations, softmax and residual adds.
    """

    GEMM = "gemm"
    ATTENTION = "attention"
    VECTOR = "vector"


@dataclass(frozen=True)
class Operator:
    """One schedulable unit of work.

    GEMM semantics are ``out[M, N] = in[M, K] @ w[K, N]``; the M dimension
    carries batch/sequence parallelism.  Attention operators describe the
    pair of score/context products against the KV cache of ``batch``
    requests at context length ``context_len``.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"qkv_proj"``.
    kind:
        Operator class (see :class:`OperatorKind`).
    m, k, n:
        GEMM dimensions; for attention these hold per-head shapes.
    flops:
        Total floating-point operations (2 per MAC).
    weight_bytes:
        Bytes of weights streamed from DRAM, shared across the batch.
    io_bytes:
        Bytes of per-request state streamed from DRAM (KV cache); zero
        for weight-stationary GEMMs whose activations stay on chip.
    batch / heads / context_len / group_size:
        Attention bookkeeping: request count, query-head count, KV length
        and the GQA sharing factor.
    """

    name: str
    kind: OperatorKind
    m: int
    k: int
    n: int
    flops: float
    weight_bytes: float
    io_bytes: float = 0.0
    batch: int = 1
    heads: int = 1
    context_len: int = 0
    group_size: int = 1


def _gemm(
    name: str,
    m: int,
    k: int,
    n: int,
    dtype_bytes: int,
    weight_copies: int = 1,
) -> Operator:
    """Build a weight-bearing GEMM operator.

    ``weight_copies`` inflates the weight traffic for MoE layers where
    several experts are streamed for the same logical projection.
    """
    return Operator(
        name=name,
        kind=OperatorKind.GEMM,
        m=m,
        k=k,
        n=n,
        flops=2.0 * m * k * n * weight_copies,
        weight_bytes=float(k * n * dtype_bytes * weight_copies),
    )


def _vector(name: str, m: int, width: int, dtype_bytes: int,
            flops_per_element: float = 4.0) -> Operator:
    """Build a vector operator (norm / activation / residual)."""
    elements = m * width
    return Operator(
        name=name,
        kind=OperatorKind.VECTOR,
        m=m,
        k=width,
        n=1,
        flops=flops_per_element * elements,
        weight_bytes=0.0,
    )


def attention_operator(
    config: ModelConfig,
    batch: int,
    query_len: int,
    context_len: int,
) -> Operator:
    """Build the fused score+softmax+context attention operator.

    ``query_len`` is tokens per request being processed (sequence length in
    prefill, 1 in decode); ``context_len`` is the KV length attended to.
    Prefill uses causal masking, so score/context FLOPs are halved relative
    to the full rectangle.

    The KV bytes charged to ``io_bytes`` are the per-request key and value
    reads — the traffic that batching cannot amortize (paper Fig. 3a).
    """
    causal_factor = 0.5 if query_len > 1 else 1.0
    # score: [q_len, d] x [d, ctx]  and  context: [q_len, ctx] x [ctx, d]
    flops_per_head = 2.0 * 2.0 * query_len * config.head_dim * context_len * causal_factor
    flops = flops_per_head * config.num_heads * batch
    kv_bytes = (
        2.0 * batch * context_len * config.num_kv_heads * config.head_dim
        * config.dtype_bytes
    )
    return Operator(
        name="attention",
        kind=OperatorKind.ATTENTION,
        m=batch * query_len,
        k=config.head_dim,
        n=context_len,
        flops=flops,
        weight_bytes=0.0,
        io_bytes=kv_bytes,
        batch=batch,
        heads=config.num_heads,
        context_len=context_len,
        group_size=config.gqa_group_size,
    )


def decoder_layer_operators(
    config: ModelConfig,
    batch: int,
    query_len: int,
    context_len: int,
) -> list[Operator]:
    """Operator sequence for one decoder layer.

    Ordering matches Fig. 8's transformer mapping: input norm, QKV
    projection, attention, output projection, post-attention norm, MLP.
    ``m`` for the GEMMs is ``batch * query_len`` — the token-level
    parallelism both stages expose.
    """
    if query_len < 1 or batch < 1:
        raise ValueError("batch and query_len must be >= 1")
    d = config.dtype_bytes
    m = batch * query_len
    h = config.hidden_size
    ops: list[Operator] = []

    ops.append(_vector("input_norm", m, h, d))
    ops.append(_gemm("qkv_proj", m, h, config.q_dim + 2 * config.kv_dim, d))
    ops.append(attention_operator(config, batch, query_len, context_len))
    ops.append(_gemm("out_proj", m, config.q_dim, h, d))
    ops.append(_vector("post_attn_norm", m, h, d))

    if config.is_moe:
        ops.append(_gemm("moe_router", m, h, config.num_experts, d))
    # MoE: per token only experts_per_token experts run, but in a batch all
    # (or most) experts' weights are streamed; model weight traffic as the
    # active-expert count, compute as per-token expert count.
    expert_copies = config.experts_per_token
    inter = config.intermediate_size
    if config.gated_mlp:
        ops.append(_gemm("mlp_gate", m, h, inter, d, weight_copies=expert_copies))
        ops.append(_gemm("mlp_up", m, h, inter, d, weight_copies=expert_copies))
        ops.append(_vector("mlp_act_mul", m, inter, d, flops_per_element=2.0))
        ops.append(_gemm("mlp_down", m, inter, h, d, weight_copies=expert_copies))
    else:
        ops.append(_gemm("mlp_fc1", m, h, inter, d, weight_copies=expert_copies))
        ops.append(_vector("mlp_act", m, inter, d, flops_per_element=2.0))
        ops.append(_gemm("mlp_fc2", m, inter, h, d, weight_copies=expert_copies))

    ops.append(_vector("residual_add", m, h, d, flops_per_element=1.0))
    return ops


def lm_head_operator(config: ModelConfig, batch: int) -> Operator:
    """The LM-head GEMM, executed once per generated token per request."""
    return _gemm("lm_head", batch, config.hidden_size, config.vocab_size,
                 config.dtype_bytes)


def embedding_operator(config: ModelConfig, m: int) -> Operator:
    """Token-embedding lookup; a gather, modelled as a vector op."""
    return _vector("token_embedding", m, config.hidden_size,
                   config.dtype_bytes, flops_per_element=0.0)
