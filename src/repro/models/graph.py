"""Whole-model operator graphs for the prefill and decoding stages.

The graphs are ``networkx.DiGraph`` instances whose nodes carry
:class:`~repro.models.layers.Operator` payloads and whose edges encode
data dependencies.  The compiler (:mod:`repro.compiler`) lowers these
graphs to instruction streams; the analytical models usually only need
the flattened operator list (:func:`flatten`).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    Phase,
    decoder_layer_operators,
    embedding_operator,
    lm_head_operator,
)

OPERATOR_KEY = "operator"


def _chain(graph: nx.DiGraph, ops: list[Operator], prefix: str,
           previous: str | None) -> str | None:
    """Append ``ops`` as a linear chain of nodes; return the tail node id."""
    for index, op in enumerate(ops):
        node_id = f"{prefix}.{index}.{op.name}"
        graph.add_node(node_id, **{OPERATOR_KEY: op})
        if previous is not None:
            graph.add_edge(previous, node_id)
        previous = node_id
    return previous


def build_prefill_graph(
    config: ModelConfig,
    batch: int,
    seq_len: int,
    include_lm_head: bool = False,
) -> nx.DiGraph:
    """Operator graph for prefilling ``batch`` requests of ``seq_len`` tokens.

    All ``seq_len`` tokens are processed in parallel, so GEMM ``m`` is
    ``batch * seq_len`` and the attention context equals the sequence
    length.  The LM head is normally skipped in prefill (the paper notes it
    "is only involved in the decoding stage"); enable ``include_lm_head``
    for the first generated token's logits.
    """
    graph = nx.DiGraph(phase=Phase.PREFILL, model=config.name,
                       batch=batch, seq_len=seq_len)
    tail = _chain(graph, [embedding_operator(config, Phase.PREFILL, batch * seq_len)],
                  "embed", None)
    for layer in range(config.num_layers):
        ops = decoder_layer_operators(config, Phase.PREFILL, batch, seq_len, seq_len)
        tail = _chain(graph, ops, f"layer{layer}", tail)
    if include_lm_head:
        _chain(graph, [lm_head_operator(config, Phase.PREFILL, batch)], "head", tail)
    return graph


def build_decode_graph(
    config: ModelConfig,
    batch: int,
    context_len: int,
) -> nx.DiGraph:
    """Operator graph for one decode step of ``batch`` requests.

    Each request generates one token while attending to ``context_len``
    cached tokens; GEMMs have ``m == batch`` and the LM head always runs.
    """
    graph = nx.DiGraph(phase=Phase.DECODE, model=config.name,
                       batch=batch, context_len=context_len)
    tail = _chain(graph, [embedding_operator(config, Phase.DECODE, batch)],
                  "embed", None)
    for layer in range(config.num_layers):
        ops = decoder_layer_operators(config, Phase.DECODE, batch, 1, context_len)
        tail = _chain(graph, ops, f"layer{layer}", tail)
    _chain(graph, [lm_head_operator(config, Phase.DECODE, batch)], "head", tail)
    return graph


def flatten(graph: nx.DiGraph) -> list[Operator]:
    """Operators in topological (execution) order."""
    return [graph.nodes[node][OPERATOR_KEY] for node in nx.topological_sort(graph)]


def total_flops(graph: nx.DiGraph) -> float:
    """Sum of FLOPs over the whole graph."""
    return sum(op.flops for op in flatten(graph))


@dataclass(frozen=True)
class OperationShare:
    """Breakdown of a graph's FLOPs by operator family (paper Fig. 3b)."""

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
        graph = build_decode_graph(config, batch, seq_len)
    else:
        graph = build_prefill_graph(config, batch, seq_len)
    attention = 0.0
    gemm = 0.0
    other = 0.0
    for op in flatten(graph):
        if op.kind == OperatorKind.ATTENTION:
            attention += op.flops
        elif op.kind == OperatorKind.GEMM:
            gemm += op.flops
        else:
            other += op.flops
    return OperationShare(attention=attention, mlp_and_projections=gemm, other=other)
