"""Hybrid tensor x pipeline parallelism planning.

Section IV-D discusses TP and PP as the two primary mappings; for large
device counts real deployments mix them.  This planner enumerates every
``tp x pp = devices`` factorization that shards heads evenly, scores
each with the existing TP and PP latency models, and picks a plan per
objective — latency (favours pure TP, the paper's conclusion) or
throughput-per-latency balance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.interconnect import P2pSpec
from repro.models.config import ModelConfig
from repro.parallel.collectives import SyncMethod, choose_sync_method
from repro.parallel.pipeline_parallel import PipelineParallelModel
from repro.parallel.tensor_parallel import TpLatencyModel


@dataclass(frozen=True)
class HybridPlan:
    """One TP x PP factorization with its predicted behaviour."""

    tp: int
    pp: int
    sync_method: SyncMethod
    decode_step_seconds: float
    throughput_tokens_per_s: float


class HybridParallelPlanner:
    """Enumerates and scores TP x PP plans for one model on one fabric."""

    def __init__(self, model: ModelConfig, memory_bandwidth: float,
                 p2p: P2pSpec) -> None:
        self.model = model
        self.tp_model = TpLatencyModel(model, memory_bandwidth, p2p)
        self.pp_model = PipelineParallelModel(model, p2p)

    def factorizations(self, devices: int) -> list[tuple[int, int]]:
        """All (tp, pp) with tp*pp == devices and tp sharding heads evenly."""
        if devices < 1:
            raise ValueError("devices must be >= 1")
        plans = []
        for tp in range(1, devices + 1):
            if devices % tp:
                continue
            if self.model.num_heads % tp:
                continue
            pp = devices // tp
            if self.model.num_layers < pp:
                continue
            plans.append((tp, pp))
        return plans

    def evaluate(self, tp: int, pp: int, batch: int,
                 context_len: int) -> HybridPlan:
        """Score one factorization."""
        method = choose_sync_method(tp)
        tp_step = self.tp_model.decode_step_seconds(batch, context_len, tp,
                                                    method)
        # PP leaves per-token latency at the full traversal plus hops...
        step = self.pp_model.token_latency_seconds(tp_step, pp, batch)
        # ...but multiplies steady-state throughput by the stage count
        throughput = batch / tp_step * self.pp_model.throughput_scaling(pp) / pp
        return HybridPlan(
            tp=tp, pp=pp, sync_method=method,
            decode_step_seconds=step,
            throughput_tokens_per_s=throughput * pp,
        )

    def plans(self, devices: int, batch: int,
              context_len: int) -> list[HybridPlan]:
        return [self.evaluate(tp, pp, batch, context_len)
                for tp, pp in self.factorizations(devices)]

    def best_for_latency(self, devices: int, batch: int,
                         context_len: int) -> HybridPlan:
        """Lowest decode-step latency — the paper's serving objective."""
        candidates = self.plans(devices, batch, context_len)
        if not candidates:
            raise ValueError(
                f"{self.model.name}: no valid factorization of {devices}")
        return min(candidates, key=lambda p: p.decode_step_seconds)
