"""MAC-tree timing: streaming GEMV and decode attention (paper Fig. 11b).

The MAC tree consumes its streamed operand (weights or KV cache) straight
from DRAM — no SRAM staging — so its GEMV time is the larger of:

* the *stream time*: bytes over the effective DRAM bandwidth from the
  Fig. 10 curve, inflated by KV re-reads when the lane count cannot cover
  a GQA group (one KV stream must feed ``group`` query heads; with fewer
  lanes the stream is fetched ``ceil(group / lanes)`` times);
* the *compute time*: FLOPs over the tree pool's peak, clamped by the
  available parallel jobs (batch x heads for attention).

This reproduces the paper's observations: MHA is compute-limited on a
1-lane tree and bandwidth-limited beyond ~8 lanes; GQA gains up to its
group size; MQA keeps gaining through 16 lanes (Fig. 11b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.components import MacTree
from repro.perf.effective_bandwidth import (
    EffectiveBandwidthCurve,
    MT_BANDWIDTH_CURVE,
)


@dataclass(frozen=True)
class MtEstimate:
    """Timing of one streamed operation on the MAC-tree pool."""

    seconds: float


@dataclass(frozen=True)
class MacTreeTimingModel:
    """Timing for ``cores`` MAC trees sharing one DRAM system."""

    tree: MacTree
    cores: int
    frequency_hz: float
    dram_bandwidth: float
    curve: EffectiveBandwidthCurve = MT_BANDWIDTH_CURVE

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.frequency_hz <= 0 or self.dram_bandwidth <= 0:
            raise ValueError("frequency and bandwidth must be positive")

    @property
    def pool_macs(self) -> int:
        return self.tree.macs * self.cores

    @property
    def peak_flops(self) -> float:
        return 2.0 * self.pool_macs * self.frequency_hz

    def _estimate(self, flops: float, stream_bytes: float,
                  parallel_jobs: int) -> MtEstimate:
        eff_bw = self.curve.effective_bandwidth(self.dram_bandwidth, flops)
        stream = stream_bytes / eff_bw
        usable_lanes = min(self.tree.lanes, max(1, parallel_jobs))
        usable_macs = self.tree.tree_size * usable_lanes * self.cores
        compute = flops / (2.0 * usable_macs * self.frequency_hz)
        return MtEstimate(seconds=max(stream, compute))

    def gemv(self, batch: int, k: int, n: int) -> MtEstimate:
        """Batched weight GEMV: ``batch`` rows against a ``K x N`` weight
        of 2-byte elements.

        Weights stream once from DRAM and are consumed by all batch rows,
        so the stream term is weight bytes only — exactly the dataflow of
        Fig. 6(b)/(c) for the decode stage.
        """
        if batch < 1 or k < 1 or n < 1:
            raise ValueError("GEMV dims must be >= 1")
        flops = 2.0 * batch * k * n
        stream_bytes = float(k * n * 2)
        return self._estimate(flops, stream_bytes, parallel_jobs=batch)

    def decode_attention(
        self,
        batch: int,
        num_heads: int,
        num_kv_heads: int,
        head_dim: int,
        context_len: int,
        dtype_bytes: int = 2,
    ) -> MtEstimate:
        """Score + context products of one decode step against the KV cache.

        KV bytes are per-request (non-shareable); a lane deficit versus
        the GQA group size forces re-reads of the KV stream.
        """
        if batch < 1 or context_len < 0:
            raise ValueError("batch must be >= 1 and context non-negative")
        if num_heads % num_kv_heads != 0:
            raise ValueError("num_heads must be divisible by num_kv_heads")
        if context_len == 0:
            return MtEstimate(0.0)
        group = num_heads // num_kv_heads
        kv_bytes = 2.0 * batch * context_len * num_kv_heads * head_dim * dtype_bytes
        rereads = math.ceil(group / self.tree.lanes)
        flops = 2.0 * 2.0 * batch * num_heads * head_dim * context_len
        return self._estimate(flops, kv_bytes * rereads,
                              parallel_jobs=batch * num_heads)
