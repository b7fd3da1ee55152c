"""Computation-communication overlap analysis (paper Figs. 7a, 13b).

ADOR's multi-device story rests on overlapping all-gather traffic with
compute so that modest PCIe-class links suffice.  This module answers the
two questions of Section V-C:

* given a workload and a P2P bandwidth, how much sync time remains
  visible (Fig. 13b — decode overlaps best because its memory-bound
  attention leaves the links free);
* what is the *minimum* P2P bandwidth at which communication fully hides
  behind compute (Fig. 7a — the paper lands on ~32 GB/s, PCIe-4 x16).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.interconnect import P2pSpec
from repro.models.config import ModelConfig
from repro.models.kv_cache import kv_cache_bytes
from repro.parallel.collectives import SyncMethod, layer_sync_plan


class WorkloadPhase(enum.Enum):
    """Workload mix for the overlap study (Fig. 13b panels)."""

    PREFILL = "prefill"
    DECODE = "decode"
    CONTINUOUS = "continuous"  # paper uses prefill : decode = 3 : 1


#: How much of the per-layer body time can host communication.  Decode is
#: memory-bound, so its compute units and links are idle while DRAM
#: streams — near-perfect overlap; prefill keeps the NoC busier.
OVERLAP_CAPACITY = {
    WorkloadPhase.PREFILL: 0.60,
    WorkloadPhase.DECODE: 0.95,
    WorkloadPhase.CONTINUOUS: 0.60 * 0.75 + 0.95 * 0.25,
}


@dataclass(frozen=True)
class OverlapModel:
    """Visible-sync estimator for one phase of one model."""

    model: ModelConfig
    memory_bandwidth: float
    peak_flops: float
    phase: WorkloadPhase
    batch: int = 32
    seq_len: int = 1024
    bandwidth_utilization: float = 0.90
    compute_efficiency: float = 0.80

    def _phase_model(self, phase: WorkloadPhase) -> "OverlapModel":
        return OverlapModel(
            self.model, self.memory_bandwidth, self.peak_flops, phase,
            self.batch, self.seq_len, self.bandwidth_utilization,
            self.compute_efficiency,
        )

    def body_seconds(self, devices: int) -> float:
        """Per-iteration body time of the sharded workload."""
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if self.phase == WorkloadPhase.PREFILL:
            flops = 2.0 * self.batch * self.seq_len \
                * self.model.active_params_per_token / devices
            return flops / (self.peak_flops * self.compute_efficiency)
        if self.phase == WorkloadPhase.DECODE:
            decode_bytes = (
                self.model.active_param_bytes_per_token
                + kv_cache_bytes(self.model, self.batch, self.seq_len)
            ) / devices
            return decode_bytes / (self.memory_bandwidth * self.bandwidth_utilization)
        # paper mixes prefill : decode = 3 : 1
        return (
            0.75 * self._phase_model(WorkloadPhase.PREFILL).body_seconds(devices)
            + 0.25 * self._phase_model(WorkloadPhase.DECODE).body_seconds(devices)
        )

    def _sync_rows(self) -> int:
        return self.batch * (self.seq_len if self.phase == WorkloadPhase.PREFILL else 1)

    def visible_sync_seconds(self, devices: int, p2p: P2pSpec,
                             method: SyncMethod = SyncMethod.ALL_GATHER) -> float:
        """Sync time not hidden by the phase's overlap capacity."""
        if devices == 1:
            return 0.0
        if self.phase == WorkloadPhase.CONTINUOUS:
            return (
                0.75 * self._phase_model(WorkloadPhase.PREFILL)
                .visible_sync_seconds(devices, p2p, method)
                + 0.25 * self._phase_model(WorkloadPhase.DECODE)
                .visible_sync_seconds(devices, p2p, method)
            )
        tensor_bytes = self._sync_rows() * self.model.hidden_size \
            * self.model.dtype_bytes
        plan = layer_sync_plan(method, tensor_bytes, devices)
        wire = self.model.num_layers * plan.bytes_per_layer \
            / p2p.bandwidth_bytes_per_s
        latency = self.model.num_layers * plan.steps_per_layer * p2p.latency_s
        capacity = OVERLAP_CAPACITY[self.phase] * self.body_seconds(devices)
        hideable = min(wire * plan.overlappable_fraction, capacity)
        return wire - hideable + latency

    def iteration_seconds(self, devices: int, p2p: P2pSpec,
                          method: SyncMethod = SyncMethod.ALL_GATHER) -> float:
        if self.phase == WorkloadPhase.CONTINUOUS:
            return (
                0.75 * self._phase_model(WorkloadPhase.PREFILL)
                .iteration_seconds(devices, p2p, method)
                + 0.25 * self._phase_model(WorkloadPhase.DECODE)
                .iteration_seconds(devices, p2p, method)
            )
        return self.body_seconds(devices) + self.visible_sync_seconds(
            devices, p2p, method)

    def speedup(self, devices: int, p2p: P2pSpec,
                method: SyncMethod = SyncMethod.ALL_GATHER) -> float:
        """Latency speedup vs. one device (Fig. 13b y-axis)."""
        return self.iteration_seconds(1, p2p, method) \
            / self.iteration_seconds(devices, p2p, method)


def minimum_p2p_bandwidth(
    overlap: OverlapModel,
    devices: int,
    efficiency_target: float = 0.95,
    candidates_gbps: tuple = (8, 16, 32, 64, 128, 256, 600, 900),
) -> float:
    """Smallest candidate P2P bandwidth reaching the scalability target
    under all-gather synchronization.

    The target is relative to an infinite-bandwidth link; the paper finds
    ~32 GB/s (PCIe-4 x16) sufficient for the all-gather dataflow.
    """
    if devices < 2:
        return 0.0
    method = SyncMethod.ALL_GATHER
    infinite = P2pSpec(bandwidth_bytes_per_s=1e18)
    ideal = overlap.iteration_seconds(devices, infinite, method)
    for gbps in sorted(candidates_gbps):
        p2p = P2pSpec(bandwidth_bytes_per_s=gbps * 1e9)
        achieved = ideal / overlap.iteration_seconds(devices, p2p, method)
        if achieved >= efficiency_target:
            return gbps * 1e9
    return max(candidates_gbps) * 1e9
