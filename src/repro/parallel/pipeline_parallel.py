"""Pipeline parallelism (paper Fig. 7b).

PP places whole layers on each device and streams tokens through; it
multiplies *throughput* and aggregate memory, but a single token still
traverses every layer, so per-token latency does not improve — "PP
provides no latency benefits due to pipelining".  ADOR therefore prefers
TP for serving; PP stays available for capacity scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.interconnect import P2pSpec
from repro.models.config import ModelConfig


@dataclass(frozen=True)
class PipelineParallelModel:
    """Latency/throughput effects of a ``D``-stage layer pipeline."""

    model: ModelConfig
    p2p: P2pSpec

    def token_latency_seconds(self, single_device_seconds: float,
                              devices: int, batch: int) -> float:
        """Per-token latency: the full traversal plus inter-stage hops.

        The compute time is unchanged (every layer still runs serially for
        one token); each stage boundary adds an activation transfer.
        """
        if single_device_seconds < 0:
            raise ValueError("negative latency")
        if devices == 1:
            return single_device_seconds
        activation_bytes = batch * self.model.hidden_size * self.model.dtype_bytes
        hop = self.p2p.transfer_time(activation_bytes)
        return single_device_seconds + (devices - 1) * hop

    def throughput_scaling(self, devices: int) -> float:
        """Steady-state throughput multiplier with a 5 % pipeline bubble."""
        return devices * 0.95
