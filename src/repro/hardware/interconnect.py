"""On-chip NoC and device-to-device P2P link specifications.

The paper's template uses a ring NoC between cores (Fig. 6a) and modest
P2P links between devices — one of its punchlines is that ~32-64 GB/s
(PCIe-class) P2P suffices for LLM serving when all-gather synchronization
is overlapped with compute, versus NVLink's 600-900 GB/s (Section V-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class NocTopology(enum.Enum):
    RING = "ring"
    CROSSBAR = "crossbar"
    MESH = "mesh"


@dataclass(frozen=True)
class NocSpec:
    """On-chip network connecting cores, global memory and DMA engines."""

    bandwidth_bytes_per_s: float
    topology: NocTopology = NocTopology.RING
    hop_latency_s: float = 2e-9  # per-router pipeline latency

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("NoC bandwidth must be positive")
        if self.hop_latency_s < 0:
            raise ValueError("hop latency must be non-negative")


@dataclass(frozen=True)
class P2pSpec:
    """Device-to-device link (PCIe / InfiniBand / NVLink class)."""

    bandwidth_bytes_per_s: float
    latency_s: float = 1e-6  # per-message protocol latency

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("P2P bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("P2P latency must be non-negative")

    def transfer_time(self, payload_bytes: float) -> float:
        """Seconds for one point-to-point message."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        return self.latency_s + payload_bytes / self.bandwidth_bytes_per_s
