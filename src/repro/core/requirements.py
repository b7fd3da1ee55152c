"""Inputs to the ADOR search: end-user SLAs and vendor constraints.

Fig. 9's input box: users supply QoS targets; vendors supply hardware
budgets (area, power, SRAM, memory system).  The design search checks
TTFT, TBT, utilization, area and power.  It checks no request rate:
Fig. 9 also lists one, but no candidate is simulated serving a stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.memory import GIB, MIB


@dataclass(frozen=True)
class ServiceLevelObjectives:
    """End-user QoS requirements.

    ``tbt_slo_s`` bounds the time between tokens (the paper reports its
    reciprocal, tokens/sec, in Fig. 15); ``ttft_slo_s`` bounds the time
    to first token.  The design search checks both at ``batch_size``
    and ``seq_len``; it checks no request rate.  +inf leaves an SLO
    unconstrained; NaN is rejected.
    """

    ttft_slo_s: float = 0.5
    tbt_slo_s: float = 0.05
    batch_size: int = 128
    seq_len: int = 1024

    def __post_init__(self) -> None:
        if not (self.ttft_slo_s > 0 and self.tbt_slo_s > 0):
            raise ValueError("SLOs must be positive")
        if self.batch_size < 1 or self.seq_len < 1:
            raise ValueError("batch and sequence length must be >= 1")


@dataclass(frozen=True)
class VendorConstraints:
    """Hardware budgets the proposed design must respect.

    Defaults describe the A100-class budget used for Table III: 7 nm-era
    die budget, 80 GiB of HBM at 2 TB/s, and an on-chip SRAM budget the
    search splits between local and global memories.
    """

    area_budget_mm2: float = 550.0
    power_budget_w: float = 500.0
    sram_budget_bytes: float = 80 * MIB
    dram_size_bytes: float = 80 * GIB
    dram_bandwidth: float = 2e12
    frequency_hz: float = 1.5e9
    available_p2p_bandwidths: tuple = (16e9, 32e9, 64e9, 128e9)
    min_hardware_utilization: float = 0.6
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if not (self.area_budget_mm2 > 0 and self.power_budget_w > 0):
            raise ValueError("budgets must be positive")
        if not (self.dram_bandwidth > 0 and self.frequency_hz > 0):
            raise ValueError("bandwidth and frequency must be positive")
        if not 0 < self.min_hardware_utilization <= 1:
            raise ValueError("utilization target must be in (0, 1]")


@dataclass(frozen=True)
class SearchRequest:
    """Complete DSE input: models to serve plus both requirement sets."""

    model_names: tuple
    slos: ServiceLevelObjectives = field(default_factory=ServiceLevelObjectives)
    vendor: VendorConstraints = field(default_factory=VendorConstraints)
    num_devices: int = 1

    def __post_init__(self) -> None:
        if not self.model_names:
            raise ValueError("at least one model is required")
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
