"""Design points: a candidate chip plus its evaluated merit.

The search loop scores candidates on the quantities Fig. 9 reports:
QoS (TTFT/TBT at the SLO batch size), hardware utilization, and
estimated area/cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.area import AreaModel
from repro.hardware.chip import ChipSpec


@dataclass(frozen=True)
class DesignEvaluation:
    """Measured merit of one candidate on one model."""

    ttft_s: float
    tbt_s: float
    decode_bandwidth_utilization: float

    @property
    def tokens_per_s(self) -> float:
        """Per-request decode rate (the paper's TBT axis in Fig. 15)."""
        return 1.0 / self.tbt_s if self.tbt_s > 0 else float("inf")


@dataclass(frozen=True)
class DesignPoint:
    """A candidate chip with its evaluations and area."""

    chip: ChipSpec
    area_mm2: float
    evaluations: tuple = field(default_factory=tuple)

    @property
    def worst_tbt_s(self) -> float:
        return max((e.tbt_s for e in self.evaluations), default=float("inf"))

    @property
    def worst_ttft_s(self) -> float:
        return max((e.ttft_s for e in self.evaluations), default=float("inf"))

    @property
    def min_utilization(self) -> float:
        return min((e.decode_bandwidth_utilization for e in self.evaluations),
                   default=0.0)

    def throughput_per_area(self) -> float:
        """tokens/s/mm^2 at the SLO batch — the vendor's figure of merit."""
        if self.area_mm2 <= 0 or not self.evaluations:
            return 0.0
        return min(e.tokens_per_s for e in self.evaluations) / self.area_mm2


def evaluate_area(chip: ChipSpec) -> float:
    """Die area of a candidate under the calibrated cost model."""
    return AreaModel().die_area_mm2(chip)
