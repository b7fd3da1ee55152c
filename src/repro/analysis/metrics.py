"""Cross-design figures of merit (area efficiency, QoS gain).

These implement the exact comparisons the paper headlines: "2.51x higher
QoS and 4.01x better area efficiency compared to the A100".
"""

from __future__ import annotations

from repro.hardware.area import AreaModel
from repro.hardware.chip import ChipSpec
from repro.hardware.technology import ProcessNode, normalize_area


def area_efficiency_gflops_mm2(throughput_flops: float,
                               chip: ChipSpec) -> float:
    """Achieved GFLOPS per mm^2 of die (Fig. 4a's absolute panel)."""
    if throughput_flops < 0:
        raise ValueError("throughput must be non-negative")
    area = AreaModel().die_area_mm2(chip)
    return throughput_flops / 1e9 / area


def normalized_area_efficiency(throughput_flops: float,
                               chip: ChipSpec) -> float:
    """GFLOPS/mm^2 with the die normalized to 4 nm (Fig. 4a right).

    A 14 nm die shrinks ~4.7x when re-expressed at 4 nm, which is how the
    paper makes the TSP comparable to the H100.
    """
    area = AreaModel().die_area_mm2(chip)
    normalized = normalize_area(area, chip.process, ProcessNode.NM_4)
    return throughput_flops / 1e9 / normalized


def qos_gain(candidate_seconds: float, baseline_seconds: float) -> float:
    """Latency improvement factor (baseline / candidate); > 1 is better."""
    if candidate_seconds <= 0 or baseline_seconds <= 0:
        raise ValueError("latencies must be positive")
    return baseline_seconds / candidate_seconds


def area_efficiency_gain(candidate_seconds: float, candidate_area: float,
                         baseline_seconds: float, baseline_area: float) -> float:
    """QoS-per-area improvement — the paper's 4.01x headline metric.

    The rate (1/latency) per mm^2 of the candidate over the baseline's.
    """
    if min(candidate_seconds, candidate_area,
           baseline_seconds, baseline_area) <= 0:
        raise ValueError("inputs must be positive")
    candidate_rate = 1.0 / candidate_seconds / candidate_area
    baseline_rate = 1.0 / baseline_seconds / baseline_area
    return candidate_rate / baseline_rate
