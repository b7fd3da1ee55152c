"""Analytical performance models for every compute substrate in the paper.

* :mod:`repro.perf.effective_bandwidth` — the Fig. 10 MAC-tree bandwidth
  utilization curve (FPGA-calibrated in the paper, curve-fitted here).
* :mod:`repro.perf.systolic` — SCALE-Sim-style weight-stationary systolic
  array timing with tiling, fill/drain and DRAM-stall modelling.
* :mod:`repro.perf.mac_tree` — streaming dot-product engine timing with
  lane-level KV reuse for MHA/GQA/MQA (Fig. 11b).
* :mod:`repro.perf.vector` — vector-unit timing for softmax/norms.
* :mod:`repro.perf.baselines` — device-level models for the GPU / NPU /
  TSP comparison points (Figs. 1, 4, 15).
"""

from repro.perf.effective_bandwidth import (
    EffectiveBandwidthCurve,
    MT_BANDWIDTH_CURVE,
)
from repro.perf.systolic import SaGemmEstimate, SystolicTimingModel
from repro.perf.mac_tree import MacTreeTimingModel, MtEstimate
from repro.perf.vector import VectorTimingModel
from repro.perf.baselines import (
    BaselineBreakdown,
    DeviceModel,
    GpuModel,
    SystolicNpuModel,
    TspModel,
    baseline_for,
)
from repro.perf.cache import CachedDeviceModel, CacheStats

__all__ = [
    "EffectiveBandwidthCurve",
    "MT_BANDWIDTH_CURVE",
    "SaGemmEstimate",
    "SystolicTimingModel",
    "MacTreeTimingModel",
    "MtEstimate",
    "VectorTimingModel",
    "BaselineBreakdown",
    "DeviceModel",
    "GpuModel",
    "SystolicNpuModel",
    "TspModel",
    "baseline_for",
    "CachedDeviceModel",
    "CacheStats",
]
