"""Effective memory-bandwidth utilization of the MAC tree (paper Fig. 10).

The authors measured a MAC tree on an Alveo U55C FPGA and found "a
logarithmic relationship between the computational workload of various
LLM models and memory bandwidth utilization", topping out at ~90 % of the
theoretical maximum.  We encode that finding directly: utilization is an
affine function of ``log10(operations per device)``, clamped to the
measured floor and ceiling.

Calibration anchors (read off the figure):

* ~1e9 ops/device  -> ~72 % (the "util 70-80 % region"),
* ~1e10 ops/device -> ~80 % (the "util 80-90 % region"),
* >=1e11.25 ops    -> 90 % ceiling ("up to 90 % of theoretical maximum").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EffectiveBandwidthCurve:
    """Utilization as ``clamp(slope * log10(ops) + intercept)``."""

    slope: float = 0.08
    intercept: float = 0.0
    floor: float = 0.55
    ceiling: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor <= self.ceiling <= 1.0:
            raise ValueError("need 0 <= floor <= ceiling <= 1")

    def utilization(self, ops_per_device: float) -> float:
        """Fraction of peak DRAM bandwidth achieved at this workload size."""
        if ops_per_device <= 0:
            return self.floor
        raw = self.slope * math.log10(ops_per_device) + self.intercept
        return min(self.ceiling, max(self.floor, raw))

    def utilization_array(self, ops: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`utilization` for sweeps."""
        ops = np.asarray(ops, dtype=float)
        raw = self.slope * np.log10(np.maximum(ops, 1.0)) + self.intercept
        return np.clip(raw, self.floor, self.ceiling)

    def effective_bandwidth(self, peak_bytes_per_s: float,
                            ops_per_device: float) -> float:
        """Achievable bytes/s given peak bandwidth and workload size."""
        if peak_bytes_per_s <= 0:
            raise ValueError("peak bandwidth must be positive")
        return peak_bytes_per_s * self.utilization(ops_per_device)

    def noisy_measurements(self, ops: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
        """Synthetic "FPGA measurement" points with 1.5 % multiplicative
        noise.

        Used by the Fig. 10 bench to recreate the measurement scatter; the
        noise never pushes a sample above 1.0 utilization.
        """
        clean = self.utilization_array(ops)
        noisy = clean * rng.normal(1.0, 0.015, size=clean.shape)
        return np.clip(noisy, 0.0, 1.0)


#: The calibrated curve used by every MAC-tree timing estimate.
MT_BANDWIDTH_CURVE = EffectiveBandwidthCurve()
