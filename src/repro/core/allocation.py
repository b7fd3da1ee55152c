"""Compile-time GEMM work split between systolic array and MAC tree.

Paper Section IV-E: "considering the ratio of compute units between
systolic arrays and MAC trees, the workload distribution for GEMM
operations is determined at compile time".  Work is split so both unit
pools finish together, which minimizes the makespan of a divisible load.
"""

from __future__ import annotations


def hda_gemm_seconds(flops: float, sa_rate_flops: float,
                     mt_rate_flops: float) -> float:
    """Makespan of a GEMM split optimally across the two pools."""
    if flops < 0:
        raise ValueError("flops must be non-negative")
    total = sa_rate_flops + mt_rate_flops
    if total <= 0:
        raise ValueError("no compute available")
    return flops / total
