"""Weight-stationary systolic-array timing (SCALE-Sim analytical model).

The paper models its systolic arrays with SCALE-Sim (Section V-A); for a
weight-stationary array SCALE-Sim's cycle count is closed-form, so we
implement that form directly plus the two extensions ADOR needs:

* a DRAM-bandwidth stall term — weight tiles must arrive in time, and a
  too-slow memory system exposes prefetch latency;
* a *double-buffering* toggle — prefill GEMMs hide the weight load behind
  compute (paper Fig. 6c), but latency-critical GEMV work cannot ("weight
  double buffering is not feasible in this case, exposing pre-fetch
  latency", Section III-B).

For an ``M x K`` activation against a ``K x N`` weight on an ``R x C``
array: the weight matrix is cut into ``ceil(K/R) * ceil(N/C)`` tiles; per
tile the array loads R rows of weights, then streams M activation rows
through with a pipeline fill+drain of ``R + C - 2`` cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.components import SystolicArray


@dataclass(frozen=True)
class SaGemmEstimate:
    """Timing of one GEMM on (possibly many cores of) systolic arrays."""

    cycles: float
    seconds: float
    utilization: float

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.cycles < 0:
            raise ValueError("negative time")


@dataclass(frozen=True)
class SystolicTimingModel:
    """Analytical WS timing for a pool of identical systolic arrays.

    Parameters
    ----------
    array:
        Per-core array geometry.
    cores:
        Number of cores cooperating on one GEMM (the throughput dataflow
        broadcasts weights and splits M across cores, Fig. 6c).
    frequency_hz:
        Core clock.
    dram_stream_utilization:
        Fraction of DRAM bandwidth usable for weight prefetch streams;
        below 1.0 because prefetch granularity and refresh cut into it.
    """

    array: SystolicArray
    cores: int
    frequency_hz: float
    dram_stream_utilization: float = 0.70

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not 0 < self.dram_stream_utilization <= 1:
            raise ValueError("stream utilization must be in (0, 1]")

    def gemm(
        self,
        m: int,
        k: int,
        n: int,
        dram_bandwidth: float,
        dtype_bytes: int = 2,
        double_buffered: bool = True,
        weights_resident: bool = False,
        core_split: str = "auto",
    ) -> SaGemmEstimate:
        """Time an ``M x K x N`` GEMM spread over all cores.

        ``weights_resident`` skips the DRAM stall term (weights already in
        global memory, e.g. the KV pairs of the current prefill chunk).

        ``core_split`` chooses how cores cooperate: ``"m"`` is the
        throughput dataflow (activations partitioned, weights broadcast,
        Fig. 6c), ``"n"`` is the latency dataflow (same activations,
        weight columns partitioned, Fig. 6b), and ``"auto"`` picks the
        faster — the compiler's choice.
        """
        if core_split == "auto":
            split_m = self.gemm(m, k, n, dram_bandwidth, dtype_bytes,
                                double_buffered, weights_resident, "m")
            split_n = self.gemm(m, k, n, dram_bandwidth, dtype_bytes,
                                double_buffered, weights_resident, "n")
            return split_m if split_m.seconds <= split_n.seconds else split_n
        if core_split not in ("m", "n"):
            raise ValueError("core_split must be 'auto', 'm' or 'n'")
        if m < 1 or k < 1 or n < 1:
            raise ValueError("GEMM dims must be >= 1")
        if dram_bandwidth <= 0:
            raise ValueError("dram_bandwidth must be positive")
        rows, cols = self.array.rows, self.array.cols
        if core_split == "m":
            # M split across cores and lanes; weights broadcast (Fig. 6c).
            m_per_core = math.ceil(m / (self.cores * self.array.lanes))
            tiles = math.ceil(k / rows) * math.ceil(n / cols)
        else:
            # Weight columns split across cores; same activations (Fig. 6b).
            m_per_core = m
            n_per_core = math.ceil(n / (self.cores * self.array.lanes))
            tiles = math.ceil(k / rows) * math.ceil(n_per_core / cols)

        fill_drain = rows + cols - 2
        compute_per_tile = m_per_core + fill_drain
        load_per_tile = rows  # cycles to shift one weight tile in

        # Weight arrival constraint.  In the M-split (broadcast) dataflow
        # DRAM supplies each tile once for all cores; in the N-split
        # dataflow every core streams a distinct tile concurrently, so the
        # aggregate demand is ``cores`` tiles per interval.
        concurrent_tiles = 1 if core_split == "m" else self.cores
        bytes_per_tile = rows * cols * dtype_bytes * concurrent_tiles
        if weights_resident:
            stall_per_tile = 0.0
        else:
            arrival_cycles = (
                bytes_per_tile
                / (dram_bandwidth * self.dram_stream_utilization)
                * self.frequency_hz
            )
            stall_per_tile = arrival_cycles

        if double_buffered:
            # Next tile's load and arrival overlap this tile's compute.
            per_tile = max(compute_per_tile, load_per_tile, stall_per_tile)
            pipeline_head = load_per_tile + (0 if weights_resident else stall_per_tile)
            total = pipeline_head + per_tile * tiles
        else:
            # Latency case: load is exposed on every tile.
            per_tile = compute_per_tile + max(load_per_tile, stall_per_tile)
            total = per_tile * tiles

        ideal = (
            float(m) * k * n
            / (rows * cols * self.array.lanes * self.cores)
        )
        utilization = min(1.0, ideal / total) if total > 0 else 0.0
        return SaGemmEstimate(
            cycles=total,
            seconds=total / self.frequency_hz,
            utilization=utilization,
        )

    @property
    def peak_flops(self) -> float:
        """Aggregate peak of the modelled pool."""
        return 2.0 * self.array.macs * self.cores * self.frequency_hz
