"""The ADOR architecture template (paper Fig. 6a).

A :class:`TemplateKnobs` instance is one point in the design space:
systolic-array geometry, MAC-tree width/lanes, core count, memory split
and interconnect bandwidths.  :class:`AdorTemplate` materializes knobs
into a full :class:`~repro.hardware.chip.ChipSpec` and provides the
paper's closed-form sizing rules (Section V-A) as starting points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.requirements import VendorConstraints
from repro.hardware.chip import ChipKind, ChipSpec
from repro.hardware.components import MacTree, SystolicArray, VectorUnit
from repro.hardware.interconnect import NocSpec, P2pSpec
from repro.hardware.memory import Dram, DramKind, Sram, KIB
from repro.hardware.technology import ProcessNode


def _round_down_pow2(value: float) -> int:
    """Largest power of two <= value (>= 1)."""
    if value < 1:
        return 1
    return 1 << int(math.floor(math.log2(value)))


def _round_up_pow2(value: float) -> int:
    """Smallest power of two >= value (>= 1)."""
    if value <= 1:
        return 1
    return 1 << int(math.ceil(math.log2(value)))


@dataclass(frozen=True)
class TemplateKnobs:
    """One candidate configuration of the ADOR template."""

    sa_rows: int
    sa_cols: int
    cores: int
    mt_tree_size: int
    mt_lanes: int
    local_memory_bytes: float
    global_memory_bytes: float
    noc_bandwidth: float
    p2p_bandwidth: float

    def __post_init__(self) -> None:
        if self.sa_rows % 32 or self.sa_cols % 32:
            raise ValueError(
                "systolic arrays are searched in multiples of 32 (paper V-A)")
        if self.cores < 1 or self.mt_tree_size < 1 or self.mt_lanes < 1:
            raise ValueError("core and MAC-tree parameters must be >= 1")
        if self.local_memory_bytes < 0 or self.global_memory_bytes < 0:
            raise ValueError("memory sizes must be non-negative")
        if self.noc_bandwidth <= 0 or self.p2p_bandwidth <= 0:
            raise ValueError("interconnect bandwidths must be positive")


class AdorTemplate:
    """Materializes knobs into 7 nm chips and applies the paper's sizing
    rules."""

    def __init__(self, vendor: VendorConstraints) -> None:
        self.vendor = vendor

    # ------------------------------------------------------------------ #
    # Section V-A closed-form starting points                             #
    # ------------------------------------------------------------------ #

    def mac_tree_size_for_bandwidth(self, cores: int) -> int:
        """The paper's MT sizing rule.

        ``data_size_per_cycle = memory_bandwidth / core_frequency``;
        divided across cores and by the element size, rounded down to a
        power of two so the adder tree stays balanced.  For 2 TB/s,
        1.5 GHz and 32 cores this yields 16 — Table III's tree size.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        bytes_per_cycle = self.vendor.dram_bandwidth / self.vendor.frequency_hz
        elements_per_core = bytes_per_cycle / self.vendor.dtype_bytes / cores
        return max(1, _round_down_pow2(elements_per_core))

    def build(self, knobs: TemplateKnobs, name: str = "ADOR candidate") -> ChipSpec:
        """Instantiate a full chip spec from template knobs."""
        return ChipSpec(
            name=name,
            kind=ChipKind.ADOR_HDA,
            frequency_hz=self.vendor.frequency_hz,
            cores=knobs.cores,
            systolic_array=SystolicArray(knobs.sa_rows, knobs.sa_cols),
            mac_tree=MacTree(knobs.mt_tree_size, knobs.mt_lanes),
            vector_unit=VectorUnit(width=16),
            local_memory=Sram(knobs.local_memory_bytes),
            global_memory=Sram(knobs.global_memory_bytes),
            dram=Dram(
                DramKind.HBM2E,
                self.vendor.dram_size_bytes,
                self.vendor.dram_bandwidth,
                modules=8,
            ),
            noc=NocSpec(bandwidth_bytes_per_s=knobs.noc_bandwidth),
            p2p=P2pSpec(bandwidth_bytes_per_s=knobs.p2p_bandwidth),
            process=ProcessNode.NM_7,
        )

    def memory_split(self, local_bytes_per_core: float,
                     cores: int) -> tuple[float, float]:
        """Split the SRAM budget: local per core, remainder global.

        Section V-B: "after determining the local memory size, the
        remaining SRAM is fully allocated to global memory".
        """
        local = _round_up_pow2(int(local_bytes_per_core / KIB)) * KIB
        total_local = local * cores
        if total_local > self.vendor.sram_budget_bytes:
            # shrink local memory to fit — the feedback path of Fig. 9
            local = _round_down_pow2(
                self.vendor.sram_budget_bytes / cores / KIB) * KIB
            total_local = local * cores
        global_mem = max(0.0, self.vendor.sram_budget_bytes - total_local)
        return float(local), float(global_mem)
