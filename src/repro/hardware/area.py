"""Calibrated silicon area / cost model.

The paper estimates die areas by "adding the MAC tree information to the
LLMCompass cost model".  We recreate that model as a linear composition
of per-component coefficients at a 7 nm reference node:

* systolic-array MACs (``sa_mac_mm2``),
* MAC-tree MACs, carrying a density *penalty* — tree wiring, per-lane
  stream buffers and the full-bandwidth DRAM datapath make MT MACs far
  less dense than SA MACs (the paper's Table II notes exactly this),
* vector-unit lanes,
* local + global SRAM per MiB,
* DRAM PHY + controllers per TB/s,
* P2P SerDes per GB/s,
* per-core control/DMA/router overhead, and a fixed chip overhead.

The coefficients are calibrated so the three synthesizable designs in
Table III (LLMCompass-L 478 mm^2, LLMCompass-T 787 mm^2, ADOR 516 mm^2)
are reproduced exactly; real GPUs keep their published die sizes via
``ChipSpec.die_area_mm2``.  Areas at other nodes scale by transistor
density (:mod:`repro.hardware.technology`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.chip import ChipSpec
from repro.hardware.memory import MIB
from repro.hardware.technology import ProcessNode, area_scaling_factor


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-component die area in mm^2 (at the chip's own process node)."""

    systolic_array: float
    mac_tree: float
    vector_unit: float
    sram: float
    dram_interface: float
    p2p_interface: float
    core_overhead: float
    fixed_overhead: float

    @property
    def total(self) -> float:
        return (
            self.systolic_array
            + self.mac_tree
            + self.vector_unit
            + self.sram
            + self.dram_interface
            + self.p2p_interface
            + self.core_overhead
            + self.fixed_overhead
        )


@dataclass(frozen=True)
class AreaModel:
    """Linear area model with coefficients at the 7 nm reference node.

    Default coefficients reproduce Table III exactly (see module docstring
    and ``tests/test_hardware_area.py``).
    """

    sa_mac_mm2: float = 0.0015463
    #: MT MACs are ~7.6x less dense than SA MACs once stream buffers and
    #: the DRAM-width datapath are charged to them (Table III calibration).
    mt_density_penalty: float = 7.633
    vu_lane_mm2: float = 0.733
    sram_mm2_per_mib: float = 0.75
    dram_mm2_per_tbps: float = 40.0
    p2p_mm2_per_gbps: float = 0.012
    core_overhead_mm2: float = 0.7
    fixed_overhead_mm2: float = 30.0
    reference_node: ProcessNode = field(default=ProcessNode.NM_7)

    @property
    def mt_mac_mm2(self) -> float:
        return self.sa_mac_mm2 * self.mt_density_penalty

    def breakdown(self, chip: ChipSpec) -> AreaBreakdown:
        """Estimate the per-component area of ``chip`` at its own node."""
        scale = area_scaling_factor(chip.process, self.reference_node) ** -1
        vu_lanes = 0
        if chip.vector_unit is not None:
            # one lane per 16 elements of vector width, at least one per core
            vu_lanes = chip.cores * max(1, chip.vector_unit.width // 16)
        sa_lanes = chip.systolic_array.lanes if chip.systolic_array else 0
        # LLMCompass-style lanes each carry their own vector unit
        vu_lanes = max(vu_lanes, chip.cores * sa_lanes)
        sram_mib = chip.total_sram_bytes / MIB
        return AreaBreakdown(
            systolic_array=scale * self.sa_mac_mm2 * chip.sa_macs,
            mac_tree=scale * self.mt_mac_mm2 * chip.mt_macs,
            vector_unit=scale * self.vu_lane_mm2 * vu_lanes,
            sram=scale * self.sram_mm2_per_mib * sram_mib,
            dram_interface=scale * self.dram_mm2_per_tbps
            * chip.dram.bandwidth_bytes_per_s / 1e12,
            p2p_interface=scale * self.p2p_mm2_per_gbps
            * chip.p2p.bandwidth_bytes_per_s / 1e9,
            core_overhead=scale * self.core_overhead_mm2 * chip.cores,
            fixed_overhead=scale * self.fixed_overhead_mm2,
        )

    def die_area_mm2(self, chip: ChipSpec) -> float:
        """Die area of ``chip``: published figure if available, else modelled."""
        if chip.die_area_mm2 is not None:
            return chip.die_area_mm2
        return self.breakdown(chip).total
