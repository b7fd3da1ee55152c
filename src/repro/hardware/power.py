"""Energy / power model for ADOR designs and baselines.

The paper treats power as a first-class vendor constraint ("Power
Budget" in Fig. 9's inputs; TDP rows in Table I) and motivates the HDA
over CGRA partly on power (Section II-C cites 41.3 % savings).  This
module prices a workload's energy from per-event coefficients at a 7 nm
reference node:

* MAC energy (systolic; MAC-tree MACs carry a wiring penalty in the
  peak power),
* SRAM access energy (one coefficient for local and global pools),
* DRAM access energy (HBM-class, ~7.5 pJ/bit),
* static power as a fraction of the peak dynamic power plus a floor.

Coefficients are standard circuit-level figures for 7 nm-class silicon;
energies at other nodes scale with the technology's density ratio (a
first-order dynamic-energy proxy).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import ChipSpec
from repro.hardware.technology import area_scaling_factor, ProcessNode


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (joules) of one workload execution."""

    compute: float
    sram: float
    dram: float
    static: float

    @property
    def total(self) -> float:
        return self.compute + self.sram + self.dram + self.static


@dataclass(frozen=True)
class PowerModel:
    """Per-event energy coefficients at the 7 nm reference node."""

    sa_mac_pj: float = 0.9
    #: MAC-tree MACs burn more wire energy per operation (tree fan-in,
    #: full-bandwidth streaming datapath)
    mt_energy_penalty: float = 1.3
    sram_pj_per_byte: float = 1.2
    dram_pj_per_byte: float = 60.0
    #: leakage + clock tree as a fraction of peak dynamic power
    static_fraction: float = 0.12
    static_floor_w: float = 20.0
    reference_node: ProcessNode = ProcessNode.NM_7

    def _scale(self, chip: ChipSpec) -> float:
        """Dynamic-energy scaling for the chip's process node.

        Denser nodes switch less capacitance: energy scales with the
        density ratio to first order (a 4 nm chip spends ~0.66x the 7 nm
        reference energy per event).
        """
        return area_scaling_factor(self.reference_node, chip.process)

    def peak_dynamic_power_w(self, chip: ChipSpec) -> float:
        """Upper-bound dynamic power: all MACs and the full DRAM pipe."""
        scale = self._scale(chip)
        macs_per_s = chip.frequency_hz * (
            chip.sa_macs + chip.mt_macs * self.mt_energy_penalty)
        compute = macs_per_s * self.sa_mac_pj * 1e-12
        dram = chip.memory_bandwidth * self.dram_pj_per_byte * 1e-12
        sram = chip.memory_bandwidth * self.sram_pj_per_byte * 1e-12
        return scale * (compute + dram + sram)

    def static_power_w(self, chip: ChipSpec) -> float:
        return self.static_floor_w \
            + self.static_fraction * self.peak_dynamic_power_w(chip)

    def tdp_w(self, chip: ChipSpec) -> float:
        """Thermal design power estimate for a candidate design."""
        if chip.tdp_w is not None:
            return chip.tdp_w
        return self.peak_dynamic_power_w(chip) + self.static_power_w(chip)

    def workload_energy(self, chip: ChipSpec, duration_s: float,
                        flops: float, dram_bytes: float) -> EnergyBreakdown:
        """Energy of a workload that ran for ``duration_s``.

        Every FLOP is priced at the systolic MAC coefficient, and SRAM
        traffic is twice the DRAM traffic (stream in, use once from a
        buffer).
        """
        if duration_s < 0 or flops < 0 or dram_bytes < 0:
            raise ValueError("workload quantities must be non-negative")
        scale = self._scale(chip)
        sram_bytes = 2.0 * dram_bytes
        macs = flops / 2.0
        mac_energy = macs * self.sa_mac_pj * 1e-12
        return EnergyBreakdown(
            compute=scale * mac_energy,
            sram=scale * sram_bytes * self.sram_pj_per_byte * 1e-12,
            dram=scale * dram_bytes * self.dram_pj_per_byte * 1e-12,
            static=self.static_power_w(chip) * duration_s,
        )
