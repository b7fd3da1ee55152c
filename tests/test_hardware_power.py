"""Unit tests for the energy/power model."""

import dataclasses

import pytest

from repro.hardware.power import PowerModel
from repro.hardware.presets import a100, ador_table3, h100, tpu_v4


@pytest.fixture
def pm():
    return PowerModel()


class TestTdp:
    def test_published_tdp_wins(self, pm):
        assert pm.tdp_w(a100()) == 400.0
        assert pm.tdp_w(h100()) == 700.0
        assert pm.tdp_w(tpu_v4()) == 275.0

    def test_ador_estimate_in_plausible_envelope(self, pm):
        """The ADOR design must sit well under GPU TDPs — a 516 mm^2
        accelerator without SMT overheads."""
        tdp = pm.tdp_w(ador_table3())
        assert 200.0 < tdp < 500.0

    def test_peak_dynamic_positive(self, pm):
        assert pm.peak_dynamic_power_w(ador_table3()) > 0

    def test_static_includes_floor(self, pm):
        assert pm.static_power_w(ador_table3()) > pm.static_floor_w

    def test_mac_tree_penalty_raises_peak_power(self, pm):
        """A MAC-tree MAC costs ``mt_energy_penalty`` systolic MACs of
        peak power (the ADOR chip sits at the 7 nm reference node)."""
        chip = ador_table3()
        flat = PowerModel(mt_energy_penalty=1.0)
        extra = chip.frequency_hz * chip.mt_macs \
            * (pm.mt_energy_penalty - 1.0) * pm.sa_mac_pj * 1e-12
        assert pm.peak_dynamic_power_w(chip) \
            - flat.peak_dynamic_power_w(chip) == pytest.approx(extra)


class TestWorkloadEnergy:
    def test_components_non_negative(self, pm):
        energy = pm.workload_energy(ador_table3(), 0.02, 1e12, 30e9)
        for part in dataclasses.fields(energy):
            assert getattr(energy, part.name) >= 0, part.name

    def test_total_is_sum(self, pm):
        energy = pm.workload_energy(ador_table3(), 0.02, 1e12, 30e9)
        assert energy.total == pytest.approx(sum(dataclasses.astuple(energy)))

    def test_dram_traffic_dominates_decode(self, pm):
        """Decode energy is memory-movement energy — the architectural
        argument for maximizing bandwidth utilization."""
        energy = pm.workload_energy(ador_table3(), 0.02,
                                    flops=2.4e12, dram_bytes=36e9)
        assert energy.dram > energy.compute

    def test_denser_node_cheaper(self, pm):
        from repro.hardware.technology import ProcessNode
        chip_7nm = ador_table3()
        chip_4nm = chip_7nm.with_updates(process=ProcessNode.NM_4)
        e7 = pm.workload_energy(chip_7nm, 0.02, 1e12, 1e9).compute
        e4 = pm.workload_energy(chip_4nm, 0.02, 1e12, 1e9).compute
        assert e4 < e7

    def test_rejects_negative_quantities(self, pm):
        with pytest.raises(ValueError):
            pm.workload_energy(ador_table3(), -1.0, 1.0, 1.0)


class TestDerivedMetrics:
    def test_average_power(self, pm):
        """A 20 ms decode step's energy over its duration is a plausible
        accelerator power."""
        energy = pm.workload_energy(ador_table3(), 0.02,
                                    flops=2.4e12, dram_bytes=36e9)
        assert 100.0 < energy.total / 0.02 < 400.0
