"""Unit tests for process scaling and the calibrated area model."""

import dataclasses

import pytest

from repro.hardware.area import AreaModel
from repro.hardware.chip import ChipKind
from repro.hardware.presets import (
    a100,
    ador_table3,
    groq_tsp,
    h100,
    llmcompass_latency,
    llmcompass_throughput,
    tpu_v4,
)
from repro.hardware.technology import (
    ProcessNode,
    area_scaling_factor,
    normalize_area,
)


class TestTechnology:
    def test_tsp_normalization_factor_is_4_712(self):
        """The paper prints 4.712x next to the TSP bar in Fig. 4(a)."""
        factor = area_scaling_factor(ProcessNode.NM_14, ProcessNode.NM_4)
        assert 1.0 / factor == pytest.approx(4.712, rel=0.001)

    def test_same_node_is_identity(self):
        assert area_scaling_factor(ProcessNode.NM_7, ProcessNode.NM_7) == 1.0

    def test_normalize_shrinks_to_denser_node(self):
        shrunk = normalize_area(725.0, ProcessNode.NM_14, ProcessNode.NM_4)
        assert shrunk == pytest.approx(725.0 / 4.712, rel=0.001)

    def test_normalize_roundtrip(self):
        there = normalize_area(500.0, ProcessNode.NM_7, ProcessNode.NM_4)
        back = normalize_area(there, ProcessNode.NM_4, ProcessNode.NM_7)
        assert back == pytest.approx(500.0)

    def test_rejects_negative_area(self):
        with pytest.raises(ValueError):
            normalize_area(-1.0, ProcessNode.NM_7)


class TestTable3Calibration:
    """Die areas of the three synthesizable Table III designs must be
    reproduced exactly by the calibrated model."""

    def test_llmcompass_latency_478(self):
        assert AreaModel().breakdown(llmcompass_latency()).total \
            == pytest.approx(478.0, abs=1.0)

    def test_llmcompass_throughput_787(self):
        assert AreaModel().breakdown(llmcompass_throughput()).total \
            == pytest.approx(787.0, abs=1.0)

    def test_ador_design_516(self):
        assert AreaModel().breakdown(ador_table3()).total \
            == pytest.approx(516.0, abs=1.0)

    def test_published_die_sizes_override_model(self):
        model = AreaModel()
        assert model.die_area_mm2(a100()) == 826.0
        assert model.die_area_mm2(h100()) == 814.0
        assert model.die_area_mm2(tpu_v4()) == 400.0
        assert model.die_area_mm2(groq_tsp()) == 725.0


class TestAreaModelBehaviour:
    def test_breakdown_components_non_negative(self):
        breakdown = AreaModel().breakdown(ador_table3())
        for part in dataclasses.fields(breakdown):
            assert getattr(breakdown, part.name) >= 0, part.name

    def test_more_cores_cost_more_area(self):
        chip = ador_table3()
        bigger = chip.with_updates(cores=64)
        model = AreaModel()
        assert model.breakdown(bigger).total > model.breakdown(chip).total

    def test_mt_density_penalty_applied(self):
        model = AreaModel()
        assert model.mt_mac_mm2 == pytest.approx(
            model.sa_mac_mm2 * model.mt_density_penalty)

    def test_die_area_at_other_node(self):
        """The modelled area scales with the chip's process node."""
        model = AreaModel()
        chip = ador_table3()  # 7 nm
        at_4nm = chip.with_updates(process=ProcessNode.NM_4)
        assert model.die_area_mm2(at_4nm) < model.die_area_mm2(chip)


class TestPresetSpecs:
    """Table I and Table III constants."""

    def test_table1_peak_performance(self):
        assert h100().peak_flops == 1000e12
        assert tpu_v4().peak_flops == 275e12
        assert groq_tsp().peak_flops == 205e12

    def test_table1_memory_bandwidth(self):
        assert h100().memory_bandwidth == pytest.approx(3.35e12)
        assert tpu_v4().memory_bandwidth == pytest.approx(1.2e12)
        assert groq_tsp().memory_bandwidth == pytest.approx(80e12)

    def test_table3_performance_column(self):
        assert a100().peak_flops == 312e12
        assert llmcompass_latency().peak_flops == pytest.approx(196.6e12, rel=0.01)
        assert llmcompass_throughput().peak_flops == pytest.approx(786.4e12, rel=0.01)
        assert ador_table3().peak_flops == pytest.approx(417.8e12, rel=0.01)

    def test_table3_memory_column(self):
        chip = ador_table3()
        assert chip.local_memory.size_bytes == 2048 * 1024
        assert chip.global_memory.size_bytes == 16 * 1024 * 1024
        assert chip.cores == 32

    def test_kinds_route_to_models(self):
        assert a100().kind == ChipKind.GPU
        assert tpu_v4().kind == ChipKind.SYSTOLIC_NPU
        assert groq_tsp().kind == ChipKind.STREAMING_SRAM
        assert ador_table3().kind == ChipKind.ADOR_HDA

    def test_chip_aggregates(self):
        chip = ador_table3()
        assert chip.sa_macs == 32 * 64 * 64
        assert chip.mt_macs == 32 * 16 * 16
        assert chip.total_sram_bytes == 32 * 2048 * 1024 + 16 * 1024 * 1024
