"""Unit tests for compute-unit descriptors."""

import pytest

from repro.hardware.components import MacTree, SystolicArray, VectorUnit
from repro.hardware.presets import (
    ador_table3,
    llmcompass_latency,
    llmcompass_throughput,
)


class TestSystolicArray:
    def test_mac_count(self):
        assert SystolicArray(64, 64).macs == 4096
        assert SystolicArray(16, 16, lanes=4).macs == 1024

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            SystolicArray(0, 64)
        with pytest.raises(ValueError):
            SystolicArray(64, 64, lanes=0)

    def test_table3_sa_peaks(self):
        """LLMCompass-L/T and ADOR peak FLOPS from Table III."""
        assert llmcompass_latency().sa_peak_flops \
            == pytest.approx(196.6e12, rel=0.01)
        assert llmcompass_throughput().sa_peak_flops \
            == pytest.approx(786.4e12, rel=0.01)
        assert ador_table3().sa_peak_flops \
            == pytest.approx(393.2e12, rel=0.01)


class TestMacTree:
    def test_mac_count(self):
        assert MacTree(16, 16).macs == 256

    def test_ador_mt_peak(self):
        # 32 cores x 256 MACs x 2 x 1.5 GHz = 24.6 TFLOPS
        assert ador_table3().mt_peak_flops \
            == pytest.approx(24.6e12, rel=0.01)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            MacTree(0)
        with pytest.raises(ValueError):
            MacTree(16, 0)


class TestVectorUnit:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            VectorUnit(width=0)


class TestTable3TotalPerformance:
    def test_ador_design_reaches_417_tflops(self):
        assert ador_table3().peak_flops == pytest.approx(417e12, rel=0.01)
