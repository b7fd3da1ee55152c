"""Unit tests for vector-unit timing."""

import pytest

from repro.hardware.components import VectorUnit
from repro.perf.vector import VectorTimingModel


def make_vu(width=16, cores=32, freq=1.5e9, overhead=2e-7):
    return VectorTimingModel(
        unit=VectorUnit(width),
        cores=cores,
        frequency_hz=freq,
        op_overhead_s=overhead,
    )


class TestVectorTiming:
    def test_throughput(self):
        vu = make_vu()
        assert vu.elements_per_second == 16 * 32 * 1.5e9

    def test_elementwise_linear_plus_overhead(self):
        vu = make_vu()
        t1 = vu.elementwise(1e6)
        t2 = vu.elementwise(2e6)
        # doubling elements doubles the variable part only
        assert t2 - t1 == pytest.approx(1e6 / vu.elements_per_second)

    def test_softmax_two_passes(self):
        vu = make_vu(overhead=0.0)
        assert vu.softmax(100, 1000) == pytest.approx(
            2 * 100 * 1000 / vu.elements_per_second)

    def test_layernorm_equals_softmax_cost_model(self):
        vu = make_vu(overhead=0.0)
        assert vu.layernorm(10, 4096) == pytest.approx(vu.softmax(10, 4096))

    def test_zero_elements_costs_overhead(self):
        vu = make_vu(overhead=5e-7)
        assert vu.elementwise(0) == 5e-7

    def test_rejects_negative_elements(self):
        with pytest.raises(ValueError):
            make_vu().elementwise(-1)
