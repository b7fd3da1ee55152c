"""Unit tests for the Fig. 10 effective-bandwidth curve."""

import numpy as np
import pytest

from repro.perf.effective_bandwidth import (
    EffectiveBandwidthCurve,
    MT_BANDWIDTH_CURVE,
)


class TestCalibrationAnchors:
    """The paper's figure: ~70-80 % near 1e9 ops, 80-90 % near 1e10-1e11,
    capped at 90 %."""

    def test_1e9_in_70_80_region(self):
        util = MT_BANDWIDTH_CURVE.utilization(1e9)
        assert 0.70 <= util <= 0.80

    def test_1e10_at_80(self):
        assert MT_BANDWIDTH_CURVE.utilization(1e10) == pytest.approx(0.80)

    def test_1e11_in_80_90_region(self):
        util = MT_BANDWIDTH_CURVE.utilization(1e11)
        assert 0.80 <= util <= 0.90

    def test_ceiling_at_90(self):
        assert MT_BANDWIDTH_CURVE.utilization(1e15) == 0.90

    def test_floor_for_tiny_workloads(self):
        assert MT_BANDWIDTH_CURVE.utilization(1.0) == MT_BANDWIDTH_CURVE.floor
        assert MT_BANDWIDTH_CURVE.utilization(0.0) == MT_BANDWIDTH_CURVE.floor


class TestCurveBehaviour:
    def test_monotonic_non_decreasing(self):
        ops = np.logspace(6, 14, 50)
        utils = MT_BANDWIDTH_CURVE.utilization_array(ops)
        assert np.all(np.diff(utils) >= 0)

    def test_vectorized_matches_scalar(self):
        ops = np.array([1e8, 1e9, 1e10, 1e12])
        vector = MT_BANDWIDTH_CURVE.utilization_array(ops)
        scalar = [MT_BANDWIDTH_CURVE.utilization(o) for o in ops]
        assert vector == pytest.approx(scalar)

    def test_effective_bandwidth_scales_peak(self):
        assert MT_BANDWIDTH_CURVE.effective_bandwidth(2e12, 1e10) \
            == pytest.approx(1.6e12)

    def test_rejects_bad_peak(self):
        with pytest.raises(ValueError):
            MT_BANDWIDTH_CURVE.effective_bandwidth(0.0, 1e9)

    def test_invalid_clamps_rejected(self):
        with pytest.raises(ValueError):
            EffectiveBandwidthCurve(floor=0.9, ceiling=0.5)


class TestNoisyMeasurements:
    def test_noise_is_reproducible(self):
        ops = np.logspace(9, 11, 10)
        a = MT_BANDWIDTH_CURVE.noisy_measurements(ops, np.random.default_rng(3))
        b = MT_BANDWIDTH_CURVE.noisy_measurements(ops, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_noise_stays_in_unit_interval(self):
        """On a curve that tops out at 1.0, about half the samples at the
        ceiling draw noise above 1.0; the clip holds them there."""
        ops = np.logspace(6, 14, 200)
        samples = EffectiveBandwidthCurve(ceiling=1.0).noisy_measurements(
            ops, np.random.default_rng(0))
        assert np.all(samples >= 0.0)
        assert np.all(samples <= 1.0)
        assert samples.max() == 1.0

    def test_noise_centred_on_curve(self):
        ops = np.full(4000, 1e10)
        samples = MT_BANDWIDTH_CURVE.noisy_measurements(
            ops, np.random.default_rng(1))
        assert samples.mean() == pytest.approx(0.80, abs=0.005)
