"""Unit tests for analysis metrics, tables and sweeps."""

import pytest

from repro.analysis.metrics import (
    area_efficiency_gain,
    area_efficiency_gflops_mm2,
    normalized_area_efficiency,
    qos_gain,
)
from repro.analysis.sweep import sweep
from repro.analysis.tables import format_table
from repro.hardware.presets import a100, groq_tsp


class TestMetrics:
    def test_area_efficiency(self):
        # 193 TFLOPS on an 826 mm^2 die
        value = area_efficiency_gflops_mm2(193e12, a100())
        assert value == pytest.approx(193e3 / 826, rel=0.001)

    def test_normalization_helps_old_nodes(self):
        absolute = area_efficiency_gflops_mm2(100e12, groq_tsp())
        normalized = normalized_area_efficiency(100e12, groq_tsp())
        assert normalized == pytest.approx(absolute * 4.712, rel=0.001)

    def test_qos_gain(self):
        assert qos_gain(0.02, 0.05) == pytest.approx(2.5)

    def test_area_efficiency_gain_headline(self):
        """The 4.01x headline: 2.51x QoS on a 516 vs 826 mm^2 die."""
        gain = area_efficiency_gain(
            candidate_seconds=1.0 / 2.51, candidate_area=516.0,
            baseline_seconds=1.0, baseline_area=826.0)
        assert gain == pytest.approx(2.51 * 826 / 516, rel=0.001)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            qos_gain(0.0, 1.0)
        with pytest.raises(ValueError):
            area_efficiency_gain(1.0, -1.0, 1.0, 1.0)


class TestFormatTable:
    def test_aligned_output(self):
        text = format_table(["name", "value"],
                            [["alpha", 1.0], ["b", 123456.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines[:1])) == 1

    def test_title_included(self):
        text = format_table(["a"], [[1]], title="Table X")
        assert text.splitlines()[0] == "Table X"

    def test_float_rendering(self):
        text = format_table(["v"], [[0.000001234]])
        assert "e-06" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


def _square(x):
    return x * x


def _fail_at_two(x):
    return 1 / (x - 2)


class TestSweep:
    def test_pairs_returned(self):
        assert sweep([1, 2, 3], lambda x: x * x) == [(1, 1), (2, 4), (3, 9)]

    def test_failure_names_the_point(self):
        with pytest.raises(RuntimeError, match="sweep failed at value 2"):
            sweep([1, 2], lambda x: 1 / (x - 2))

    def test_workers_preserve_input_order(self):
        values = list(range(12))
        assert sweep(values, _square, workers=4) \
            == [(v, v * v) for v in values]

    def test_workers_annotate_failures(self):
        with pytest.raises(RuntimeError, match="sweep failed at value 2"):
            sweep([1, 2, 3], _fail_at_two, workers=2)

    def test_single_worker_stays_in_process(self):
        # lambdas are unpicklable: workers=1 must not spawn a pool
        assert sweep([1, 2], lambda x: x + 1, workers=1) == [(1, 2), (2, 3)]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            sweep([1], _square, workers=0)

    def test_worker_failure_message_identical_to_in_process(self):
        # the pool path must route through the same _apply wrapper, so a
        # worker-side failure reads exactly like an in-process one
        with pytest.raises(RuntimeError) as in_process:
            sweep([1, 2, 3], _fail_at_two)
        with pytest.raises(RuntimeError) as pooled:
            sweep([1, 2, 3], _fail_at_two, workers=2)
        assert str(in_process.value) == str(pooled.value)

