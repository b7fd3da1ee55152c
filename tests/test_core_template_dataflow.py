"""Unit tests for the ADOR template, dataflows and GEMM allocation."""

import pytest

from repro.core.allocation import hda_gemm_seconds
from repro.core.dataflow import (
    CoreSyncMethod,
    DataflowKind,
    MultiCoreDataflow,
)
from repro.core.requirements import (
    SearchRequest,
    ServiceLevelObjectives,
    VendorConstraints,
)
from repro.core.template import (
    AdorTemplate,
    TemplateKnobs,
    _round_down_pow2,
    _round_up_pow2,
)
from repro.hardware.presets import ador_table3

KIB = 1024
MIB = 1024 * 1024


def make_template(**vendor_overrides) -> AdorTemplate:
    return AdorTemplate(VendorConstraints(**vendor_overrides))


def make_knobs(**overrides) -> TemplateKnobs:
    base = dict(
        sa_rows=64, sa_cols=64, cores=32,
        mt_tree_size=16, mt_lanes=16,
        local_memory_bytes=2048 * KIB, global_memory_bytes=16 * MIB,
        noc_bandwidth=512e9, p2p_bandwidth=64e9,
    )
    base.update(overrides)
    return TemplateKnobs(**base)


class TestPow2Helpers:
    def test_round_down(self):
        assert _round_down_pow2(20.8) == 16
        assert _round_down_pow2(16) == 16
        assert _round_down_pow2(0.3) == 1

    def test_round_up(self):
        assert _round_up_pow2(1409) == 2048
        assert _round_up_pow2(1024) == 1024
        assert _round_up_pow2(0.5) == 1


class TestSizingRules:
    def test_mt_size_rule_reproduces_table3(self):
        """2 TB/s / 1.5 GHz / 2 B / 32 cores -> tree size 16."""
        template = make_template()
        assert template.mac_tree_size_for_bandwidth(32) == 16

    def test_mt_size_shrinks_with_more_cores(self):
        template = make_template()
        assert template.mac_tree_size_for_bandwidth(64) \
            < template.mac_tree_size_for_bandwidth(16)

    def test_memory_split_table3(self):
        """1.76 MiB requirement -> 2 MiB local x 32 cores, 16 MiB global."""
        template = make_template(sram_budget_bytes=80 * MIB)
        local, global_mem = template.memory_split(1.76 * MIB, cores=32)
        assert local == 2 * MIB
        assert global_mem == 16 * MIB

    def test_memory_split_shrinks_to_fit(self):
        template = make_template(sram_budget_bytes=16 * MIB)
        local, global_mem = template.memory_split(4 * MIB, cores=32)
        assert local * 32 <= 16 * MIB
        assert global_mem >= 0

    def test_build_produces_hda_chip(self):
        chip = make_template().build(make_knobs())
        assert chip.cores == 32
        assert chip.peak_flops == pytest.approx(417.8e12, rel=0.01)


class TestKnobValidation:
    def test_rejects_non_multiple_of_32(self):
        with pytest.raises(ValueError, match="multiples of 32"):
            make_knobs(sa_rows=48)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            make_knobs(cores=0)


class TestDataflow:
    def test_all_reduce_moves_more_bytes(self):
        flow = MultiCoreDataflow(ador_table3(), DataflowKind.LATENCY)
        gather = flow.sync_bytes_per_gemv(32, 4096, CoreSyncMethod.ALL_GATHER)
        reduce = flow.sync_bytes_per_gemv(32, 4096, CoreSyncMethod.ALL_REDUCE)
        assert reduce == pytest.approx(gather * 32)  # cores x more

    def test_all_gather_bubble_smaller(self):
        flow = MultiCoreDataflow(ador_table3(), DataflowKind.LATENCY)
        compute = 50e-6
        ag = flow.sync_bubble(32, 4096, compute, CoreSyncMethod.ALL_GATHER)
        ar = flow.sync_bubble(32, 4096, compute, CoreSyncMethod.ALL_REDUCE)
        assert ag.exposed_seconds < ar.exposed_seconds

    def test_bubble_hidden_fraction_bounded(self):
        flow = MultiCoreDataflow(ador_table3(), DataflowKind.LATENCY)
        bubble = flow.sync_bubble(32, 4096, 1.0)
        assert 0.0 <= bubble.hidden_fraction <= 1.0

    def test_throughput_dataflow_noc_requirement(self):
        flow = MultiCoreDataflow(ador_table3(), DataflowKind.THROUGHPUT)
        # 64 columns x 2 B x 1.5 GHz = 192 GB/s broadcast stream
        assert flow.required_noc_bandwidth() == pytest.approx(192e9)

    def test_rejects_bad_gemv_shape(self):
        flow = MultiCoreDataflow(ador_table3(), DataflowKind.LATENCY)
        with pytest.raises(ValueError):
            flow.sync_bytes_per_gemv(0, 10, CoreSyncMethod.ALL_GATHER)


class TestAllocation:
    def test_split_proportional_to_rates(self):
        """Both pools run for the whole makespan, so each does work in
        proportion to its rate: 3:1 here."""
        flops = 1e12
        seconds = hda_gemm_seconds(flops, 300e12, 100e12)
        assert seconds * 300e12 == pytest.approx(0.75 * flops)
        assert seconds * 100e12 == pytest.approx(0.25 * flops)

    def test_zero_mt_gets_nothing(self):
        """A pool with no rate takes no work: the SA alone sets the time."""
        assert hda_gemm_seconds(1e12, 300e12, 0.0) == 1e12 / 300e12

    def test_rejects_negative_flops(self):
        with pytest.raises(ValueError):
            hda_gemm_seconds(-1.0, 300e12, 100e12)

    def test_makespan_better_than_either_alone(self):
        flops = 1e12
        combined = hda_gemm_seconds(flops, 300e12, 100e12)
        assert combined < flops / 300e12
        assert combined == pytest.approx(flops / 400e12)

    def test_rejects_no_compute(self):
        with pytest.raises(ValueError):
            hda_gemm_seconds(1.0, 0.0, 0.0)


class TestRequirements:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            ServiceLevelObjectives(ttft_slo_s=0.0)

    @pytest.mark.parametrize("field", ["ttft_slo_s", "tbt_slo_s"])
    def test_slo_rejects_nan(self, field):
        with pytest.raises(ValueError, match="SLOs must be positive"):
            ServiceLevelObjectives(**{field: float("nan")})

    @pytest.mark.parametrize("field, message", [
        ("area_budget_mm2", "budgets must be positive"),
        ("power_budget_w", "budgets must be positive"),
        ("dram_bandwidth", "bandwidth and frequency must be positive"),
        ("frequency_hz", "bandwidth and frequency must be positive"),
    ])
    def test_vendor_rejects_nan(self, field, message):
        with pytest.raises(ValueError, match=message):
            VendorConstraints(**{field: float("nan")})

    def test_infinity_leaves_a_requirement_unconstrained(self):
        inf = float("inf")
        assert ServiceLevelObjectives(ttft_slo_s=inf,
                                      tbt_slo_s=inf).ttft_slo_s == inf
        assert VendorConstraints(area_budget_mm2=inf,
                                 power_budget_w=inf).power_budget_w == inf

    def test_vendor_validation(self):
        with pytest.raises(ValueError):
            VendorConstraints(area_budget_mm2=-1)
        with pytest.raises(ValueError):
            VendorConstraints(min_hardware_utilization=1.5)

    def test_search_request_needs_models(self):
        with pytest.raises(ValueError):
            SearchRequest(model_names=())
