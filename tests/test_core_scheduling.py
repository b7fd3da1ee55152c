"""Unit tests for the HDA scheduling device model — the paper's QoS engine."""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import DeploymentSpec, WorkloadSpec, simulate
from repro.core.scheduling import (
    AdorDeviceModel,
    _DecodeKernel,
    _PrefillKernel,
    device_model_for,
)
from repro.hardware.presets import a100, ador_table3, llmcompass_latency
from repro.models.layers import Phase
from repro.models.zoo import get_model, list_models


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


@pytest.fixture
def ador():
    return AdorDeviceModel(ador_table3())


class TestDispatch:
    def test_hda_chip_routes_to_ador_model(self):
        assert isinstance(device_model_for(ador_table3()), AdorDeviceModel)

    def test_baseline_chips_still_work(self):
        model = device_model_for(a100())
        assert model.chip.name == "NVIDIA A100"

    def test_scheduler_rejects_non_hda(self):
        with pytest.raises(ValueError):
            AdorDeviceModel(a100())


class TestLayerBreakdown:
    def test_contains_expected_operators(self, ador, llama3):
        breakdown = ador.layer_breakdown(
            llama3, Phase.DECODE, 32, 1, 1024)
        for name in ("qkv_proj", "attention", "out_proj", "mlp_gate",
                     "mlp_down", "core_sync"):
            assert name in breakdown, name

    def test_all_components_non_negative(self, ador, llama3):
        for phase, q in ((Phase.DECODE, 1), (Phase.PREFILL, 512)):
            breakdown = ador.layer_breakdown(
                llama3, phase, 8, q, 512)
            assert all(v >= 0 for v in breakdown.values())

    def test_decode_attention_grows_with_context(self, ador, llama3):
        short = ador.layer_breakdown(llama3, Phase.DECODE, 32, 1, 256)
        long = ador.layer_breakdown(llama3, Phase.DECODE, 32, 1, 4096)
        assert long["attention"] > 4 * short["attention"]

    def test_prefill_reads_no_decode_utilization(self, ador, llama3,
                                                 monkeypatch):
        def decode_only(step_flops):
            raise AssertionError("prefill evaluated the decode utilization")

        monkeypatch.setattr(ador, "_decode_utilization", decode_only)
        ador.layer_breakdown(llama3, Phase.PREFILL, 8, 512, 512)

    def test_tp_shards_gemm_time(self, ador, llama3):
        one = ador.layer_breakdown(llama3, Phase.DECODE, 32, 1, 1024,
                                   devices=1)
        four = ador.layer_breakdown(llama3, Phase.DECODE, 32, 1, 1024,
                                    devices=4)
        assert four["mlp_down"] < one["mlp_down"]


class TestFig15Calibration:
    """Headline comparisons against the A100 (paper Section VI-B)."""

    def test_parity_at_batch_16(self, ador, llama3):
        a = device_model_for(a100())
        ratio = a.decode_step_time(llama3, 16, 1024).seconds \
            / ador.decode_step_time(llama3, 16, 1024).seconds
        assert 0.9 < ratio < 1.45  # "performs similarly to the A100"

    def test_2x_or_more_tbt_at_batch_150(self, ador, llama3):
        a = device_model_for(a100())
        ratio = a.decode_step_time(llama3, 150, 1024).seconds \
            / ador.decode_step_time(llama3, 150, 1024).seconds
        assert 2.0 < ratio < 2.8  # paper: 2.36x

    def test_70b_8dev_ratio(self, ador):
        llama70 = get_model("llama3-70b")
        a = device_model_for(a100())
        ratio = a.decode_step_time(llama70, 150, 1024, 8).seconds \
            / ador.decode_step_time(llama70, 150, 1024, 8).seconds
        assert 2.1 < ratio < 2.9  # paper: 2.51x

    def test_ttft_ordering(self, ador, llama3):
        """LLMCompass-L is the slowest prefill, ADOR beats the A100."""
        a = device_model_for(a100()).prefill_time(llama3, 1, 1024).seconds
        l = device_model_for(llmcompass_latency()).prefill_time(
            llama3, 1, 1024).seconds
        ours = ador.prefill_time(llama3, 1, 1024).seconds
        assert ours < a < l

    def test_decode_bandwidth_utilization_high(self, ador, llama3):
        """The MAC tree keeps DRAM utilization near the Fig. 10 ceiling."""
        util = ador.decode_bandwidth_utilization(llama3, 128, 1024)
        assert util > 0.75


class TestHdaAblation:
    """Fig. 11(c): the HDA (SA+MT) beats an SA-only configuration."""

    def test_mac_tree_speeds_up_decode(self, llama3):
        hda = AdorDeviceModel(ador_table3(), use_mac_tree=True)
        sa_only = AdorDeviceModel(ador_table3(), use_mac_tree=False)
        gain = sa_only.decode_step_time(llama3, 32, 1024).seconds \
            / hda.decode_step_time(llama3, 32, 1024).seconds
        assert gain > 1.2

    def test_prefill_mostly_unaffected(self, llama3):
        hda = AdorDeviceModel(ador_table3(), use_mac_tree=True)
        sa_only = AdorDeviceModel(ador_table3(), use_mac_tree=False)
        ratio = sa_only.prefill_time(llama3, 1, 1024).seconds \
            / hda.prefill_time(llama3, 1, 1024).seconds
        assert ratio < 1.2


class TestScalingBehaviour:
    def test_decode_time_grows_with_batch(self, ador, llama3):
        times = [ador.decode_step_time(llama3, b, 1024).seconds
                 for b in (1, 16, 64, 150)]
        assert times == sorted(times)

    def test_prefill_time_grows_with_seq(self, ador, llama3):
        times = [ador.prefill_time(llama3, 1, s).seconds
                 for s in (128, 512, 2048)]
        assert times == sorted(times)

    def test_tp_reduces_decode_time(self, ador):
        llama70 = get_model("llama3-70b")
        t1 = ador.decode_step_time(llama70, 64, 1024, 1).seconds
        t8 = ador.decode_step_time(llama70, 64, 1024, 8).seconds
        assert t8 < t1 / 4

    def test_moe_cheaper_than_dense_equivalent(self, ador):
        """Mixtral reads ~13B active params despite 47B total."""
        mixtral = get_model("mixtral-8x7b")
        step = ador.decode_step_time(mixtral, 32, 1024).seconds
        # must be far cheaper than streaming all 47B parameters
        all_params_time = mixtral.param_bytes / (2e12 * 0.9)
        assert step < 0.55 * all_params_time

    def test_breakdown_components_sum_close_to_total(self, ador, llama3):
        step = ador.decode_step_time(llama3, 64, 1024)
        parts = step.weight_stream + step.attention + step.communication \
            + step.overhead
        assert parts == pytest.approx(step.seconds, rel=0.15)


#: Table 3 and the configurations the per-operator reference covers
#: besides it: one core, no vector unit, no MAC tree
CHIP_VARIANTS = {
    "table3": ador_table3(),
    "one-core": dataclasses.replace(ador_table3(), cores=1),
    "no-vector-unit": dataclasses.replace(ador_table3(), vector_unit=None),
    "no-mac-tree": dataclasses.replace(ador_table3(), mac_tree=None),
}


def outcome(evaluate, model, batch, length, devices):
    """Every field of one stage estimate as float hex, or the error
    text."""
    try:
        step = evaluate(model, batch, length, devices)
    except ValueError as error:
        return f"ValueError: {error}"
    return {field.name: getattr(step, field.name).hex()
            for field in dataclasses.fields(step)}


def kernel_and_reference(chip, use_mac_tree):
    chip_spec = CHIP_VARIANTS[chip]
    return (AdorDeviceModel(chip_spec, use_mac_tree=use_mac_tree),
            AdorDeviceModel(chip_spec, use_mac_tree=use_mac_tree,
                            compiled=False))


def built_kernels(device):
    """Every compiled kernel a device holds."""
    return [kernel for _, kernels in device._kernels.values()
            for kernel in kernels.values()]


class TestCompiledPrefillKernel:
    """The compiled prefill kernel against the per-operator reference
    (``compiled=False``), bit for bit at the device level."""

    @settings(max_examples=300, deadline=None)
    @given(chip=st.sampled_from(sorted(CHIP_VARIANTS)),
           use_mac_tree=st.booleans(),
           model=st.sampled_from(list_models()),
           batch=st.integers(1, 64),
           seq_len=st.integers(1, 8192),
           devices=st.integers(1, 8))
    # a one-token chunk: no causal halving of the attention
    @example(chip="table3", use_mac_tree=True, model="llama3-8b", batch=1,
             seq_len=1, devices=1)
    # MoE weight copies; Megatron TP sync on a one-core chip
    @example(chip="one-core", use_mac_tree=True, model="mixtral-8x7b",
             batch=3, seq_len=512, devices=2)
    @example(chip="no-vector-unit", use_mac_tree=False, model="falcon-7b",
             batch=64, seq_len=8192, devices=8)
    # all-gather TP sync over an uneven head shard
    @example(chip="no-mac-tree", use_mac_tree=True, model="llama3-70b",
             batch=8, seq_len=300, devices=3)
    def test_bit_identical_to_reference(self, chip, use_mac_tree, model,
                                        batch, seq_len, devices):
        kernel, reference = kernel_and_reference(chip, use_mac_tree)
        config = get_model(model)
        assert outcome(kernel.prefill_time, config, batch, seq_len, devices) \
            == outcome(reference.prefill_time, config, batch, seq_len,
                       devices)

    @pytest.mark.parametrize("chip", sorted(CHIP_VARIANTS))
    @pytest.mark.parametrize("use_mac_tree", (True, False))
    @pytest.mark.parametrize("batch, seq_len, devices",
                             ((0, 512, 1), (8, 0, 1), (8, 512, 0)))
    def test_invalid_points_match_reference(self, chip, use_mac_tree, batch,
                                            seq_len, devices, llama3):
        kernel, reference = kernel_and_reference(chip, use_mac_tree)
        expected = outcome(reference.prefill_time, llama3, batch, seq_len,
                           devices)
        assert expected.startswith("ValueError")
        # twice: a failed build must not leave a kernel behind
        for _ in range(2):
            assert outcome(kernel.prefill_time, llama3, batch, seq_len,
                           devices) == expected
        assert built_kernels(kernel) == []


class TestCompiledDecodeKernel:
    """The compiled decode kernel against the per-operator reference
    (``compiled=False``), bit for bit at the device level."""

    @settings(max_examples=300, deadline=None)
    @given(chip=st.sampled_from(sorted(CHIP_VARIANTS)),
           use_mac_tree=st.booleans(),
           model=st.sampled_from(list_models()),
           batch=st.integers(1, 256),
           context=st.integers(0, 32768),
           devices=st.integers(1, 8))
    @example(chip="table3", use_mac_tree=True, model="llama3-8b", batch=8,
             context=0, devices=1)
    @example(chip="no-mac-tree", use_mac_tree=True, model="mixtral-8x7b",
             batch=3, context=0, devices=3)
    @example(chip="no-vector-unit", use_mac_tree=False, model="falcon-7b",
             batch=1, context=32768, devices=8)
    @example(chip="one-core", use_mac_tree=True, model="opt-66b", batch=256,
             context=1, devices=3)
    # 64 query heads over 3 devices leave 21 per device against 2 KV
    # heads: the MAC tree's decode attention rejects the uneven shard
    @example(chip="table3", use_mac_tree=True, model="llama3-70b", batch=8,
             context=512, devices=3)
    # hoisted GEMM layers: a context-0 step clamped at the Fig. 10
    # ceiling, and a chip without a MAC tree
    @example(chip="table3", use_mac_tree=True, model="llama3-70b",
             batch=64, context=4096, devices=4)
    @example(chip="no-mac-tree", use_mac_tree=True, model="llama3-8b",
             batch=8, context=2048, devices=2)
    def test_bit_identical_to_reference(self, chip, use_mac_tree, model,
                                        batch, context, devices):
        kernel, reference = kernel_and_reference(chip, use_mac_tree)
        config = get_model(model)
        assert outcome(kernel.decode_step_time, config, batch, context,
                       devices) \
            == outcome(reference.decode_step_time, config, batch, context,
                       devices)

    @pytest.mark.parametrize("chip, use_mac_tree, model, batch, hoisted", (
        ("table3", True, "llama3-70b", 64, True),
        ("no-mac-tree", True, "llama3-8b", 8, True),
        ("table3", False, "llama3-8b", 8, True),
        ("table3", True, "llama3-8b", 1, False),
    ))
    def test_gemm_layer_hoisted_where_utilization_cannot_move(
            self, chip, use_mac_tree, model, batch, hoisted):
        kernel, _ = kernel_and_reference(chip, use_mac_tree)
        kernel.decode_step_time(get_model(model), batch, 100, 1)
        (built,) = built_kernels(kernel)
        assert (built.gemm_layer is not None) == hoisted

    @pytest.mark.parametrize("chip", sorted(CHIP_VARIANTS))
    @pytest.mark.parametrize("use_mac_tree", (True, False))
    @pytest.mark.parametrize("batch, context, devices",
                             ((0, 512, 1), (8, -1, 1), (8, 512, 0)))
    def test_invalid_points_match_reference(self, chip, use_mac_tree, batch,
                                            context, devices, llama3):
        kernel, reference = kernel_and_reference(chip, use_mac_tree)
        expected = outcome(reference.decode_step_time, llama3, batch,
                           context, devices)
        if batch < 1 or devices < 1:
            assert expected.startswith("ValueError")
        # twice: a failed build must not leave a kernel behind
        for _ in range(2):
            assert outcome(kernel.decode_step_time, llama3, batch, context,
                           devices) == expected
        assert built_kernels(kernel) == []

    def test_warmed_scheduler_pickles_without_kernels(self, llama3):
        device = AdorDeviceModel(ador_table3())
        before = (device.prefill_time(llama3, 4, 512, 2),
                  device.decode_step_time(llama3, 8, 300, 2))
        clone = pickle.loads(pickle.dumps(device))
        assert clone._kernels == {}
        # the original keeps its own, of both kinds
        assert {type(kernel) for kernel in built_kernels(device)} \
            == {_PrefillKernel, _DecodeKernel}
        assert (clone.prefill_time(llama3, 4, 512, 2),
                clone.decode_step_time(llama3, 8, 300, 2)) == before


class TestReferencePaths:
    """``compiled=False`` and ``sim_cache=False`` build no kernel."""

    def test_uncompiled_device_builds_no_kernel(self, llama3):
        device = AdorDeviceModel(ador_table3(), compiled=False)
        device.prefill_time(llama3, 4, 512, 2)
        device.decode_step_time(llama3, 8, 300, 2)
        assert device._kernels == {}

    def test_reference_simulation_builds_no_kernel(self, monkeypatch):
        kinds = []
        kernel = AdorDeviceModel._kernel

        def recording(self, kind, *args):
            kinds.append(kind)
            return kernel(self, kind, *args)

        monkeypatch.setattr(AdorDeviceModel, "_kernel", recording)
        deployment = DeploymentSpec(chip="ador", max_batch=8)
        workload = WorkloadSpec(rate_per_s=10.0, num_requests=20, seed=3)
        simulate(deployment, workload, sim_cache=False)
        assert kinds == []
        simulate(deployment, workload)
        assert set(kinds) == {_PrefillKernel, _DecodeKernel}
