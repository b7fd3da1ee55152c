"""Unit tests for the HDA scheduler — the paper's QoS engine."""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.scheduling import (
    AdorDeviceModel,
    HdaScheduler,
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
            HdaScheduler(a100())


class TestLayerBreakdown:
    def test_contains_expected_operators(self, ador, llama3):
        breakdown = ador.scheduler.layer_breakdown(
            llama3, Phase.DECODE, 32, 1, 1024)
        for name in ("qkv_proj", "attention", "out_proj", "mlp_gate",
                     "mlp_down", "core_sync"):
            assert name in breakdown, name

    def test_all_components_non_negative(self, ador, llama3):
        for phase, q in ((Phase.DECODE, 1), (Phase.PREFILL, 512)):
            breakdown = ador.scheduler.layer_breakdown(
                llama3, phase, 8, q, 512)
            assert all(v >= 0 for v in breakdown.values())

    def test_decode_attention_grows_with_context(self, ador, llama3):
        short = ador.scheduler.layer_breakdown(llama3, Phase.DECODE, 32, 1, 256)
        long = ador.scheduler.layer_breakdown(llama3, Phase.DECODE, 32, 1, 4096)
        assert long["attention"] > 4 * short["attention"]

    def test_tp_shards_gemm_time(self, ador, llama3):
        one = ador.scheduler.layer_breakdown(llama3, Phase.DECODE, 32, 1, 1024,
                                             devices=1)
        four = ador.scheduler.layer_breakdown(llama3, Phase.DECODE, 32, 1, 1024,
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


def decode_outcome(device, model, batch, context, devices):
    """Every field of one decode step as float hex, or the error text."""
    try:
        step = device.decode_step_time(model, batch, context, devices)
    except ValueError as error:
        return f"ValueError: {error}"
    return {field.name: getattr(step, field.name).hex()
            for field in dataclasses.fields(step)}


def kernel_and_reference(chip, use_mac_tree):
    chip_spec = CHIP_VARIANTS[chip]
    return (AdorDeviceModel(chip_spec, use_mac_tree=use_mac_tree),
            AdorDeviceModel(chip_spec, use_mac_tree=use_mac_tree,
                            compiled_decode=False))


class TestCompiledDecodeKernel:
    """The compiled decode kernel against the per-operator reference
    (``compiled_decode=False``), bit for bit at the device level."""

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
    def test_bit_identical_to_reference(self, chip, use_mac_tree, model,
                                        batch, context, devices):
        kernel, reference = kernel_and_reference(chip, use_mac_tree)
        config = get_model(model)
        assert decode_outcome(kernel, config, batch, context, devices) \
            == decode_outcome(reference, config, batch, context, devices)

    @pytest.mark.parametrize("chip", sorted(CHIP_VARIANTS))
    @pytest.mark.parametrize("use_mac_tree", (True, False))
    @pytest.mark.parametrize("batch, context, devices",
                             ((0, 512, 1), (8, -1, 1), (8, 512, 0)))
    def test_invalid_points_match_reference(self, chip, use_mac_tree, batch,
                                            context, devices, llama3):
        kernel, reference = kernel_and_reference(chip, use_mac_tree)
        expected = decode_outcome(reference, llama3, batch, context, devices)
        if batch < 1 or devices < 1:
            assert expected.startswith("ValueError")
        # twice: a failed build must not leave a kernel behind
        for _ in range(2):
            assert decode_outcome(kernel, llama3, batch, context, devices) \
                == expected

    def test_warmed_scheduler_pickles_without_kernels(self, llama3):
        device = AdorDeviceModel(ador_table3())
        before = device.decode_step_time(llama3, 8, 300, 2)
        clone = pickle.loads(pickle.dumps(device))
        assert clone.scheduler._decode_kernels == {}
        assert device.scheduler._decode_kernels  # the original keeps its own
        assert clone.decode_step_time(llama3, 8, 300, 2) == before
