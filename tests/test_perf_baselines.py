"""Unit tests for GPU / NPU / TSP baseline device models."""

import dataclasses

import pytest

from repro.hardware.presets import (
    a100,
    ador_table3,
    groq_tsp,
    h100,
    llmcompass_latency,
    llmcompass_throughput,
    tpu_v4,
)
from repro.models.zoo import get_model
from repro.perf.baselines import (
    GpuModel,
    SystolicNpuModel,
    TspModel,
    baseline_for,
)


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


class TestDispatch:
    def test_kinds_route_correctly(self):
        assert isinstance(baseline_for(a100()), GpuModel)
        assert isinstance(baseline_for(tpu_v4()), SystolicNpuModel)
        assert isinstance(baseline_for(groq_tsp()), TspModel)

    def test_hda_rejected_with_pointer(self):
        with pytest.raises(ValueError, match="device_model_for"):
            baseline_for(ador_table3())

    def test_wrong_kind_constructor_rejected(self):
        with pytest.raises(ValueError):
            GpuModel(tpu_v4())
        with pytest.raises(ValueError):
            SystolicNpuModel(a100())
        with pytest.raises(ValueError):
            TspModel(a100())


class TestGpuDecode:
    """The paper's GPU criticisms, quantified."""

    def test_tbt_degrades_superlinearly_with_batch(self, llama3):
        gpu = baseline_for(a100())
        t16 = gpu.decode_step_time(llama3, 16, 1024).seconds
        t150 = gpu.decode_step_time(llama3, 150, 1024).seconds
        # KV bytes grow ~9.4x but time grows >4x — attention degradation
        assert t150 > 4 * t16

    def test_decode_bandwidth_under_60_percent_at_batch_64(self, llama3):
        """Fig. 4(b): GPUs achieve <60 % of spec bandwidth in decode."""
        gpu = baseline_for(a100())
        util = gpu.decode_bandwidth_utilization(llama3, 64, 1024)
        assert util < 0.60

    def test_tpu_bandwidth_worse_than_gpu(self, llama3):
        """Fig. 4(b): TPU memory utilization is worse than the GPU's."""
        gpu = baseline_for(a100())
        tpu = baseline_for(tpu_v4())
        assert tpu.decode_bandwidth_utilization(llama3, 64, 1024) \
            < gpu.decode_bandwidth_utilization(llama3, 64, 1024)

    def test_tp_sharding_reduces_step_time(self):
        llama70 = get_model("llama3-70b")
        gpu = baseline_for(a100())
        one = gpu.decode_step_time(llama70, 64, 1024, num_devices=8).seconds
        # compare against a hypothetical single device (weights don't fit,
        # but the model is analytical)
        eight = gpu.decode_step_time(llama70, 64, 1024, num_devices=1).seconds
        assert one < eight

    def test_tp_efficiency_derates(self, llama3):
        gpu = baseline_for(a100())
        # same per-device work, more devices -> slower due to TP derate
        t1 = gpu.decode_step_time(llama3, 64, 1024, 1).seconds
        t4 = gpu.decode_step_time(llama3, 64, 1024, 4).seconds
        assert t4 > t1 / 4

    def test_h100_faster_than_a100(self, llama3):
        a = baseline_for(a100())
        h = baseline_for(h100())
        assert h.decode_step_time(llama3, 64, 1024).seconds \
            < a.decode_step_time(llama3, 64, 1024).seconds


class TestPrefillOrdering:
    """Fig. 15 TTFT ordering: LLMCompass-T best, then A100, LLMCompass-L
    worst among the baselines (ADOR sits between T and A100)."""

    def test_ttft_ordering(self, llama3):
        t = baseline_for(llmcompass_throughput()).prefill_time(llama3, 1, 1024)
        a = baseline_for(a100()).prefill_time(llama3, 1, 1024)
        latency = baseline_for(llmcompass_latency()).prefill_time(llama3, 1, 1024)
        assert t.seconds < a.seconds < latency.seconds

    def test_prefill_throughput_positive(self, llama3):
        for chip in (a100(), tpu_v4(), llmcompass_latency()):
            dev = baseline_for(chip)
            assert dev.prefill_throughput_flops(llama3, 1, 1024) > 0


class TestLlmCompassDecode:
    def test_latency_design_beats_throughput_design(self, llama3):
        """Fig. 15 TBT: L (2 TB/s, small arrays) beats T (1 TB/s)."""
        latency = baseline_for(llmcompass_latency())
        throughput = baseline_for(llmcompass_throughput())
        assert latency.decode_step_time(llama3, 128, 1024).seconds \
            < throughput.decode_step_time(llama3, 128, 1024).seconds

    def test_latency_design_beats_a100_at_high_batch(self, llama3):
        latency = baseline_for(llmcompass_latency())
        gpu = baseline_for(a100())
        assert latency.decode_step_time(llama3, 150, 1024).seconds \
            < gpu.decode_step_time(llama3, 150, 1024).seconds


class TestTsp:
    def test_needs_many_devices(self, llama3):
        tsp = baseline_for(groq_tsp())
        # 16 GiB of weights over ~176 MiB usable SRAM per chip
        assert tsp.devices_required(llama3) >= 80

    def test_decode_latency_is_excellent(self, llama3):
        tsp = baseline_for(groq_tsp())
        gpu = baseline_for(a100())
        assert tsp.decode_step_time(llama3, 1, 1024).seconds \
            < gpu.decode_step_time(llama3, 1, 1024).seconds / 10

    def test_breakdown_parts_non_negative(self, llama3):
        tsp = baseline_for(groq_tsp())
        step = tsp.decode_step_time(llama3, 4, 512)
        for part in dataclasses.fields(step):
            assert getattr(step, part.name) >= 0, part.name
