"""Device-level performance models for the paper's comparison hardware.

Three baseline families appear in the evaluation:

* **GPU** (A100, H100): high peak specs, but SMT control keeps memory
  bandwidth utilization under ~60 % in decode and attention kernels
  degrade further with batch size (paper Sections II-B, III-A, Fig. 4b);
* **Systolic NPU** (TPUv4, LLMCompass-L/T): throughput-oriented systolic
  arrays that are "suboptimal for GEMV" — their decode efficiency is set
  by a per-design GEMV bandwidth utilization;
* **Streaming SRAM** (Groq TSP): all weights on chip at 80 TB/s, superb
  latency but hundreds of devices per model and poor area efficiency.

Each model implements the common :class:`DeviceModel` interface the
schedulers and benches consume; the ADOR HDA model lives in
:mod:`repro.core.scheduling` and implements the same interface.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from repro.hardware.chip import ChipKind, ChipSpec
from repro.models.config import ModelConfig
from repro.models.kv_cache import kv_cache_bytes


@dataclass(frozen=True)
class BaselineBreakdown:
    """Stage latency with its component parts (all seconds)."""

    seconds: float
    weight_stream: float = 0.0
    attention: float = 0.0
    compute: float = 0.0
    communication: float = 0.0
    overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("negative stage time")


def _tp_allreduce_seconds(
    chip: ChipSpec,
    model: ModelConfig,
    rows: int,
    num_devices: int,
) -> float:
    """Megatron-style tensor-parallel sync cost per forward pass.

    Two all-reduces per layer over the ``rows x hidden`` activation; the
    ring all-reduce moves ``2 (D-1)/D`` of the tensor per device.
    """
    if num_devices <= 1:
        return 0.0
    tensor_bytes = rows * model.hidden_size * model.dtype_bytes
    per_sync = 2.0 * (num_devices - 1) / num_devices * tensor_bytes
    wire = per_sync / chip.p2p.bandwidth_bytes_per_s
    steps = 2 * (num_devices - 1)
    latency = steps * chip.p2p.latency_s
    return model.num_layers * 2 * (wire + latency)


class DeviceModel(abc.ABC):
    """Common stage-latency interface over every hardware family."""

    def __init__(self, chip: ChipSpec) -> None:
        self.chip = chip

    @abc.abstractmethod
    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        """Latency to prefill ``batch`` requests of ``seq_len`` tokens."""

    @abc.abstractmethod
    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        """Latency of one decode iteration over ``batch`` requests."""

    def decode_bandwidth_utilization(self, model: ModelConfig, batch: int,
                                     context_len: int,
                                     num_devices: int = 1) -> float:
        """Achieved fraction of peak DRAM bandwidth in decode (Fig. 4b)."""
        step = self.decode_step_time(model, batch, context_len, num_devices)
        bytes_needed = (
            model.active_param_bytes_per_token
            + kv_cache_bytes(model, batch, context_len)
        ) / num_devices
        ideal = bytes_needed / self.chip.memory_bandwidth
        if step.seconds == 0:
            return 1.0
        return min(1.0, ideal / step.seconds)

    def prefill_throughput_flops(self, model: ModelConfig, batch: int,
                                 seq_len: int, num_devices: int = 1) -> float:
        """Achieved FLOPS in prefill — the Fig. 4a numerator."""
        time = self.prefill_time(model, batch, seq_len, num_devices).seconds
        flops = 2.0 * batch * seq_len * model.active_params_per_token / num_devices
        return flops / time if time > 0 else 0.0


@dataclass(frozen=True)
class GpuEfficiency:
    """Derating constants of the GPU model (paper-calibrated).

    ``attention_util(B) = attn_util_base / (1 + B / attn_batch_knee)``
    captures the attention-kernel slowdown with batch the paper describes
    in Section II-B; weight streams achieve ``weight_stream_util`` and
    large GEMMs ``compute_eff`` of peak.
    """

    compute_eff: float = 0.62
    weight_stream_util: float = 0.85
    attn_util_base: float = 0.60
    attn_batch_knee: float = 110.0
    kernel_overhead_s: float = 2e-6
    kernels_per_layer: int = 8
    #: per-extra-device efficiency loss under tensor parallelism: sharded
    #: GEMVs shrink, wave quantization worsens, NCCL kernels interleave
    tp_derate: float = 0.08

    def attention_util(self, batch: int) -> float:
        return self.attn_util_base / (1.0 + batch / self.attn_batch_knee)

    def tp_efficiency(self, devices: int) -> float:
        return 1.0 / (1.0 + self.tp_derate * max(0, devices - 1))


class GpuModel(DeviceModel):
    """A100/H100-class SMT GPU, derated by :class:`GpuEfficiency`'s
    defaults."""

    def __init__(self, chip: ChipSpec) -> None:
        if chip.kind != ChipKind.GPU:
            raise ValueError(f"{chip.name} is not a GPU spec")
        super().__init__(chip)
        self.eff = GpuEfficiency()

    def _overhead(self, model: ModelConfig) -> float:
        return self.eff.kernel_overhead_s * self.eff.kernels_per_layer \
            * model.num_layers

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        flops = 2.0 * batch * seq_len * model.active_params_per_token / num_devices
        # causal attention score/context flops
        attn_flops = (
            2.0 * batch * model.num_layers * model.num_heads
            * model.head_dim * seq_len * seq_len / num_devices
        )
        compute = (flops + attn_flops) / (self.chip.peak_flops * self.eff.compute_eff)
        weights = model.active_param_bytes_per_token / num_devices \
            / (self.chip.memory_bandwidth * self.eff.weight_stream_util)
        body = max(compute, weights)
        comm = _tp_allreduce_seconds(self.chip, model, batch * seq_len, num_devices)
        overhead = self._overhead(model)
        return BaselineBreakdown(
            seconds=body + comm + overhead,
            weight_stream=weights,
            compute=compute,
            communication=comm,
            overhead=overhead,
        )

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        bw = self.chip.memory_bandwidth
        tp_eff = self.eff.tp_efficiency(num_devices)
        weight_bytes = model.active_param_bytes_per_token / num_devices
        weight_stream = weight_bytes / (bw * self.eff.weight_stream_util * tp_eff)
        gemm_flops = 2.0 * batch * model.active_params_per_token / num_devices
        gemm_compute = gemm_flops / (self.chip.peak_flops * self.eff.compute_eff)
        dense = max(weight_stream, gemm_compute)

        kv_bytes = kv_cache_bytes(model, batch, context_len) / num_devices
        attention = kv_bytes / (bw * self.eff.attention_util(batch) * tp_eff)

        comm = _tp_allreduce_seconds(self.chip, model, batch, num_devices)
        overhead = self._overhead(model)
        return BaselineBreakdown(
            seconds=dense + attention + comm + overhead,
            weight_stream=weight_stream,
            attention=attention,
            compute=gemm_compute,
            communication=comm,
            overhead=overhead,
        )


@dataclass(frozen=True)
class NpuEfficiency:
    """Derating constants of a systolic NPU design."""

    compute_eff: float = 0.75
    weight_stream_util: float = 0.70
    #: DRAM utilization achievable by GEMV/attention work on the systolic
    #: array — the paper's core criticism of SA-only designs.
    gemv_util: float = 0.50
    op_overhead_s: float = 5e-7
    ops_per_layer: int = 8
    #: attention kernels shard into per-request GEMVs that tile the array
    #: ever worse as batch grows (same mechanism as the GPU's knee)
    attn_batch_knee: float = 256.0

    def attention_util(self, batch: int) -> float:
        return self.gemv_util / (1.0 + batch / self.attn_batch_knee)


#: Per-design GEMV utilization: latency-oriented small arrays stream
#: GEMV operands far better than huge throughput arrays.
NPU_EFFICIENCY_PRESETS: dict[str, NpuEfficiency] = {
    "Google TPUv4": NpuEfficiency(compute_eff=0.70, gemv_util=0.45),
    "LLMCompass-L": NpuEfficiency(compute_eff=0.75, gemv_util=0.75),
    "LLMCompass-T": NpuEfficiency(compute_eff=0.75, gemv_util=0.55),
}


class SystolicNpuModel(DeviceModel):
    """TPU / LLMCompass-class systolic-array NPU, derated by the chip's
    :data:`NPU_EFFICIENCY_PRESETS` entry (the :class:`NpuEfficiency`
    defaults for any other chip)."""

    def __init__(self, chip: ChipSpec) -> None:
        if chip.kind != ChipKind.SYSTOLIC_NPU:
            raise ValueError(f"{chip.name} is not a systolic NPU spec")
        super().__init__(chip)
        self.eff = NPU_EFFICIENCY_PRESETS.get(chip.name, NpuEfficiency())

    def _overhead(self, model: ModelConfig) -> float:
        return self.eff.op_overhead_s * self.eff.ops_per_layer * model.num_layers

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        flops = 2.0 * batch * seq_len * model.active_params_per_token / num_devices
        attn_flops = (
            2.0 * batch * model.num_layers * model.num_heads
            * model.head_dim * seq_len * seq_len / num_devices
        )
        compute = (flops + attn_flops) / (self.chip.peak_flops * self.eff.compute_eff)
        weights = model.active_param_bytes_per_token / num_devices \
            / (self.chip.memory_bandwidth * self.eff.weight_stream_util)
        body = max(compute, weights)
        comm = _tp_allreduce_seconds(self.chip, model, batch * seq_len, num_devices)
        overhead = self._overhead(model)
        return BaselineBreakdown(
            seconds=body + comm + overhead,
            weight_stream=weights,
            compute=compute,
            communication=comm,
            overhead=overhead,
        )

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        bw = self.chip.memory_bandwidth
        weight_bytes = model.active_param_bytes_per_token / num_devices
        weight_stream = weight_bytes / (bw * self.eff.gemv_util)
        gemm_flops = 2.0 * batch * model.active_params_per_token / num_devices
        gemm_compute = gemm_flops / (self.chip.peak_flops * self.eff.compute_eff)
        dense = max(weight_stream, gemm_compute)

        kv_bytes = kv_cache_bytes(model, batch, context_len) / num_devices
        attention = kv_bytes / (bw * self.eff.attention_util(batch))

        comm = _tp_allreduce_seconds(self.chip, model, batch, num_devices)
        overhead = self._overhead(model)
        return BaselineBreakdown(
            seconds=dense + attention + comm + overhead,
            weight_stream=weight_stream,
            attention=attention,
            compute=gemm_compute,
            communication=comm,
            overhead=overhead,
        )


class TspModel(DeviceModel):
    """Groq-TSP-class streaming architecture: all weights in SRAM.

    A model is sharded over however many devices its parameters need;
    decode latency is a single pipeline traversal at SRAM bandwidth.
    """

    SRAM_UTIL = 0.80
    CAPACITY_FRACTION = 0.80  # SRAM share available for weights

    def __init__(self, chip: ChipSpec) -> None:
        if chip.kind != ChipKind.STREAMING_SRAM:
            raise ValueError(f"{chip.name} is not a streaming-SRAM spec")
        super().__init__(chip)

    def devices_required(self, model: ModelConfig) -> int:
        """Devices needed just to hold the weights on chip."""
        usable = self.chip.local_memory.size_bytes * self.CAPACITY_FRACTION
        return max(1, math.ceil(model.param_bytes / usable))

    def max_kv_batch(self, model: ModelConfig, context_len: int,
                     num_devices: int | None = None) -> int:
        """Largest batch whose KV cache fits in the SRAM left over after
        weights — the TSP's structural throughput limit."""
        devices = num_devices or self.devices_required(model)
        spare = self.chip.local_memory.size_bytes \
            * (1.0 - self.CAPACITY_FRACTION) * devices
        from repro.models.kv_cache import kv_bytes_per_token
        per_request = context_len * kv_bytes_per_token(model)
        return max(1, int(spare // per_request))

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        devices = max(num_devices, self.devices_required(model))
        flops = 2.0 * batch * seq_len * model.active_params_per_token
        compute = flops / (self.chip.peak_flops * 0.55 * devices)
        comm = devices * self.chip.p2p.latency_s
        return BaselineBreakdown(seconds=compute + comm, compute=compute,
                                 communication=comm)

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        devices = max(num_devices, self.devices_required(model))
        bw = self.chip.dram.bandwidth_bytes_per_s * self.SRAM_UTIL
        # Pipeline traversal: every weight byte crosses a MAC once, each
        # device streaming its resident slice; KV also lives in SRAM.
        weight_stream = model.active_param_bytes_per_token / (bw * devices)
        kv_bytes = kv_cache_bytes(model, batch, context_len)
        attention = kv_bytes / (bw * devices)
        comm = devices * self.chip.p2p.latency_s
        gemm_flops = 2.0 * batch * model.active_params_per_token
        compute = gemm_flops / (self.chip.peak_flops * devices * 0.55)
        body = max(weight_stream + attention, compute)
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=weight_stream,
            attention=attention,
            compute=compute,
            communication=comm,
        )


def baseline_for(chip: ChipSpec) -> DeviceModel:
    """Dispatch a baseline chip spec to its performance model.

    ADOR HDA chips are handled by
    :func:`repro.core.scheduling.device_model_for`, which builds the full
    heterogeneous-dataflow scheduler on top of this interface.
    """
    if chip.kind == ChipKind.GPU:
        return GpuModel(chip)
    if chip.kind == ChipKind.SYSTOLIC_NPU:
        return SystolicNpuModel(chip)
    if chip.kind == ChipKind.STREAMING_SRAM:
        return TspModel(chip)
    raise ValueError(
        f"{chip.name}: kind {chip.kind} has no baseline model; "
        "use repro.core.scheduling.device_model_for for HDA chips"
    )
