"""Dynamic HDA scheduling: the decoder-layer latency estimator (Fig. 8).

The scheduler implements the paper's operating rules:

* **decode** — the MAC tree owns the full DRAM bandwidth, streaming
  weights and KV cache at the Fig. 10 effective bandwidth; the systolic
  array assists with batched GEMM compute and works on KV pairs already
  resident in global memory; vector units handle norms/softmax;
* **prefill** — GEMMs are split at compile time between the systolic
  array and MAC tree proportionally to their effective rates
  (:mod:`repro.core.allocation`); weights double-buffer behind tiles;
* **multi-core** — the latency dataflow's all-gather bubbles are charged
  per layer (Fig. 6d); **multi-device** TP sync is overlapped per the
  collectives model.

Every QoS experiment (Figs. 11, 15, 16, 17) consumes these estimates, so
calibration decisions live here and nowhere else.  The serving hot path
evaluates them through one compiled kernel per ``(model, batch,
devices)`` operating point and stage (:class:`_PrefillKernel`,
:class:`_DecodeKernel`): each hoists what its stage's varying length
cannot move and is held bit-identical to the per-operator reference
that ``compiled=False`` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.allocation import hda_gemm_seconds
from repro.core.dataflow import CoreSyncMethod, DataflowKind, MultiCoreDataflow
from repro.hardware.chip import ChipKind, ChipSpec
from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    Phase,
    decoder_layer_operators,
    lm_head_operator,
)
from repro.parallel.collectives import (
    SyncPlan,
    choose_sync_method,
    collective_terms,
    layer_sync_bytes,
    layer_sync_plan,
    visible_collective_time,
)
from repro.perf.baselines import BaselineBreakdown, DeviceModel, baseline_for
from repro.perf.effective_bandwidth import MT_BANDWIDTH_CURVE
from repro.perf.mac_tree import MacTreeTimingModel
from repro.perf.systolic import SystolicTimingModel
from repro.perf.vector import VectorTimingModel


#: share of a decode step's body that TP sync can hide behind
_DECODE_TP_OVERLAP = 0.95
#: share of a prefill chunk's body that TP sync can hide behind
_PREFILL_TP_OVERLAP = 0.60
#: relative FLOP slack the decode kernel's ceiling test leaves for
#: rounding: a step whose context-0 FLOPs, shrunk by it, still clamp at
#: the Fig. 10 ceiling clamps there at every context
_CEILING_SLACK = 1e-9


@dataclass(frozen=True)
class SchedulerConfig:
    """Calibration constants of the HDA scheduler."""

    #: SA compute efficiency on large prefill GEMMs beyond the analytical
    #: tiling losses (bank conflicts, edge tiles)
    sa_efficiency: float = 0.92
    #: MT efficiency when assisting GEMMs (it must share DRAM streams)
    mt_gemm_efficiency: float = 0.90
    #: DRAM utilization of SA weight prefetch in decode *without* a MAC
    #: tree (the Fig. 11c ablation: SA-only GEMV exposes prefetch latency)
    sa_only_gemv_utilization: float = 0.58
    #: per-layer scheduling overhead (descriptor fetch, DMA programming)
    layer_overhead_s: float = 1.0e-6


class HdaScheduler:
    """Stage-latency estimator for one ADOR HDA chip.

    :meth:`layer_breakdown` evaluates one decoder layer operator by
    operator.  :meth:`prefill_time` and :meth:`decode_step_time` run
    the serving hot path through one compiled kernel per ``(model,
    batch, devices)`` operating point (:class:`_PrefillKernel`,
    :class:`_DecodeKernel`), built on first use; both are bit-identical
    to the per-operator reference, which ``compiled=False`` keeps.
    """

    def __init__(self, chip: ChipSpec, use_mac_tree: bool = True,
                 config: SchedulerConfig | None = None,
                 compiled: bool = True) -> None:
        if chip.kind != ChipKind.ADOR_HDA:
            raise ValueError(f"{chip.name} is not an ADOR HDA chip")
        if chip.systolic_array is None:
            raise ValueError("HDA scheduling requires a systolic array")
        self.chip = chip
        self.use_mac_tree = use_mac_tree and chip.mac_tree is not None
        self.config = config or SchedulerConfig()
        self.systolic = SystolicTimingModel(
            array=chip.systolic_array,
            cores=chip.cores,
            frequency_hz=chip.frequency_hz,
        )
        self.mac_tree = None
        if self.use_mac_tree:
            self.mac_tree = MacTreeTimingModel(
                tree=chip.mac_tree,
                cores=chip.cores,
                frequency_hz=chip.frequency_hz,
                dram_bandwidth=chip.memory_bandwidth,
            )
        self.vector = VectorTimingModel(
            unit=chip.vector_unit,
            cores=chip.cores,
            frequency_hz=chip.frequency_hz,
        ) if chip.vector_unit is not None else None
        self.dataflow_latency = MultiCoreDataflow(chip, DataflowKind.LATENCY)
        self.compiled = compiled
        # id(model) -> (model, {(kernel class, batch, devices): kernel}).
        # An id key spares hashing the frozen ModelConfig per miss; the
        # model is pinned next to its kernels so a freed id can never
        # alias a new config.
        self._kernels: dict[int, tuple[ModelConfig, dict]] = {}

    def __getstate__(self) -> dict:
        # object ids do not survive a pickle round-trip: ship the
        # scheduler without its kernels, which rebuild on first use
        state = self.__dict__.copy()
        state["_kernels"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Effective rates                                                     #
    # ------------------------------------------------------------------ #

    def _decode_utilization(self, step_flops: float) -> float:
        """DRAM utilization in decode: the Fig. 10 curve with the MAC
        tree, a derated constant without it (Fig. 11c ablation)."""
        if self.use_mac_tree:
            return MT_BANDWIDTH_CURVE.utilization(step_flops)
        return self.config.sa_only_gemv_utilization

    def _mt_rate(self) -> float:
        if self.mac_tree is None:
            return 0.0
        return self.mac_tree.peak_flops * self.config.mt_gemm_efficiency

    # ------------------------------------------------------------------ #
    # Per-operator timing                                                 #
    # ------------------------------------------------------------------ #

    def _prefill_gemm_seconds(self, op: Operator, devices: int) -> float:
        """Compile-time split GEMM on SA (+MT assist), weights sharded by TP."""
        n_shard = max(1, math.ceil(op.n / devices))
        sa_est = self.systolic.gemm(
            op.m, op.k, n_shard, self.chip.memory_bandwidth,
            double_buffered=True,
        )
        flops_shard = op.flops / devices
        sa_rate = (flops_shard / sa_est.seconds if sa_est.seconds > 0
                   else self.systolic.peak_flops) * self.config.sa_efficiency
        return hda_gemm_seconds(flops_shard, sa_rate, self._mt_rate())

    def _decode_gemm_seconds(self, op: Operator, devices: int,
                             utilization: float) -> float:
        """Weight-streamed batched GEMV: MT consumes the stream, SA assists."""
        weight_bytes = op.weight_bytes / devices
        stream = weight_bytes / (self.chip.memory_bandwidth * utilization)
        rates = self.systolic.peak_flops * self.config.sa_efficiency \
            + self._mt_rate()
        compute = (op.flops / devices) / rates
        return max(stream, compute)

    def _prefill_attention_seconds(self, op: Operator, devices: int) -> float:
        """Chunk attention on the SA against global-memory KV.

        Heads shard across devices; score and context GEMMs read KV pairs
        produced by the current chunk from global memory, so no DRAM
        stall applies (Section IV-B).
        """
        heads_per_device = max(1, op.heads // devices)
        query_len = max(1, op.m // op.batch)
        jobs = op.batch * heads_per_device
        # score: [q, d] x [d, ctx]; context: [q, ctx] x [ctx, d] — model the
        # pair as one GEMM of doubled N on the resident operand.
        est = self.systolic.gemm(
            m=query_len * jobs,
            k=op.k,
            n=2 * op.context_len,
            dram_bandwidth=self.chip.memory_bandwidth,
            double_buffered=True,
            weights_resident=True,
        )
        causal = 0.5 if query_len > 1 else 1.0
        return est.seconds * causal / self.config.sa_efficiency

    def _decode_attention_seconds(self, op: Operator, devices: int,
                                  utilization: float,
                                  dtype_bytes: int) -> float:
        """Decode attention: the MAC tree streams per-request KV."""
        kv_heads = max(1, op.heads // op.group_size)
        if self.mac_tree is not None:
            shard = self.mac_tree.decode_attention(
                batch=op.batch,
                num_heads=max(1, op.heads // devices),
                num_kv_heads=max(1, kv_heads // devices),
                head_dim=op.k,
                context_len=op.context_len,
                dtype_bytes=dtype_bytes,
            )
            return shard.seconds
        kv_bytes = op.io_bytes / devices
        return kv_bytes / (self.chip.memory_bandwidth * utilization)

    def _vector_seconds(self, op: Operator, devices: int) -> float:
        if self.vector is None:
            return 0.0
        elements = op.m * op.k / devices
        if op.name.endswith("norm"):
            return self.vector.layernorm(op.m, max(1, op.k // devices))
        return self.vector.elementwise(elements)

    def _softmax_seconds(self, op: Operator, devices: int) -> float:
        if self.vector is None or op.context_len == 0:
            return 0.0
        rows = op.m * max(1, op.heads // devices)
        return self.vector.softmax(rows, op.context_len)

    # ------------------------------------------------------------------ #
    # Layer and stage aggregation                                         #
    # ------------------------------------------------------------------ #

    def layer_breakdown(self, model: ModelConfig, phase: Phase, batch: int,
                        query_len: int, context_len: int,
                        devices: int = 1) -> dict[str, float]:
        """Per-operator seconds for one decoder layer (Fig. 11a bars)."""
        if devices < 1:
            raise ValueError("devices must be >= 1")
        ops = decoder_layer_operators(model, batch, query_len, context_len)
        # only decode streams at the Fig. 10 utilization point
        utilization = None if phase == Phase.PREFILL else \
            self._decode_utilization(
                sum(op.flops for op in ops) * model.num_layers)
        breakdown: dict[str, float] = {}
        for op in ops:
            if op.kind == OperatorKind.GEMM:
                if phase == Phase.PREFILL:
                    seconds = self._prefill_gemm_seconds(op, devices)
                else:
                    seconds = self._decode_gemm_seconds(op, devices, utilization)
            elif op.kind == OperatorKind.ATTENTION:
                if phase == Phase.PREFILL:
                    seconds = self._prefill_attention_seconds(op, devices)
                else:
                    seconds = self._decode_attention_seconds(
                        op, devices, utilization, model.dtype_bytes)
                seconds += self._softmax_seconds(op, devices)
            else:
                seconds = self._vector_seconds(op, devices)
            breakdown[op.name] = breakdown.get(op.name, 0.0) + seconds
        # multi-core all-gather bubbles: two synchronized GEMVs per layer
        rows = batch * query_len
        compute_floor = breakdown.get("out_proj", 0.0)
        bubble = self.dataflow_latency.sync_bubble(
            rows, model.hidden_size, compute_floor, CoreSyncMethod.ALL_GATHER)
        breakdown["core_sync"] = 2 * bubble.exposed_seconds \
            + self.config.layer_overhead_s
        return breakdown

    def _kernel(self, kind: type, model: ModelConfig, batch: int,
                devices: int) -> "_PrefillKernel | _DecodeKernel":
        """The compiled ``kind`` kernel of one operating point, built on
        first use (a failed build stores nothing)."""
        entry = self._kernels.get(id(model))
        if entry is None:
            entry = self._kernels[id(model)] = (model, {})
        key = (kind, batch, devices)
        kernel = entry[1].get(key)
        if kernel is None:
            kernel = entry[1][key] = kind(self, model, batch, devices)
        return kernel

    def _lm_head_seconds(self, model: ModelConfig, batch: int,
                         devices: int) -> float:
        """The LM head: a weight-streamed GEMM over the vocabulary."""
        head = lm_head_operator(model, batch)
        step_flops = 2.0 * batch * model.active_params_per_token
        return self._decode_gemm_seconds(
            head, devices, self._decode_utilization(step_flops))

    def _tp_sync_plan(self, model: ModelConfig, rows: int,
                      devices: int) -> SyncPlan:
        method = choose_sync_method(devices)
        tensor_bytes = rows * model.hidden_size * model.dtype_bytes
        return layer_sync_plan(method, tensor_bytes, devices)

    def _tp_sync_seconds(self, model: ModelConfig, rows: int, devices: int,
                         body_seconds: float, overlap_capacity: float) -> float:
        if devices <= 1:
            return 0.0
        return visible_collective_time(
            self._tp_sync_plan(model, rows, devices), self.chip.p2p,
            model.num_layers, body_seconds * overlap_capacity)

    def _prefill_weight_stream(self, model: ModelConfig,
                               devices: int) -> float:
        """Prefill's floor: weights must still arrive from DRAM once
        per layer."""
        return model.active_param_bytes_per_token / devices / (
            self.chip.memory_bandwidth * self.systolic.dram_stream_utilization)

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     devices: int = 1) -> BaselineBreakdown:
        """Latency to prefill ``batch`` requests of ``seq_len`` tokens."""
        if self.compiled and seq_len >= 1:
            # an empty chunk is invalid: the reference below raises
            # exactly as it always has
            return self._kernel(_PrefillKernel, model, batch,
                                devices)(seq_len)
        layer = self.layer_breakdown(
            model, Phase.PREFILL, batch, seq_len, seq_len, devices)
        per_layer = sum(layer.values())
        compute = per_layer * model.num_layers
        weight_stream = self._prefill_weight_stream(model, devices)
        body = max(compute, weight_stream)
        comm = self._tp_sync_seconds(model, batch * seq_len, devices,
                                     body, _PREFILL_TP_OVERLAP)
        attn = layer.get("attention", 0.0) * model.num_layers
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=weight_stream,
            attention=attn,
            compute=compute,
            communication=comm,
            overhead=layer.get("core_sync", 0.0) * model.num_layers,
        )

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         devices: int = 1) -> BaselineBreakdown:
        """One decode iteration over ``batch`` requests (TBT = 1/this)."""
        if self.compiled and context_len >= 0:
            # a negative context is invalid: the reference below raises
            # (or not) exactly as it always has
            return self._kernel(_DecodeKernel, model, batch,
                                devices)(context_len)
        layer = self.layer_breakdown(
            model, Phase.DECODE, batch, 1, context_len, devices)
        body = sum(layer.values()) * model.num_layers
        head_seconds = self._lm_head_seconds(model, batch, devices)
        body += head_seconds
        comm = self._tp_sync_seconds(model, batch, devices, body,
                                     overlap_capacity=_DECODE_TP_OVERLAP)
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=sum(v for k, v in layer.items()
                              if k not in ("attention", "core_sync"))
            * model.num_layers + head_seconds,
            attention=layer.get("attention", 0.0) * model.num_layers,
            communication=comm,
            overhead=layer.get("core_sync", 0.0) * model.num_layers,
        )


#: _PrefillKernel operator tags
_GEMM, _ATTENTION, _NORM, _ELEMENTWISE, _NO_VECTOR_UNIT = range(5)


class _PrefillKernel:
    """One prefill operating point ``(model, batch, devices)``, compiled.

    A chunk of ``seq_len`` tokens per request sets the layer's row
    count, ``rows = batch * seq_len``.  That moves every GEMM's FLOPs
    and rows per core, every vector op's elements, the attention GEMM's
    rows and columns and its softmax, the core-sync bubble and the TP
    sync volume.  Everything else is hoisted here, once: each
    operator's shape, its tile counts under both core splits and their
    weight-tile DRAM stalls, the vector and softmax rates, the layer
    overhead, the TP sync's method, overlap and latency, and the
    weight-stream floor.
    :meth:`__call__` evaluates one chunk in the float-operation order of
    the per-operator reference (``compiled=False``): split ties go to
    the M split, as in :meth:`SystolicTimingModel.gemm`, and every sum
    is a ``sum()`` over the reference's ordered list, so each
    :class:`BaselineBreakdown` field is bit-identical to the
    reference's.  The only operations dropped are exact ones: an
    elementwise op's ``1.0 *`` pass count, the ``+ 0`` stall of the
    attention's resident operands, the ``0.0 +`` of summing into an
    empty dict slot and a skipped softmax's ``+ 0.0``; and a systolic
    GEMM's time is never zero (its head loads one tile), so the
    reference's zero-time rate fallback never runs.
    """

    __slots__ = (
        "batch", "devices", "num_layers", "ways", "fill_drain", "load",
        "cols", "frequency", "head_m", "floor_m", "head_n", "floor_n",
        "sa_efficiency", "mt_rate", "ops", "slot", "out_proj", "jobs",
        "head_dim_tiles", "softmax_heads", "vector_overhead",
        "vector_rate", "sync_terms", "hidden", "layer_overhead",
        "weight_stream", "tp_method", "tp_row_bytes", "tp_bandwidth",
        "tp_overlap", "tp_latency",
    )

    def __init__(self, scheduler: HdaScheduler, model: ModelConfig,
                 batch: int, devices: int) -> None:
        # the reference's argument checks, in its order
        if devices < 1:
            raise ValueError("devices must be >= 1")
        ops = decoder_layer_operators(model, batch, 1, 1)
        self.batch = batch
        self.devices = devices
        self.num_layers = model.num_layers

        # SystolicTimingModel.gemm, double-buffered at its default
        # 2-byte tiles: a core split takes
        #   head + max(rows per core + fill_drain, floor) * tiles
        # cycles.  The M split gives each core and lane ceil(rows /
        # ways) rows and fetches each weight tile once for all cores;
        # the N split gives every core all rows and splits the weight
        # columns, each core fetching its own tile.
        systolic = scheduler.systolic
        array = systolic.array
        self.ways = systolic.cores * array.lanes
        self.fill_drain = array.rows + array.cols - 2
        self.load = array.rows
        self.cols = array.cols
        self.frequency = systolic.frequency_hz
        stream = scheduler.chip.memory_bandwidth \
            * systolic.dram_stream_utilization
        stall_m = array.rows * array.cols * 2 / stream * self.frequency
        stall_n = array.rows * array.cols * 2 * systolic.cores / stream \
            * self.frequency
        self.head_m = array.rows + stall_m
        self.floor_m = max(array.rows, stall_m)
        self.head_n = array.rows + stall_n
        self.floor_n = max(array.rows, stall_n)
        self.sa_efficiency = scheduler.config.sa_efficiency
        self.mt_rate = scheduler._mt_rate()

        vector = scheduler.vector
        self.vector_rate = None
        if vector is not None:
            self.vector_overhead = vector.op_overhead_s
            self.vector_rate = vector.elements_per_second
        entries = []
        for op in ops:
            if op.kind == OperatorKind.GEMM:
                # _prefill_gemm_seconds: _gemm's FLOPs 2.0 * rows * k *
                # n * weight copies over the devices; TP shards the
                # weight columns
                n_shard = max(1, math.ceil(op.n / devices))
                k_tiles = math.ceil(op.k / array.rows)
                copies = op.weight_bytes / (op.k * op.n * model.dtype_bytes)
                entries.append((
                    _GEMM, op.k, op.n, copies,
                    k_tiles * math.ceil(n_shard / array.cols),
                    k_tiles * math.ceil(math.ceil(n_shard / self.ways)
                                        / array.cols)))
            elif op.kind == OperatorKind.ATTENTION:
                # _prefill_attention_seconds and _softmax_seconds: the
                # heads shard over the devices
                self.softmax_heads = max(1, op.heads // devices)
                self.jobs = batch * self.softmax_heads
                self.head_dim_tiles = math.ceil(op.k / array.rows)
                entries.append((_ATTENTION,))
            elif vector is None:
                entries.append((_NO_VECTOR_UNIT,))
            elif op.name.endswith("norm"):
                entries.append((_NORM, max(1, op.k // devices)))
            else:
                entries.append((_ELEMENTWISE, op.k))
        self.ops = tuple(entries)
        names = [op.name for op in ops]
        self.slot = names.index("attention")
        self.out_proj = names.index("out_proj")

        self.sync_terms = scheduler.dataflow_latency.sync_terms
        self.hidden = model.hidden_size
        self.layer_overhead = scheduler.config.layer_overhead_s
        self.weight_stream = scheduler._prefill_weight_stream(model, devices)
        self.tp_method = None
        if devices > 1:
            # _tp_sync_seconds: only the plan's bytes carry the rows
            plan = scheduler._tp_sync_plan(model, batch, devices)
            self.tp_method = plan.method
            self.tp_row_bytes = model.hidden_size * model.dtype_bytes
            self.tp_bandwidth = scheduler.chip.p2p.bandwidth_bytes_per_s
            self.tp_overlap = plan.overlappable_fraction
            self.tp_latency = collective_terms(
                plan, scheduler.chip.p2p, model.num_layers)[2]

    def _attention(self, seq_len: int, rows: int) -> float:
        """The chunk attention: score and context as one GEMM of doubled
        N on resident operands (no stall), then the softmax."""
        m = seq_len * self.jobs
        n = 2 * seq_len
        load = self.load
        total_m = load + max(math.ceil(m / self.ways) + self.fill_drain,
                             load) \
            * (self.head_dim_tiles * math.ceil(n / self.cols))
        total_n = load + max(m + self.fill_drain, load) \
            * (self.head_dim_tiles
               * math.ceil(math.ceil(n / self.ways) / self.cols))
        seconds = (total_m if total_m <= total_n else total_n) \
            / self.frequency * (0.5 if seq_len > 1 else 1.0) \
            / self.sa_efficiency
        if self.vector_rate is not None:
            seconds += self.vector_overhead + 2.0 * (
                float(rows * self.softmax_heads) * seq_len) / self.vector_rate
        return seconds

    def __call__(self, seq_len: int) -> BaselineBreakdown:
        rows = self.batch * seq_len
        devices = self.devices
        frequency = self.frequency
        sa_efficiency = self.sa_efficiency
        mt_rate = self.mt_rate
        head_m = self.head_m
        head_n = self.head_n
        per_tile_m = max(math.ceil(rows / self.ways) + self.fill_drain,
                         self.floor_m)
        per_tile_n = max(rows + self.fill_drain, self.floor_n)
        layer = []
        for op in self.ops:
            kind = op[0]
            if kind == _GEMM:
                _, k, n, copies, tiles_m, tiles_n = op
                total_m = head_m + per_tile_m * tiles_m
                total_n = head_n + per_tile_n * tiles_n
                flops = 2.0 * rows * k * n * copies / devices
                sa_rate = flops / ((total_m if total_m <= total_n
                                    else total_n) / frequency) \
                    * sa_efficiency
                layer.append(flops / (sa_rate + mt_rate))
            elif kind == _ATTENTION:
                layer.append(self._attention(seq_len, rows))
            elif kind == _NORM:
                layer.append(self.vector_overhead + 2.0 * (
                    float(rows) * op[1]) / self.vector_rate)
            elif kind == _ELEMENTWISE:
                layer.append(self.vector_overhead
                             + rows * op[1] / devices / self.vector_rate)
            else:
                layer.append(0.0)

        wire, hideable, hop = self.sync_terms(rows, self.hidden,
                                              CoreSyncMethod.ALL_GATHER)
        core_sync = 2 * (wire - min(hideable, layer[self.out_proj]) + hop) \
            + self.layer_overhead
        layer.append(core_sync)
        compute = sum(layer) * self.num_layers
        body = max(compute, self.weight_stream)
        if self.tp_method is None:
            comm = 0.0
        else:
            wire = self.num_layers * layer_sync_bytes(
                self.tp_method, rows * self.tp_row_bytes, devices) \
                / self.tp_bandwidth
            comm = wire - min(wire * self.tp_overlap,
                              body * _PREFILL_TP_OVERLAP) + self.tp_latency
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=self.weight_stream,
            attention=layer[self.slot] * self.num_layers,
            compute=compute,
            communication=comm,
            overhead=core_sync * self.num_layers,
        )


class _DecodeKernel:
    """One decode operating point ``(model, batch, devices)``, compiled.

    Only the attention operator depends on the context: its FLOPs move
    the Fig. 10 utilization point, and with it every GEMM's stream
    time; its KV stream and softmax grow with it; the core-sync bubble
    and the TP sync hide behind what it leaves.  Every other term is
    hoisted here, once.  When the utilization cannot move — no MAC
    tree, or a context-0 step already clamped at the curve's ceiling —
    the whole GEMM layer, its sum and the core-sync bubble are hoisted
    too, and a miss computes only attention, softmax, the body sum and
    the TP sync.  :meth:`__call__` evaluates one context in the
    float-operation order of the per-operator reference
    (``compiled=False``), so its :class:`BaselineBreakdown` is
    bit-identical to the reference's.  Products that carry the context
    keep the reference's factor order; the only operations dropped are
    exact ones: decode's ``* 1.0`` causal factor, the ``0.0 +`` of
    summing into an empty dict slot and a skipped softmax's ``+ 0.0``.
    """

    __slots__ = (
        "num_layers", "curve", "attn_flops", "heads", "batch",
        "flops_pre", "flops_post", "bandwidth", "ops", "slot",
        "out_proj", "kv_batch", "kv_heads", "head_dim", "dtype_bytes",
        "devices", "mt_flops", "mt_rereads", "mt_bandwidth", "mt_curve",
        "mt_rate", "softmax_rows", "vector_overhead", "vector_rate",
        "core_sync", "layer_overhead", "head_seconds", "tp_sync",
        "gemm_layer",
    )

    def __init__(self, scheduler: HdaScheduler, model: ModelConfig,
                 batch: int, devices: int) -> None:
        # the reference's argument checks, in its order
        if devices < 1:
            raise ValueError("devices must be >= 1")
        ops = decoder_layer_operators(model, batch, 1, 0)
        self.slot = next(i for i, op in enumerate(ops)
                         if op.kind == OperatorKind.ATTENTION)
        attn = ops.pop(self.slot)
        self.num_layers = model.num_layers
        self.batch = batch
        self.devices = devices

        # step FLOPs -> the layer's DRAM utilization point: the Fig. 10
        # curve with the MAC tree, a constant without it
        self.curve = MT_BANDWIDTH_CURVE if scheduler.use_mac_tree else None
        # attention_operator's FLOPs: 2.0 * 2.0 * query_len * head_dim,
        # then * context * num_heads * batch
        self.attn_flops = 2.0 * 2.0 * 1 * model.head_dim
        self.heads = attn.heads
        self.flops_pre = sum(op.flops for op in ops[:self.slot])
        self.flops_post = tuple(op.flops for op in ops[self.slot:])

        # every other operator of the layer, in order: GEMMs as (sharded
        # weight bytes, compute floor) for _decode_gemm_seconds, vector
        # ops as (None, finished seconds)
        rates = scheduler.systolic.peak_flops \
            * scheduler.config.sa_efficiency + scheduler._mt_rate()
        self.bandwidth = scheduler.chip.memory_bandwidth
        self.ops = tuple(
            (op.weight_bytes / devices, (op.flops / devices) / rates)
            if op.kind == OperatorKind.GEMM
            else (None, scheduler._vector_seconds(op, devices))
            for op in ops)
        self.out_proj = [op.name for op in ops].index("out_proj")

        # the attention slot (_decode_attention_seconds): KV bytes are
        # 2.0 * batch * context * kv_heads * head_dim * dtype_bytes
        self.kv_batch = 2.0 * batch
        self.head_dim = attn.k
        self.dtype_bytes = model.dtype_bytes
        mac_tree = scheduler.mac_tree
        if mac_tree is None:
            # the whole KV stream at the layer's utilization
            self.kv_heads = model.num_kv_heads
            self.mt_flops = None
        else:
            # MacTreeTimingModel.decode_attention on this device's shard
            heads = max(1, attn.heads // devices)
            kv_heads = max(1, max(1, attn.heads // attn.group_size)
                           // devices)
            # raises the reference's error for an uneven head shard
            mac_tree.decode_attention(batch, heads, kv_heads, attn.k, 0,
                                      model.dtype_bytes)
            self.kv_heads = kv_heads
            self.mt_rereads = math.ceil(heads // kv_heads
                                        / mac_tree.tree.lanes)
            self.mt_flops = 2.0 * 2.0 * batch * heads * attn.k
            self.mt_bandwidth = mac_tree.dram_bandwidth
            self.mt_curve = mac_tree.curve
            usable_lanes = min(mac_tree.tree.lanes, max(1, batch * heads))
            usable_macs = mac_tree.tree.tree_size * usable_lanes \
                * mac_tree.cores
            self.mt_rate = 2.0 * usable_macs * mac_tree.frequency_hz
        vector = scheduler.vector
        if vector is None:
            self.softmax_rows = None
        else:
            # _softmax_seconds: VectorTimingModel.softmax(rows, context)
            self.softmax_rows = float(attn.m * max(1, attn.heads // devices))
            self.vector_overhead = vector.op_overhead_s
            self.vector_rate = vector.elements_per_second

        self.core_sync = scheduler.dataflow_latency.sync_terms(
            batch, model.hidden_size, CoreSyncMethod.ALL_GATHER)
        self.layer_overhead = scheduler.config.layer_overhead_s
        self.head_seconds = scheduler._lm_head_seconds(model, batch, devices)
        self.tp_sync = None if devices <= 1 else collective_terms(
            scheduler._tp_sync_plan(model, batch, devices),
            scheduler.chip.p2p, model.num_layers)

        # FLOPs only grow with the context, so a context-0 step that
        # clamps at the curve's ceiling (less a rounding slack) clamps
        # at every context
        self.gemm_layer = None
        if self.curve is None:
            self.gemm_layer = self._gemm_layer(
                scheduler.config.sa_only_gemv_utilization)
        elif self.curve.utilization(
                sum(self.flops_post, self.flops_pre) * self.num_layers
                * (1.0 - _CEILING_SLACK)) >= self.curve.ceiling:
            self.gemm_layer = self._gemm_layer(self.curve.ceiling)

    def _gemm_layer(self, utilization: float) -> tuple:
        """The layer at one DRAM utilization, all but its attention:
        ``(bandwidth, the layer's seconds in order with the attention
        slot empty and the core-sync bubble last, the bubble, the sum
        of the operators but attention)``."""
        bw_util = self.bandwidth * utilization
        layer = [seconds if weight_bytes is None
                 else max(weight_bytes / bw_util, seconds)
                 for weight_bytes, seconds in self.ops]
        wire, hideable, hop = self.core_sync
        core_sync = 2 * (wire - min(hideable, layer[self.out_proj]) + hop) \
            + self.layer_overhead
        weight_stream = sum(layer)
        layer.insert(self.slot, None)
        layer.append(core_sync)
        return bw_util, layer, core_sync, weight_stream

    def __call__(self, context_len: int) -> BaselineBreakdown:
        gemm_layer = self.gemm_layer
        if gemm_layer is None:
            attn_flops = self.attn_flops * context_len * self.heads \
                * self.batch
            gemm_layer = self._gemm_layer(self.curve.utilization(
                sum(self.flops_post, self.flops_pre + attn_flops)
                * self.num_layers))
        bw_util, layer, core_sync, weight_stream = gemm_layer

        kv_bytes = self.kv_batch * context_len * self.kv_heads \
            * self.head_dim * self.dtype_bytes
        if self.mt_flops is None:
            attention = kv_bytes / self.devices / bw_util
        else:
            # at context 0 the curve takes its floor branch and both
            # terms are 0.0, the reference's early return
            flops = self.mt_flops * context_len
            eff_bw = self.mt_bandwidth * self.mt_curve.utilization(flops)
            attention = max(kv_bytes * self.mt_rereads / eff_bw,
                            flops / self.mt_rate)
        if self.softmax_rows is not None and context_len != 0:
            attention += self.vector_overhead \
                + 2.0 * (self.softmax_rows * context_len) / self.vector_rate

        layer = layer.copy()  # a hoisted layer serves every call
        layer[self.slot] = attention
        body = sum(layer) * self.num_layers + self.head_seconds
        if self.tp_sync is None:
            comm = 0.0
        else:
            wire, hideable, latency = self.tp_sync
            comm = wire - min(hideable, body * _DECODE_TP_OVERLAP) + latency
        return BaselineBreakdown(
            seconds=body + comm,
            weight_stream=weight_stream * self.num_layers + self.head_seconds,
            attention=attention * self.num_layers,
            communication=comm,
            overhead=core_sync * self.num_layers,
        )


class AdorDeviceModel(DeviceModel):
    """:class:`DeviceModel` facade over the HDA scheduler.

    A prefill chunk or a decode step is one call into the scheduler's
    compiled kernel for its stage and operating point.
    ``compiled=False`` forces the per-operator reference evaluation the
    kernels are held bit-identical to.
    """

    def __init__(self, chip: ChipSpec, use_mac_tree: bool = True,
                 config: SchedulerConfig | None = None,
                 compiled: bool = True) -> None:
        super().__init__(chip)
        self.scheduler = HdaScheduler(chip, use_mac_tree=use_mac_tree,
                                      config=config, compiled=compiled)

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        return self.scheduler.prefill_time(model, batch, seq_len, num_devices)

    def decode_step_time(self, model: ModelConfig, batch: int, context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        return self.scheduler.decode_step_time(model, batch, context_len,
                                               num_devices)


def device_model_for(chip: ChipSpec, **kwargs) -> DeviceModel:
    """Performance model for any chip kind (HDA or baseline)."""
    if chip.kind == ChipKind.ADOR_HDA:
        return AdorDeviceModel(chip, **kwargs)
    return baseline_for(chip)
