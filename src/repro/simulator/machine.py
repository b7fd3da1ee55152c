"""Resource-timeline execution of compiled instruction streams.

The machine owns one timeline per hardware unit.  Instructions execute
in program order along a logical dependency chain (operators within a
layer are data-dependent), with two sanctioned overlaps:

* **weight prefetch** — a ``LOAD`` may start up to one operator ahead of
  its consumer (double buffering, Fig. 6c), contending for DRAM with any
  MAC-tree streams;
* **synchronization** — ``SYNC`` wire time overlaps the preceding
  compute according to the dataflow's overlappable fraction (Fig. 6d).

Durations come from the same primitives as the analytical scheduler
(effective-bandwidth curve, systolic estimates, vector rates) so
disagreements between the two paths indicate scheduling effects, not
calibration differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.generator import CompiledProgram
from repro.compiler.instructions import Instruction, Opcode, TargetUnit
from repro.hardware.chip import ChipKind, ChipSpec
from repro.perf.effective_bandwidth import MT_BANDWIDTH_CURVE
from repro.perf.systolic import SystolicTimingModel


@dataclass
class UnitTimeline:
    """Busy-time bookkeeping for one hardware unit."""

    free_at: float = 0.0
    busy: float = 0.0

    def reserve(self, earliest_start: float, duration: float) -> float:
        """Occupy the unit; returns the completion time."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(self.free_at, earliest_start)
        self.free_at = start + duration
        self.busy += duration
        return self.free_at


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of executing one compiled program."""

    seconds: float
    instruction_count: int
    unit_busy: dict = field(default_factory=dict)

    def utilization(self, unit: TargetUnit) -> float:
        """Busy fraction of one unit over the program's makespan."""
        if self.seconds <= 0:
            return 0.0
        return min(1.0, self.unit_busy.get(unit.value, 0.0) / self.seconds)


class InstructionLevelSimulator:
    """Executes :class:`CompiledProgram` streams on an HDA chip."""

    #: fraction of SYNC wire time hidden behind compute
    SYNC_OVERLAP = 0.90
    #: achieved fraction of peak on systolic-array work and on the MAC
    #: tree's weight-streamed GEMMs
    SA_EFFICIENCY = 0.92
    MT_GEMM_EFFICIENCY = 0.90

    def __init__(self, chip: ChipSpec) -> None:
        if chip.kind != ChipKind.ADOR_HDA:
            raise ValueError("the instruction simulator models HDA chips")
        if chip.systolic_array is None:
            raise ValueError("an HDA chip needs a systolic array")
        self.chip = chip
        self.systolic = SystolicTimingModel(
            array=chip.systolic_array,
            cores=chip.cores,
            frequency_hz=chip.frequency_hz,
        )

    # ------------------------------------------------------------------ #
    # Per-instruction durations                                           #
    # ------------------------------------------------------------------ #

    def _stream_seconds(self, bytes_moved: float, program_flops: float) -> float:
        eff = MT_BANDWIDTH_CURVE.effective_bandwidth(
            self.chip.memory_bandwidth, program_flops)
        return bytes_moved / eff

    def _duration(self, inst: Instruction, program_flops: float) -> float:
        if inst.opcode in (Opcode.GEMV, Opcode.ATTN) \
                and inst.target == TargetUnit.MAC_TREE:
            stream = self._stream_seconds(inst.bytes_moved, program_flops)
            mt_rate = 2.0 * self.chip.mt_macs * self.chip.frequency_hz \
                * self.MT_GEMM_EFFICIENCY
            if inst.opcode == Opcode.GEMV:
                # Fig. 8: at batch, the systolic array assists weight-
                # streamed GEMMs while the MAC tree owns the DRAM stream
                rate = mt_rate + self.systolic.peak_flops * self.SA_EFFICIENCY
            else:
                rate = mt_rate
            compute = inst.flops / rate if rate else float("inf")
            return max(stream, compute)
        if inst.target == TargetUnit.SYSTOLIC_ARRAY:
            m = int(inst.meta.get("m", 1))
            k = int(inst.meta.get("k", 1))
            n = int(inst.meta.get("n", 1))
            if inst.opcode == Opcode.ATTN:
                # score+context against resident KV; flops already carry
                # the causal factor, so derive seconds from the estimate's
                # achieved rate
                est = self.systolic.gemm(
                    max(1, m), max(1, k), max(1, 2 * inst.meta.get("context", n)),
                    self.chip.memory_bandwidth, weights_resident=True)
                rate = self.systolic.peak_flops * est.utilization \
                    * self.SA_EFFICIENCY
            else:
                est = self.systolic.gemm(m, k, n, self.chip.memory_bandwidth,
                                         double_buffered=True,
                                         weights_resident=True)
                rate = self.systolic.peak_flops * est.utilization \
                    * self.SA_EFFICIENCY
            return inst.flops / rate if rate > 0 else 0.0
        if inst.target == TargetUnit.VECTOR_UNIT:
            if self.chip.vector_unit is None:
                return 0.0
            rate = self.chip.vector_unit.width * self.chip.cores \
                * self.chip.frequency_hz
            return 2e-7 + inst.flops / rate
        if inst.target == TargetUnit.DMA:
            return self._stream_seconds(inst.bytes_moved, program_flops)
        if inst.target == TargetUnit.NOC:
            return inst.bytes_moved / self.chip.noc.bandwidth_bytes_per_s
        return 0.0

    # ------------------------------------------------------------------ #
    # Program execution                                                   #
    # ------------------------------------------------------------------ #

    def run(self, program: CompiledProgram) -> ExecutionReport:
        """Execute the stream; returns makespan and per-unit busy time."""
        timelines = {unit: UnitTimeline() for unit in TargetUnit}
        program_flops = sum(i.flops for i in program.instructions)
        chain = 0.0  # completion time of the dependency chain
        pending_load_done = 0.0

        for inst in program.instructions:
            duration = self._duration(inst, program_flops)
            timeline = timelines[inst.target]
            if inst.opcode == Opcode.BARRIER:
                chain = max(chain, pending_load_done)
                continue
            if inst.opcode == Opcode.LOAD:
                # prefetch: may run ahead of the chain (double buffering),
                # serialized only on the DMA/DRAM resource
                done = timeline.reserve(0.0, duration)
                pending_load_done = max(pending_load_done, done)
                continue
            if inst.opcode == Opcode.SYNC:
                exposed = duration * (1.0 - self.SYNC_OVERLAP)
                done = timeline.reserve(chain, exposed)
                chain = done
                continue
            # compute instructions join the dependency chain; systolic
            # GEMMs additionally wait for their prefetched weights
            earliest = chain
            if inst.target == TargetUnit.SYSTOLIC_ARRAY \
                    and inst.opcode == Opcode.GEMM:
                earliest = max(earliest, pending_load_done)
            done = timeline.reserve(earliest, duration)
            chain = done

        makespan = max(chain, *(t.free_at for t in timelines.values()))
        return ExecutionReport(
            seconds=makespan,
            instruction_count=program.instruction_count,
            unit_busy={unit.value: timelines[unit].busy
                       for unit in TargetUnit},
        )
