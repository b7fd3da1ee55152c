"""Instruction generator: a model's operators -> one device's instruction stream.

Implements the Fig. 14(a) pipeline on one device: every operator lowers
to instructions targeted at the compute unit the Fig. 8 schedule assigns
it — GEMMs to the systolic array in prefill and to the MAC tree (weight
stream) in decode, attention to the MAC tree in decode, vector work to
the vector units, with SYNC instructions at dataflow boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.binary import ModelBinary, build_model_binary
from repro.compiler.instructions import Instruction, Opcode, TargetUnit
from repro.hardware.chip import ChipSpec
from repro.models.config import ModelConfig
from repro.models.layers import (
    Operator,
    OperatorKind,
    Phase,
    decoder_layer_operators,
    lm_head_operator,
)


@dataclass(frozen=True)
class CompiledProgram:
    """Everything the simulator needs to run one stage of one model."""

    instructions: tuple
    binary: ModelBinary

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)

    def per_unit_flops(self) -> dict[TargetUnit, float]:
        out: dict[TargetUnit, float] = {}
        for inst in self.instructions:
            out[inst.target] = out.get(inst.target, 0.0) + inst.flops
        return out


class InstructionGenerator:
    """Lowers a model's operators, layer by layer, for one chip."""

    def __init__(self, chip: ChipSpec) -> None:
        self.chip = chip

    def _lower_operator(self, op: Operator,
                        phase: Phase) -> list[Instruction]:
        shape = {"m": op.m, "k": op.k, "n": op.n, "batch": op.batch,
                 "heads": op.heads, "group": op.group_size,
                 "context": op.context_len}
        if op.kind == OperatorKind.GEMM:
            if phase == Phase.PREFILL:
                # weights prefetched, GEMM on the systolic array
                return [
                    Instruction(Opcode.LOAD, TargetUnit.DMA, f"{op.name}.w",
                                bytes_moved=op.weight_bytes,
                                meta=shape),
                    Instruction(Opcode.GEMM, TargetUnit.SYSTOLIC_ARRAY, op.name,
                                flops=op.flops, meta=shape),
                ]
            # decode: the MAC tree consumes the weight stream directly
            return [
                Instruction(Opcode.GEMV, TargetUnit.MAC_TREE, op.name,
                            flops=op.flops,
                            bytes_moved=op.weight_bytes, meta=shape),
            ]
        if op.kind == OperatorKind.ATTENTION:
            if phase == Phase.PREFILL:
                # current-chunk KV lives in global memory; SA computes
                return [
                    Instruction(Opcode.ATTN, TargetUnit.SYSTOLIC_ARRAY,
                                "attention", flops=op.flops,
                                meta=shape),
                    Instruction(Opcode.VOP, TargetUnit.VECTOR_UNIT, "softmax",
                                flops=op.m * op.context_len * 4.0,
                                meta=shape),
                ]
            return [
                Instruction(Opcode.ATTN, TargetUnit.MAC_TREE, "attention",
                            flops=op.flops,
                            bytes_moved=op.io_bytes, meta=shape),
                Instruction(Opcode.VOP, TargetUnit.VECTOR_UNIT, "softmax",
                            flops=op.m * op.context_len * 4.0,
                            meta=shape),
            ]
        return [
            Instruction(Opcode.VOP, TargetUnit.VECTOR_UNIT, op.name,
                        flops=op.flops, meta=shape),
        ]

    def compile(self, model: ModelConfig, phase: Phase, batch: int,
                query_len: int, context_len: int) -> CompiledProgram:
        """Emit one device's instruction stream for one stage."""
        if batch < 1 or query_len < 1:
            raise ValueError("batch and query_len must be >= 1")
        instructions: list[Instruction] = []
        rows = batch * query_len
        sync_bytes = rows * model.hidden_size * model.dtype_bytes

        for layer in range(model.num_layers):
            ops = decoder_layer_operators(model, batch, query_len,
                                          context_len)
            for op in ops:
                instructions.extend(self._lower_operator(op, phase))
                if op.name in ("out_proj", "mlp_down", "mlp_fc2"):
                    # multi-core all-gather at the latency dataflow's
                    # synchronization points (Fig. 6b)
                    instructions.append(Instruction(
                        Opcode.SYNC, TargetUnit.NOC, f"{op.name}.gather",
                        bytes_moved=sync_bytes
                        * (self.chip.cores - 1) / self.chip.cores))
            instructions.append(Instruction(
                Opcode.BARRIER, TargetUnit.NOC, f"layer{layer}.end"))

        if phase == Phase.DECODE:
            head = lm_head_operator(model, batch)
            instructions.extend(self._lower_operator(head, phase))

        binary = build_model_binary(model, self.chip)
        return CompiledProgram(
            instructions=tuple(instructions),
            binary=binary,
        )
