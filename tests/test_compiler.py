"""Unit tests for the compiler stack (Fig. 14a)."""

import pytest

from repro.compiler.binary import build_model_binary
from repro.compiler.generator import CompiledProgram, InstructionGenerator
from repro.compiler.instructions import Instruction, Opcode, TargetUnit
from repro.hardware.presets import ador_table3
from repro.models.graph import decode_operators
from repro.models.layers import Phase
from repro.models.zoo import get_model


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


@pytest.fixture
def generator():
    return InstructionGenerator(ador_table3())


class TestInstructions:
    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.GEMM, TargetUnit.SYSTOLIC_ARRAY, "x", flops=-1)

    def test_str_mentions_opcode(self):
        inst = Instruction(Opcode.GEMV, TargetUnit.MAC_TREE, "qkv",
                           flops=1e9, bytes_moved=1e6)
        assert "GEMV" in str(inst)

    def test_per_unit_flops_aggregates(self, llama3):
        program = CompiledProgram(
            instructions=(
                Instruction(Opcode.GEMM, TargetUnit.SYSTOLIC_ARRAY, "a",
                            flops=10),
                Instruction(Opcode.GEMM, TargetUnit.SYSTOLIC_ARRAY, "b",
                            flops=5),
                Instruction(Opcode.VOP, TargetUnit.VECTOR_UNIT, "c",
                            flops=1),
            ),
            binary=build_model_binary(llama3, ador_table3()))
        assert program.per_unit_flops() == {
            TargetUnit.SYSTOLIC_ARRAY: 15, TargetUnit.VECTOR_UNIT: 1}


class TestModelBinary:
    def test_total_bytes_match_params(self, llama3):
        binary = build_model_binary(llama3, ador_table3())
        assert binary.total_bytes == pytest.approx(llama3.param_bytes, rel=0.01)

    def test_validates_against_chip(self, llama3):
        binary = build_model_binary(llama3, ador_table3())
        binary.validate_against(ador_table3())  # must not raise

    def test_oversized_model_rejected(self):
        llama70 = get_model("llama3-70b")
        binary = build_model_binary(llama70, ador_table3())
        with pytest.raises(ValueError, match="exceed"):
            binary.validate_against(ador_table3())

    def test_regions_spread_across_modules(self, llama3):
        binary = build_model_binary(llama3, ador_table3())
        modules = {r.dram_module for r in binary.regions}
        assert len(modules) == ador_table3().dram.modules


class TestInstructionGenerator:
    def test_decode_routes_gemms_to_mac_tree(self, generator, llama3):
        program = generator.compile(llama3, Phase.DECODE, 8, 1, 512)
        gemvs = [i for i in program.instructions if i.opcode == Opcode.GEMV]
        assert gemvs
        assert all(i.target == TargetUnit.MAC_TREE for i in gemvs)

    def test_prefill_routes_gemms_to_systolic(self, generator, llama3):
        program = generator.compile(llama3, Phase.PREFILL, 1, 512, 512)
        gemms = [i for i in program.instructions if i.opcode == Opcode.GEMM]
        assert gemms
        assert all(i.target == TargetUnit.SYSTOLIC_ARRAY for i in gemms)

    def test_flops_conserved_vs_operators(self, generator, llama3):
        """Compiled GEMM+ATTN flops match the operator list's."""
        program = generator.compile(llama3, Phase.DECODE, 8, 1, 512)
        compiled = sum(i.flops for i in program.instructions
                       if i.opcode in (Opcode.GEMV, Opcode.GEMM, Opcode.ATTN))
        operator_flops = sum(
            op.flops for op in decode_operators(llama3, 8, 512)
            if op.kind.value in ("gemm", "attention"))
        assert compiled == pytest.approx(operator_flops, rel=0.02)

    def test_sync_points_twice_per_layer(self, generator, llama3):
        program = generator.compile(llama3, Phase.DECODE, 8, 1, 512)
        syncs = [i for i in program.instructions if i.opcode == Opcode.SYNC]
        assert len(syncs) == 2 * llama3.num_layers

    def test_barriers_per_layer(self, generator, llama3):
        program = generator.compile(llama3, Phase.DECODE, 8, 1, 512)
        barriers = [i for i in program.instructions
                    if i.opcode == Opcode.BARRIER]
        assert len(barriers) == llama3.num_layers

    def test_decode_ends_with_lm_head(self, generator, llama3):
        program = generator.compile(llama3, Phase.DECODE, 8, 1, 512)
        assert program.instructions[-1].operand == "lm_head"

    def test_per_unit_flops_report(self, generator, llama3):
        program = generator.compile(llama3, Phase.DECODE, 8, 1, 512)
        per_unit = program.per_unit_flops()
        assert per_unit[TargetUnit.MAC_TREE] > 0
        assert per_unit[TargetUnit.VECTOR_UNIT] > 0

    def test_rejects_zero_batch(self, generator, llama3):
        with pytest.raises(ValueError):
            generator.compile(llama3, Phase.DECODE, 0, 1, 512)
