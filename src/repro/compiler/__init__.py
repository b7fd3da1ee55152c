"""ADOR compiler stack (paper Fig. 14a).

Lowers a model's operators into the two artifacts the simulator
consumes for one device: a *model binary* (memory-mapped weight layout
across DRAM modules) and an *instruction binary* (a stream of LOAD /
GEMM / GEMV / ATTN / VOP / SYNC instructions).
"""

from repro.compiler.instructions import Instruction, Opcode, TargetUnit
from repro.compiler.binary import MemoryRegion, ModelBinary, build_model_binary
from repro.compiler.generator import CompiledProgram, InstructionGenerator

__all__ = [
    "Instruction",
    "Opcode",
    "TargetUnit",
    "MemoryRegion",
    "ModelBinary",
    "build_model_binary",
    "CompiledProgram",
    "InstructionGenerator",
]
