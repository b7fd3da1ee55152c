"""Instruction set of the ADOR simulator.

The compiler emits a linear instruction stream for one device; the serving
simulator's task manager walks it to attribute time to compute units.
Instructions are deliberately coarse (one per operator, not per tile) —
the timing models already integrate over tiles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Opcode(enum.Enum):
    """Executable operation classes."""

    LOAD = "load"          # DMA weights/KV from DRAM
    GEMM = "gemm"          # dense matrix multiply
    GEMV = "gemv"          # weight-streamed matrix-vector(s)
    ATTN = "attn"          # fused score+softmax+context
    VOP = "vop"            # vector op (norm/activation/residual)
    SYNC = "sync"          # on-chip all-gather between cores
    BARRIER = "barrier"    # layer boundary


class TargetUnit(enum.Enum):
    """Compute unit an instruction is scheduled on (Fig. 8 mapping)."""

    SYSTOLIC_ARRAY = "sa"
    MAC_TREE = "mt"
    VECTOR_UNIT = "vu"
    DMA = "dma"
    NOC = "noc"


@dataclass(frozen=True)
class Instruction:
    """One schedulable instruction.

    ``flops`` and ``bytes_moved`` carry the work quantities the simulator
    charges; ``operand`` names the tensor for debugging/reporting.
    """

    opcode: Opcode
    target: TargetUnit
    operand: str
    flops: float = 0.0
    bytes_moved: float = 0.0
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ValueError("work quantities must be non-negative")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{self.opcode.value.upper():7s}", f"@{self.target.value:3s}",
                 self.operand]
        if self.flops:
            parts.append(f"{self.flops / 1e9:.2f} GFLOP")
        if self.bytes_moved:
            parts.append(f"{self.bytes_moved / 1e6:.2f} MB")
        return " ".join(parts)
