"""Whole-chip specification: the unit the DSE searches over.

A :class:`ChipSpec` is the ADOR architecture template of Fig. 6(a)
instantiated with concrete numbers: ``cores`` identical cores, each with
an optional systolic array, MAC tree, vector unit and local memory, plus
shared global memory, a ring NoC, DRAM and P2P links.

Fixed-function devices the paper compares against (A100, TPUv4, TSP) are
also expressed as ``ChipSpec`` instances with a ``kind`` tag so the
performance layer dispatches to the appropriate baseline model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.hardware.components import MacTree, SystolicArray, VectorUnit
from repro.hardware.interconnect import NocSpec, P2pSpec
from repro.hardware.memory import Dram, Sram
from repro.hardware.technology import ProcessNode


class ChipKind(enum.Enum):
    """Performance-model dispatch tag."""

    ADOR_HDA = "ador"          # heterogeneous dataflow template (SA + MT + VU)
    SYSTOLIC_NPU = "npu"       # SA-only NPU (TPU, LLMCompass designs)
    GPU = "gpu"                # SMT GPU baseline (A100/H100)
    STREAMING_SRAM = "tsp"     # all-weights-on-chip streaming (Groq TSP)


@dataclass(frozen=True)
class ChipSpec:
    """One device of a (possibly multi-device) serving system."""

    name: str
    kind: ChipKind
    frequency_hz: float
    cores: int
    systolic_array: SystolicArray | None
    mac_tree: MacTree | None
    vector_unit: VectorUnit | None
    local_memory: Sram
    global_memory: Sram
    dram: Dram
    noc: NocSpec
    p2p: P2pSpec
    process: ProcessNode
    # Published specs for real silicon; ``None`` means "derive from model".
    die_area_mm2: float | None = None
    peak_flops_override: float | None = None
    tdp_w: float | None = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a chip needs at least one core")
        if not (self.frequency_hz > 0 and math.isfinite(self.frequency_hz)):
            # NaN fails the first test, +inf (JSON null) the second
            raise ValueError(f"frequency must be positive and finite; "
                             f"got {self.frequency_hz!r}")
        if self.kind == ChipKind.ADOR_HDA and self.systolic_array is None \
                and self.mac_tree is None:
            raise ValueError("an HDA chip needs at least one compute unit type")

    # ------------------------------------------------------------------ #
    # Aggregate compute                                                   #
    # ------------------------------------------------------------------ #

    @property
    def sa_macs(self) -> int:
        """Systolic-array MACs across all cores."""
        if self.systolic_array is None:
            return 0
        return self.cores * self.systolic_array.macs

    @property
    def mt_macs(self) -> int:
        """MAC-tree MACs across all cores."""
        if self.mac_tree is None:
            return 0
        return self.cores * self.mac_tree.macs

    @property
    def sa_peak_flops(self) -> float:
        return 2.0 * self.sa_macs * self.frequency_hz

    @property
    def mt_peak_flops(self) -> float:
        return 2.0 * self.mt_macs * self.frequency_hz

    @property
    def peak_flops(self) -> float:
        """Peak dense FLOPS; real devices use their published number."""
        if self.peak_flops_override is not None:
            return self.peak_flops_override
        return self.sa_peak_flops + self.mt_peak_flops

    # ------------------------------------------------------------------ #
    # Aggregate memory                                                    #
    # ------------------------------------------------------------------ #

    @property
    def total_local_memory_bytes(self) -> float:
        return self.cores * self.local_memory.size_bytes

    @property
    def total_sram_bytes(self) -> float:
        return self.total_local_memory_bytes + self.global_memory.size_bytes

    @property
    def memory_bandwidth(self) -> float:
        return self.dram.bandwidth_bytes_per_s

    def with_updates(self, **changes) -> "ChipSpec":
        """Functional update helper used by the DSE loop."""
        return replace(self, **changes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        units = []
        if self.systolic_array:
            units.append(str(self.systolic_array))
        if self.mac_tree:
            units.append(str(self.mac_tree))
        inner = ", ".join(units) if units else self.kind.value
        return (
            f"{self.name}: {self.cores} cores [{inner}], "
            f"{self.peak_flops / 1e12:.0f} TFLOPS, {self.dram}"
        )
