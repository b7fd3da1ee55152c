"""Memory specifications: off-chip DRAM and on-chip SRAM pools.

ADOR's template splits on-chip SRAM into per-core *local* memory (holds
activations so DRAM bandwidth is spent only on weights/KV) and shared
*global* memory (holds freshly produced KV pairs so the systolic array
can work without touching DRAM during decode) — paper Section IV-B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.spec_codec import ANY_VALUE

GIB = 1024 ** 3
MIB = 1024 ** 2
KIB = 1024


class DramKind(enum.Enum):
    """Off-chip memory families appearing in Table I."""

    HBM2 = "HBM2"
    HBM2E = "HBM2e"
    HBM3 = "HBM3"
    HBM3E = "HBM3e"
    LPDDR = "LPDDR"
    ON_CHIP_SRAM = "SRAM"  # Groq TSP stores all weights on chip


@dataclass(frozen=True)
class Dram:
    """Off-chip memory system of one device."""

    kind: DramKind
    size_bytes: float
    bandwidth_bytes_per_s: float
    modules: int = 8  # stacks / channel groups, for DMA and NoC layout

    def __post_init__(self) -> None:
        if self.size_bytes < 0 or self.bandwidth_bytes_per_s <= 0:
            raise ValueError("DRAM size must be >= 0 and bandwidth > 0")
        if self.modules < 1:
            raise ValueError("DRAM must expose at least one module")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.kind.value} {self.size_bytes / GIB:.0f} GiB @ "
            f"{self.bandwidth_bytes_per_s / 1e12:.2f} TB/s"
        )


@dataclass(frozen=True)
class Sram:
    """An on-chip SRAM pool (local-per-core or global-shared).

    Chip JSON written before ``bandwidth_bytes_per_s`` was removed
    still loads: the codec drops that key.
    """

    size_bytes: float

    _RETIRED_KEYS = {"bandwidth_bytes_per_s": ANY_VALUE}

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("SRAM size must be >= 0")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.size_bytes >= MIB:
            return f"SRAM {self.size_bytes / MIB:.0f} MiB"
        return f"SRAM {self.size_bytes / KIB:.0f} KiB"
