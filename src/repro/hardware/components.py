"""Compute-unit descriptors: systolic array, MAC tree, vector unit.

These are *specifications*, not simulators — timing lives in
:mod:`repro.perf`.  Each descriptor exposes its MAC count and peak FLOPS
so allocation (paper Section V-A) and area estimation can reason about
them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec_codec import ANY_VALUE


@dataclass(frozen=True)
class SystolicArray:
    """A weight-stationary systolic array (paper Fig. 5a).

    ``lanes`` replicates the array within a core — the LLMCompass-style
    designs in Table III use 4 lanes of small arrays where ADOR uses one
    lane of a large array.
    """

    rows: int
    cols: int
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.lanes < 1:
            raise ValueError("systolic array dimensions must be >= 1")

    @property
    def macs(self) -> int:
        """MAC units in all lanes of one core's array."""
        return self.rows * self.cols * self.lanes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lanes = f" x{self.lanes} lanes" if self.lanes > 1 else ""
        return f"SA {self.rows}x{self.cols}{lanes}"


@dataclass(frozen=True)
class MacTree:
    """A multiplier + adder-tree dot-product engine (paper Fig. 5b).

    ``tree_size`` is the dot-product width per cycle (multipliers feeding
    one adder tree); ``lanes`` is the number of parallel trees sharing the
    streamed weight/KV operand.  Lanes matter for GQA/MQA attention, where
    one KV stream feeds several query heads (Fig. 11b).

    The paper's ADOR design is "a MAC tree with a size of 16 ... and 16
    lanes", i.e. ``MacTree(16, 16)``.
    """

    tree_size: int
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.tree_size < 1 or self.lanes < 1:
            raise ValueError("MAC tree dimensions must be >= 1")

    @property
    def macs(self) -> int:
        """MAC units in all lanes of one core's tree."""
        return self.tree_size * self.lanes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"MT {self.tree_size}x{self.lanes}"


@dataclass(frozen=True)
class VectorUnit:
    """A SIMD vector unit for softmax / norms / elementwise ops (Fig. 5c).

    Chip JSON written before ``ops_per_element`` was removed still
    loads: the codec drops that key.
    """

    width: int

    _RETIRED_KEYS = {"ops_per_element": ANY_VALUE}

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("vector width must be >= 1")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"VU {self.width}-wide"
