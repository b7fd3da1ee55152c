"""Process-technology nodes and area normalization.

The paper compares dies built on 4 nm (H100), 7 nm (A100, TPUv4) and
14 nm (Groq TSP) processes, normalizing area efficiency to a common node
in Fig. 4(a).  We model each node by its logic transistor density and
scale areas by density ratios — the same first-order normalization the
figure applies (its "normalized value with 4nm process" panel).
"""

from __future__ import annotations

import enum


class ProcessNode(enum.Enum):
    """Named fabrication nodes with logic density in Mtransistors / mm^2.

    Densities are the published peak logic densities for each foundry
    node family (TSMC N4/N5/N7/N12, GF/Samsung 14 nm class).  A member's
    value is its label, so ``ProcessNode("7nm")`` looks a node up and a
    chip's JSON names its node by label.
    """

    NM_4 = ("4nm", 137.6)
    NM_5 = ("5nm", 126.5)
    NM_7 = ("7nm", 91.2)
    NM_12 = ("12nm", 33.8)
    NM_14 = ("14nm", 29.2)

    def __new__(cls, label: str, density_mtr_per_mm2: float) -> ProcessNode:
        node = object.__new__(cls)
        node._value_ = label
        node.label = label
        node.density = density_mtr_per_mm2
        return node

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


def area_scaling_factor(source: ProcessNode, target: ProcessNode) -> float:
    """Multiplier converting an area at ``source`` to the ``target`` node.

    Area scales inversely with transistor density, so the factor is
    ``target.density / source.density`` inverted — e.g. a 14 nm die
    normalized to 4 nm shrinks by 137.6 / 29.2 = 4.712x, the exact factor
    printed next to the TSP bar in the paper's Fig. 4(a).
    """
    return source.density / target.density


def normalize_area(area_mm2: float, source: ProcessNode,
                   target: ProcessNode = ProcessNode.NM_4) -> float:
    """Area re-expressed at ``target`` (default 4 nm, as in Fig. 4a)."""
    if area_mm2 < 0:
        raise ValueError("area must be non-negative")
    return area_mm2 * area_scaling_factor(source, target)
