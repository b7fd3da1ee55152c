"""Sensitivity analysis around a proposed design point.

A DSE framework should not just emit a point — it should say which knobs
the outcome is sensitive to.  This module perturbs one template knob at
a time around a reference chip (memory bandwidth, core count, systolic
geometry, MAC-tree lanes, NoC and P2P bandwidth) and reports the
relative change in the QoS metrics and in die area, i.e. a discrete
local gradient of the design space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduling import AdorDeviceModel
from repro.hardware.area import AreaModel
from repro.hardware.chip import ChipSpec
from repro.hardware.components import MacTree, SystolicArray
from repro.hardware.interconnect import NocSpec, P2pSpec
from repro.hardware.memory import Dram
from repro.models.config import ModelConfig


@dataclass(frozen=True)
class SensitivityRow:
    """Effect of one knob perturbation."""

    knob: str
    direction: str
    ttft_change: float   # relative: +0.1 == 10 % slower
    tbt_change: float
    area_change: float

    def as_list(self) -> list:
        return [self.knob, self.direction, 100 * self.ttft_change,
                100 * self.tbt_change, 100 * self.area_change]


def _variants(chip: ChipSpec) -> list[tuple[str, str, ChipSpec]]:
    """One-knob perturbations around ``chip``."""
    dram = chip.dram
    sa = chip.systolic_array
    mt = chip.mac_tree
    variants: list[tuple[str, str, ChipSpec]] = []

    def add(knob: str, direction: str, **updates) -> None:
        variants.append((knob, direction, chip.with_updates(**updates)))

    add("memory bandwidth", "x0.5", dram=Dram(
        dram.kind, dram.size_bytes, dram.bandwidth_bytes_per_s * 0.5,
        dram.modules))
    add("memory bandwidth", "x2", dram=Dram(
        dram.kind, dram.size_bytes, dram.bandwidth_bytes_per_s * 2.0,
        dram.modules))
    add("cores", "x0.5", cores=max(1, chip.cores // 2))
    add("cores", "x2", cores=chip.cores * 2)
    if sa is not None and sa.rows >= 64:
        add("systolic array", "halve side",
            systolic_array=SystolicArray(sa.rows // 2, sa.cols // 2,
                                         sa.lanes))
    if sa is not None:
        add("systolic array", "double side",
            systolic_array=SystolicArray(sa.rows * 2, sa.cols * 2, sa.lanes))
    if mt is not None and mt.lanes >= 2:
        add("MAC-tree lanes", "x0.5",
            mac_tree=MacTree(mt.tree_size, mt.lanes // 2))
    if mt is not None:
        add("MAC-tree lanes", "x2",
            mac_tree=MacTree(mt.tree_size, mt.lanes * 2))
    add("NoC bandwidth", "x0.5",
        noc=NocSpec(chip.noc.bandwidth_bytes_per_s * 0.5,
                    chip.noc.topology, chip.noc.hop_latency_s))
    add("P2P bandwidth", "x0.5",
        p2p=P2pSpec(chip.p2p.bandwidth_bytes_per_s * 0.5,
                    chip.p2p.latency_s))
    return variants


def sensitivity_table(
    chip: ChipSpec,
    model: ModelConfig,
    batch: int = 128,
    seq_len: int = 1024,
) -> list[SensitivityRow]:
    """Relative TTFT / TBT / area response to each knob perturbation, on
    one device."""
    area_model = AreaModel()
    base_device = AdorDeviceModel(chip)
    base_ttft = base_device.prefill_time(model, 1, seq_len).seconds
    base_tbt = base_device.decode_step_time(model, batch, seq_len).seconds
    base_area = area_model.die_area_mm2(chip)

    rows = []
    for knob, direction, variant in _variants(chip):
        device = AdorDeviceModel(variant)
        ttft = device.prefill_time(model, 1, seq_len).seconds
        tbt = device.decode_step_time(model, batch, seq_len).seconds
        area = area_model.die_area_mm2(variant)
        rows.append(SensitivityRow(
            knob=knob,
            direction=direction,
            ttft_change=ttft / base_ttft - 1.0,
            tbt_change=tbt / base_tbt - 1.0,
            area_change=area / base_area - 1.0,
        ))
    return rows


def most_sensitive_knob(rows: list[SensitivityRow],
                        metric: str = "tbt") -> str:
    """Knob with the largest absolute response on the chosen metric."""
    if not rows:
        raise ValueError("no sensitivity rows")
    attribute = {"ttft": "ttft_change", "tbt": "tbt_change",
                 "area": "area_change"}[metric]
    worst = max(rows, key=lambda r: abs(getattr(r, attribute)))
    return worst.knob
