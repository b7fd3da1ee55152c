"""Model binary: the memory-mapped weight layout (paper Fig. 14a).

The model mapper assigns each layer's weight slices to DRAM modules so
that, under the latency dataflow, "each core fetches data from the
nearest DRAM module" (Section IV-C).  The binary records region offsets
per DRAM module; the simulator uses it for capacity checks and the
tests assert its invariants (no overlap, full coverage).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import ChipSpec
from repro.models.config import ModelConfig


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous weight region in the device's DRAM."""

    name: str
    dram_module: int
    offset: int
    size: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size < 0:
            raise ValueError("offset and size must be non-negative")

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True)
class ModelBinary:
    """Weight layout of one model on one device."""

    regions: tuple

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.regions)

    def validate_against(self, chip: ChipSpec) -> None:
        """Raise if the layout exceeds DRAM or regions overlap."""
        regions = sorted(self.regions,
                         key=lambda r: (r.dram_module, r.offset))
        per_module: dict[int, int] = {}
        for region in regions:
            cursor = per_module.get(region.dram_module, 0)
            if region.offset < cursor:
                raise ValueError(
                    f"{region.name}: overlaps previous region in module "
                    f"{region.dram_module}")
            per_module[region.dram_module] = region.end
        used = self.total_bytes
        if used > chip.dram.size_bytes:
            raise ValueError(
                f"weights ({used / 2**30:.1f} GiB) exceed "
                f"DRAM ({chip.dram.size_bytes / 2**30:.1f} GiB)")


def build_model_binary(model: ModelConfig, chip: ChipSpec) -> ModelBinary:
    """Lay a model out over one device's DRAM modules.

    Layer weights round-robin across DRAM modules so that concurrent
    streams load-balance the memory system; embeddings and the LM head
    land on the last module.
    """
    modules = chip.dram.modules
    regions: list[MemoryRegion] = []
    d = model.dtype_bytes
    cursors = [0] * modules

    def place(name: str, size: int, module: int) -> None:
        regions.append(MemoryRegion(
            name=name, dram_module=module,
            offset=cursors[module], size=size))
        cursors[module] += size

    for layer in range(model.num_layers):
        module = layer % modules
        place(f"layer{layer}.attn", model.attention_params_per_layer * d,
              module)
        place(f"layer{layer}.mlp", model.mlp_params_per_layer * d, module)
    place("embeddings", model.embedding_params * d, modules - 1)
    return ModelBinary(regions=tuple(regions))
