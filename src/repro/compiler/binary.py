"""Model binary: the memory-mapped weight layout (paper Fig. 14a).

The model mapper assigns each layer's weight slices to DRAM modules so
that, under the latency dataflow, "each core fetches data from the
nearest DRAM module" (Section IV-C).  The binary records region offsets
per device and per DRAM module; the simulator uses it for capacity
checks and the tests assert its invariants (no overlap, full coverage).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import ChipSpec
from repro.models.config import ModelConfig
from repro.parallel.mapper import ModelParallelMapper


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous weight region in one device's DRAM."""

    name: str
    device: int
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
    """Weight layout of one model across one or more devices."""

    num_devices: int
    regions: tuple

    def device_regions(self, device: int) -> list[MemoryRegion]:
        return [r for r in self.regions if r.device == device]

    def device_bytes(self, device: int) -> int:
        return sum(r.size for r in self.device_regions(device))

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.regions)

    def validate_against(self, chip: ChipSpec) -> None:
        """Raise if any device's layout exceeds DRAM or regions overlap."""
        for device in range(self.num_devices):
            regions = sorted(self.device_regions(device),
                             key=lambda r: (r.dram_module, r.offset))
            per_module: dict[int, int] = {}
            for region in regions:
                cursor = per_module.get(region.dram_module, 0)
                if region.offset < cursor:
                    raise ValueError(
                        f"{region.name}: overlaps previous region in module "
                        f"{region.dram_module}")
                per_module[region.dram_module] = region.end
            used = self.device_bytes(device)
            if used > chip.dram.size_bytes:
                raise ValueError(
                    f"device {device}: weights ({used / 2**30:.1f} GiB) exceed "
                    f"DRAM ({chip.dram.size_bytes / 2**30:.1f} GiB)")


def build_model_binary(model: ModelConfig, chip: ChipSpec,
                       num_devices: int = 1) -> ModelBinary:
    """Lay a TP-sharded model out over each device's DRAM modules.

    Layer weights round-robin across DRAM modules so that concurrent
    streams load-balance the memory system; embeddings and the LM head
    land on the last module.
    """
    ModelParallelMapper(model).validate(num_devices)
    modules = chip.dram.modules
    regions: list[MemoryRegion] = []
    d = model.dtype_bytes
    for device in range(num_devices):
        cursors = [0] * modules

        def place(name: str, size: int, module: int) -> None:
            regions.append(MemoryRegion(
                name=name, device=device, dram_module=module,
                offset=cursors[module], size=size))
            cursors[module] += size

        for layer in range(model.num_layers):
            module = layer % modules
            attn_bytes = model.attention_params_per_layer * d // num_devices
            mlp_bytes = model.mlp_params_per_layer * d // num_devices
            place(f"layer{layer}.attn", attn_bytes, module)
            place(f"layer{layer}.mlp", mlp_bytes, module)
        embed_bytes = model.embedding_params * d // num_devices
        place("embeddings", embed_bytes, modules - 1)
    return ModelBinary(
        num_devices=num_devices,
        regions=tuple(regions),
    )
