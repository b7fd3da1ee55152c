"""Model-parallelism mapper (paper Fig. 7a).

Checks that a model shards across devices and picks its synchronization
method.  Sharding is tensor-parallel along heads (attention) and the
intermediate dimension (MLP), with the synchronization method chosen
per the paper's rule: Megatron at 2 devices, all-gather at 4+
(Section V-C).
"""

from __future__ import annotations

from repro.models.config import ModelConfig
from repro.parallel.collectives import SyncMethod


class ModelParallelMapper:
    """Tensor-parallel checks and the sync-method rule for one model."""

    def __init__(self, model: ModelConfig) -> None:
        self.model = model

    def choose_sync_method(self, devices: int) -> SyncMethod:
        """The paper's rule: Megatron <= 2 devices, all-gather beyond."""
        if devices <= 2:
            return SyncMethod.MEGATRON
        return SyncMethod.ALL_GATHER

    def validate(self, devices: int) -> None:
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if self.model.num_heads % devices != 0:
            raise ValueError(
                f"{self.model.name}: {self.model.num_heads} heads do not "
                f"shard evenly over {devices} devices"
            )
