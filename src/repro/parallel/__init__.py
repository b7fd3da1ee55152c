"""Multi-device parallelism: collectives, TP/PP mapping and overlap.

Implements the paper's Section IV-D and V-C analyses: synchronization
volumes of all-gather / all-reduce / Megatron hybrids (Fig. 7c), tensor-
parallel latency scalability (Fig. 13a), the computation-communication
overlap model that determines minimum P2P bandwidth (Fig. 13b), and the
rule that picks a shard count's synchronization method (Fig. 7a).
"""

from repro.parallel.collectives import (
    SyncMethod,
    all_gather_bytes_per_device,
    choose_sync_method,
    all_reduce_bytes_per_device,
    layer_sync_plan,
)
from repro.parallel.tensor_parallel import (
    TpLatencyModel,
    tp_scalability_curve,
)
from repro.parallel.pipeline_parallel import PipelineParallelModel
from repro.parallel.overlap import OverlapModel, minimum_p2p_bandwidth
from repro.parallel.hybrid import HybridParallelPlanner, HybridPlan

__all__ = [
    "HybridParallelPlanner",
    "HybridPlan",
    "SyncMethod",
    "all_gather_bytes_per_device",
    "all_reduce_bytes_per_device",
    "choose_sync_method",
    "layer_sync_plan",
    "TpLatencyModel",
    "tp_scalability_curve",
    "PipelineParallelModel",
    "OverlapModel",
    "minimum_p2p_bandwidth",
]
