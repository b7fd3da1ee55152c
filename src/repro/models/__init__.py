"""Model zoo and workload characterization for LLM serving.

This package describes *what* has to be computed: transformer model
architectures (:mod:`repro.models.config`, :mod:`repro.models.zoo`),
the per-layer operator shapes they induce in the prefill and decoding
stages and the whole-model decode operator list in execution order
(:mod:`repro.models.layers`, :mod:`repro.models.graph`), the
key-value cache byte math that drives the paper's memory-bandwidth
analysis (:mod:`repro.models.kv_cache`), and the local-memory footprint
simulator used to size on-chip SRAM (:mod:`repro.models.footprint`).
"""

from repro.models.config import AttentionKind, ModelConfig
from repro.models.zoo import get_model, list_models, register_model
from repro.models.layers import Operator, OperatorKind, Phase
from repro.models.graph import decode_operators, operation_share
from repro.models.kv_cache import (
    kv_bytes_per_token,
    kv_cache_bytes,
    kv_fraction_of_traffic,
)
from repro.models.footprint import LocalMemoryReport, peak_local_memory

__all__ = [
    "AttentionKind",
    "ModelConfig",
    "get_model",
    "list_models",
    "register_model",
    "Operator",
    "OperatorKind",
    "Phase",
    "decode_operators",
    "operation_share",
    "kv_bytes_per_token",
    "kv_cache_bytes",
    "kv_fraction_of_traffic",
    "LocalMemoryReport",
    "peak_local_memory",
]
