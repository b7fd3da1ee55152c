"""Key-value cache byte accounting.

The KV cache is the paper's central villain: it is per-request state that
batching cannot amortize, and at large batch sizes it dominates DRAM
traffic (Fig. 3a reports >90 % of read bytes at batch 128).  These helpers
compute the quantities behind that figure and the capacity constraints of
the serving simulator.
"""

from __future__ import annotations

from repro.models.config import ModelConfig


def kv_bytes_per_token(config: ModelConfig) -> int:
    """KV-cache bytes appended per generated/prefetched token.

    Two tensors (key and value) per layer, each ``num_kv_heads * head_dim``
    wide — GQA/MQA models shrink this by the group factor, which is exactly
    why Fig. 11(b) shows them tolerating narrow MAC trees.
    """
    return (
        2
        * config.num_layers
        * config.num_kv_heads
        * config.head_dim
        * config.dtype_bytes
    )


def kv_cache_bytes(config: ModelConfig, batch: int, seq_len: int) -> int:
    """Total KV bytes resident for ``batch`` requests at ``seq_len`` context."""
    if batch < 0 or seq_len < 0:
        raise ValueError("batch and seq_len must be non-negative")
    return batch * seq_len * kv_bytes_per_token(config)


def kv_fraction_of_traffic(config: ModelConfig, batch: int, seq_len: int) -> float:
    """Fraction of decode-step DRAM reads spent on KV cache (paper Fig. 3a).

    One decode step reads every active parameter once (shared across the
    batch) plus each request's KV cache.  The returned value is
    ``kv / (kv + params)``.
    """
    kv = kv_cache_bytes(config, batch, seq_len)
    params = config.active_param_bytes_per_token
    return kv / (kv + params)


def max_batch_for_memory(
    config: ModelConfig,
    seq_len: int,
    dram_bytes: float,
    num_devices: int = 1,
) -> int:
    """Largest batch whose weights + KV fit in aggregate DRAM.

    The serving simulator uses this as the admission-control limit, with
    5 % held back for activations and fragmentation.
    """
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    capacity = dram_bytes * num_devices * 0.95
    available = capacity - config.param_bytes
    if available <= 0:
        return 0
    per_request = seq_len * kv_bytes_per_token(config)
    return int(available // per_request)
