"""Memoizing device-model wrapper: the simulator's hot-path cache.

Every serving iteration asks a :class:`~repro.perf.baselines.DeviceModel`
for one decode-step or prefill latency.  Those analytic evaluations are
pure functions of ``(model, batch, context, num_devices)``, yet the
engines re-derive them from scratch thousands of times per simulation —
steady-state serving revisits the same operating points constantly
(batch pinned at ``max_batch``, contexts cycling through the same band,
replicas of a cluster sharing one device model).

:class:`CachedDeviceModel` wraps any device model and memoizes both
estimators.  With the default ``context_bucket=1`` the cache is *exact*:
a hit returns the identical :class:`BaselineBreakdown` object the inner
model would have produced, so simulation results are bit-identical to
the uncached path.  Larger buckets quantize the decode context to the
nearest bucket multiple before the lookup, trading a bounded latency
error (the KV-attention term shifts by at most half a bucket of context)
for a much higher hit rate — useful for coarse design-space sweeps;
``benchmarks/bench_sim_speed.py`` reports the measured error.

Why the modeled knob exists: with exact prefill and decode misses
already cheap (compiled kernels per operating point), ``context_bucket=32``
still measured 1.17-1.19x faster than the exact run on the seed-0
``perfbench`` inputs of ``poisson-4x`` and 1.36-1.61x on
``sessions-prefix-4x``, whose multi-turn contexts miss the most (2-core
Xeon host, median of 5 alternating pairs, two rounds), at the error
``BENCH_sim_speed.json`` records: ~1% max QoS error at 32, ~2% at 128.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.perf.baselines import BaselineBreakdown, DeviceModel


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CachedDeviceModel`."""

    decode_hits: int = 0
    decode_misses: int = 0
    prefill_hits: int = 0
    prefill_misses: int = 0

    @property
    def decode_hit_rate(self) -> float:
        calls = self.decode_hits + self.decode_misses
        return self.decode_hits / calls if calls else 0.0

    @property
    def prefill_hit_rate(self) -> float:
        calls = self.prefill_hits + self.prefill_misses
        return self.prefill_hits / calls if calls else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "decode_hits": self.decode_hits,
            "decode_misses": self.decode_misses,
            "decode_hit_rate": self.decode_hit_rate,
            "prefill_hits": self.prefill_hits,
            "prefill_misses": self.prefill_misses,
            "prefill_hit_rate": self.prefill_hit_rate,
        }


class CachedDeviceModel(DeviceModel):
    """Memoizes ``decode_step_time`` / ``prefill_time`` of a wrapped model.

    Keys are ``(model, batch, context, num_devices)``; ``ModelConfig`` is
    a frozen dataclass, so equal configs share entries.  The inherited
    :class:`DeviceModel` helpers (bandwidth utilization, prefill FLOPS)
    route their stage-time calls through the cache; anything else of the
    wrapped model is reached through ``inner``.
    """

    def __init__(self, inner: DeviceModel, context_bucket: int = 1) -> None:
        if isinstance(inner, CachedDeviceModel):
            raise ValueError("refusing to cache an already-cached model")
        if context_bucket < 1:
            raise ValueError("context_bucket must be >= 1")
        super().__init__(inner.chip)
        self.inner = inner
        self.context_bucket = int(context_bucket)
        self.stats = CacheStats()
        # two-level maps: model identity -> {(batch, context, devices):
        # breakdown}.  Hashing a frozen ModelConfig re-derives a dozen
        # field hashes per lookup; an id() outer key makes the hot
        # lookup three machine integers.  The model object is pinned in
        # _models so a freed id can never alias a new config.
        self._models: dict[int, ModelConfig] = {}
        self._decode: dict[int, dict] = {}
        self._prefill: dict[int, dict] = {}
        # raw-context -> step-seconds maps, keyed (model id, batch,
        # devices).  See decode_seconds_map.
        self._decode_seconds: dict[tuple[int, int, int], dict[int, float]] = {}

    def bucketed_context(self, context_len: int) -> int:
        """The context length actually evaluated for ``context_len``."""
        bucket = self.context_bucket
        if bucket <= 1:
            return context_len
        # snap to the nearest bucket multiple (at least one token) so the
        # worst-case context error is bucket/2 either way
        return max(1, ((context_len + bucket // 2) // bucket) * bucket)

    def _model_entries(self, table: dict, model: ModelConfig) -> dict:
        entries = table.get(id(model))
        if entries is None:
            entries = table[id(model)] = {}
            self._models[id(model)] = model
        return entries

    def decode_step_time(self, model: ModelConfig, batch: int,
                         context_len: int,
                         num_devices: int = 1) -> BaselineBreakdown:
        context = self.bucketed_context(context_len)
        entries = self._decode.get(id(model))
        if entries is None:
            entries = self._model_entries(self._decode, model)
        key = (batch, context, num_devices)
        hit = entries.get(key)
        if hit is not None:
            self.stats.decode_hits += 1
            return hit
        self.stats.decode_misses += 1
        value = self.inner.decode_step_time(model, batch, context,
                                            num_devices)
        entries[key] = value
        return value

    def decode_seconds_map(self, model: ModelConfig, batch: int,
                           num_devices: int) -> dict[int, float]:
        """Mutable ``{raw context -> decode-step seconds}`` map for one
        ``(model, batch, num_devices)`` operating point.

        The decode fast-forward loop runs one dict probe per simulated
        step; going through :meth:`decode_step_time` would re-bucket the
        context and rebuild the key tuple every step only to fetch the
        same ``seconds`` float.  Callers fill misses *through*
        :meth:`decode_step_time` (so breakdown entries and miss counters
        stay exact) and bulk-account the map hits on ``stats``
        afterwards.  Keys are raw contexts: with ``context_bucket > 1``
        several raw contexts alias one bucketed evaluation, which is the
        same value the bucketed lookup would return.
        """
        key = (id(model), batch, num_devices)
        seconds = self._decode_seconds.get(key)
        if seconds is None:
            seconds = self._decode_seconds[key] = {}
            self._models[id(model)] = model
        return seconds

    def prefill_time(self, model: ModelConfig, batch: int, seq_len: int,
                     num_devices: int = 1) -> BaselineBreakdown:
        # prefill chunks are already quantized by the scheduler's chunk
        # size; bucketing them would distort TTFT for no hit-rate gain
        entries = self._prefill.get(id(model))
        if entries is None:
            entries = self._model_entries(self._prefill, model)
        key = (batch, seq_len, num_devices)
        hit = entries.get(key)
        if hit is not None:
            self.stats.prefill_hits += 1
            return hit
        self.stats.prefill_misses += 1
        value = self.inner.prefill_time(model, batch, seq_len, num_devices)
        entries[key] = value
        return value

    def cache_info(self) -> dict[str, float]:
        """Counters plus current entry counts, for benches and logs."""
        info = self.stats.as_dict()
        info["decode_entries"] = sum(len(e) for e in self._decode.values())
        info["prefill_entries"] = sum(len(e) for e in self._prefill.values())
        info["context_bucket"] = self.context_bucket
        return info
