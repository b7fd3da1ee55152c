"""Request generation (the Request Generator box of Fig. 14b).

:func:`iter_poisson_requests` draws exponential inter-arrival times at
a fixed rate; :func:`iter_onoff_requests` modulates the rate with
alternating on/off phases — the bursty traffic that separates adaptive
routers from round-robin in the cluster benchmarks.  Token lengths come
from a :class:`~repro.serving.dataset.ChatTraceConfig`.  Each generator
takes one integer seed and yields its requests lazily, at constant
memory; ``list(...)`` materializes them.

The draw order is fixed: one ``default_rng(seed)`` drawing whole arrays
in turn (e.g. all gaps, then all input lengths, then all output
lengths), the order every recorded result depends on.  A naive chunked
loop would interleave the draws and land on different stream positions.
The generators instead run one ``default_rng(seed)`` instance *per draw
role*, fast-forward each past the roles drawn before it (chunk-wise,
nothing retained), and then pull chunks from every role in lockstep.
numpy's ``Generator`` distributions consume the underlying bit stream
one value at a time, so splitting a ``size=n`` draw into chunks
reproduces the exact same values.

:class:`PoissonArrivalTemplate` draws the same Poisson workload once,
as whole arrays, and rescales it per probed rate for the capacity
search.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.serving.dataset import (
    ChatTraceConfig,
    sample_inputs,
    sample_outputs,
    sample_trace,
)
from repro.serving.request import Request

#: draws per chunk in the streaming replay generators — bounds peak
#: memory at a few array pages regardless of the workload size
STREAM_CHUNK = 4096


def _chunk_sizes(count: int, chunk: int) -> Iterator[int]:
    """Split ``count`` draws into chunk-sized runs (last one ragged)."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    while count > 0:
        step = chunk if count > chunk else count
        yield step
        count -= step


def _skip_exponential(rng: np.random.Generator, count: int,
                      chunk: int) -> None:
    """Fast-forward past ``count`` exponential draws (constant memory).

    The scale parameter only multiplies the standard draw, so any scale
    consumes the identical stream positions.
    """
    for step in _chunk_sizes(count, chunk):
        rng.standard_exponential(size=step)


def _skip_lengths(rng: np.random.Generator, count: int,
                  chunk: int) -> None:
    """Fast-forward past one lognormal length array (one normal each)."""
    for step in _chunk_sizes(count, chunk):
        rng.standard_normal(size=step)


class PoissonArrivalTemplate:
    """A Poisson workload drawn once and rescaled per probed rate.

    The capacity search probes many arrival rates against *the same*
    workload.  Regenerating it per probe redraws identical randomness;
    this template draws the unit-rate exponential gaps and the token
    lengths a single time, and :meth:`requests_at` rescales the gaps by
    ``1 / rate``.

    The rescaling is draw-for-draw **bit-identical** to
    :func:`iter_poisson_requests` with the same seed and count: numpy's
    ``Generator.exponential(scale)`` evaluates
    ``scale * standard_exponential()`` per element, so
    ``Exp(1/rate) == Exp(1) * (1/rate)`` on the very same underlying
    uniforms, and the length draws that follow consume the identical
    stream positions.  Every probed rate therefore sees common random
    numbers (the classic variance-reduction trick) while skipping the
    per-probe regeneration cost.
    """

    def __init__(self, trace: ChatTraceConfig, count: int, seed: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.trace = trace
        self.count = count
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._unit_gaps = rng.standard_exponential(size=count)
        self._lengths = sample_trace(trace, count, rng)

    def requests_at(self, rate_per_s: float) -> list[Request]:
        """Fresh :class:`Request` objects for one probed arrival rate,
        arriving from time zero."""
        if rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.count == 0:
            return []
        # identical float operations to drawing exponential(1 / rate):
        # numpy's exponential(scale) multiplies each standard draw by the
        # scale, and IEEE multiplication is commutative bit-for-bit
        gaps = self._unit_gaps * (1.0 / rate_per_s)
        arrivals = np.cumsum(gaps)
        return [
            Request(
                request_id=i,
                arrival_time=float(arrivals[i]),
                input_tokens=length[0],
                output_tokens=length[1],
            )
            for i, length in enumerate(self._lengths)
        ]


# --------------------------------------------------------------------- #
# Arrival processes                                                      #
# --------------------------------------------------------------------- #

def iter_poisson_requests(trace: ChatTraceConfig, rate_per_s: float,
                          seed: int, count: int,
                          chunk: int = STREAM_CHUNK) -> Iterator[Request]:
    """``count`` requests with Poisson arrivals from time zero.

    Three replay generators cover the draw order (all gaps, then all
    inputs, then all outputs): the gap stream starts at position zero,
    the input stream skips the gaps, the output stream skips gaps and
    inputs.  Arrival times accumulate in a running float64 sum — the
    same strictly sequential addition chain as ``np.cumsum``, so every
    arrival float matches :class:`PoissonArrivalTemplate` bit for bit.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    gap_rng = np.random.default_rng(seed)
    in_rng = np.random.default_rng(seed)
    out_rng = np.random.default_rng(seed)
    _skip_exponential(in_rng, count, chunk)
    _skip_exponential(out_rng, count, chunk)
    _skip_lengths(out_rng, count, chunk)
    scale = 1.0 / rate_per_s
    total = 0.0
    request_id = 0
    for step in _chunk_sizes(count, chunk):
        gaps = gap_rng.exponential(scale, size=step)
        inputs = sample_inputs(trace, step, in_rng)
        outputs = sample_outputs(trace, step, out_rng)
        for i in range(step):
            total += float(gaps[i])
            yield Request(
                request_id=request_id,
                arrival_time=total,
                input_tokens=int(inputs[i]),
                output_tokens=int(outputs[i]),
            )
            request_id += 1


def iter_onoff_requests(trace: ChatTraceConfig, on_rate_per_s: float,
                        off_rate_per_s: float, phase_seconds: float,
                        seed: int, count: int,
                        chunk: int = STREAM_CHUNK) -> Iterator[Request]:
    """Bursty arrivals from time zero: a Markov-modulated Poisson (on/off)
    process.

    Time alternates between fixed-length phases; arrivals are Poisson at
    ``on_rate_per_s`` during even phases and ``off_rate_per_s`` during
    odd ones.  Real chat traffic shows exactly this regime switching
    (diurnal peaks, thundering herds), and it is the workload where
    load-aware routing visibly beats round-robin.

    The draw order is lengths first (inputs, then outputs), then one
    scalar exponential per arrival; the replay skips accordingly and
    walks the phase-modulated clock.
    """
    if on_rate_per_s <= 0 or off_rate_per_s <= 0:
        raise ValueError("arrival rates must be positive")
    if phase_seconds <= 0:
        raise ValueError("phase length must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    in_rng = np.random.default_rng(seed)
    out_rng = np.random.default_rng(seed)
    gap_rng = np.random.default_rng(seed)
    _skip_lengths(out_rng, count, chunk)
    _skip_lengths(gap_rng, count, chunk)
    _skip_lengths(gap_rng, count, chunk)
    now = 0.0
    request_id = 0
    for step in _chunk_sizes(count, chunk):
        inputs = sample_inputs(trace, step, in_rng)
        outputs = sample_outputs(trace, step, out_rng)
        for i in range(step):
            phase = int(now / phase_seconds) % 2
            rate = on_rate_per_s if phase == 0 else off_rate_per_s
            now += float(gap_rng.exponential(1.0 / rate))
            yield Request(
                request_id=request_id,
                arrival_time=float(now),
                input_tokens=int(inputs[i]),
                output_tokens=int(outputs[i]),
            )
            request_id += 1
