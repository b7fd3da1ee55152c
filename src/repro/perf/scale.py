"""Cluster-scale machinery: streaming aggregates and the long-run
progress heartbeat.

Two pieces serve the million-request regime alongside the sharded
run, which is :func:`repro.api.simulate` with ``shards=N``:

* :class:`StreamStats` is a finished-request sink for
  ``ServingEngine.run(..., sink=...)``: constant-memory streaming runs
  retain exact aggregate QoS (counts, token totals, TTFT/E2E sums and
  maxima) while the engine drops each completed
  :class:`~repro.serving.request.Request` after the callback.

* :class:`ProgressReporter` throttles engine ``progress`` callbacks
  to a wall-clock interval and prints a stderr heartbeat.  The engines
  themselves never read a clock — the reporter owns the only wall-clock
  access, which is why it lives here and carries the R1 pragma.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

from repro.serving.request import Request


# --------------------------------------------------------------------- #
# Streaming aggregates                                                   #
# --------------------------------------------------------------------- #

class StreamStats:
    """Exact aggregate QoS over completed requests a sink discarded.

    Pass an instance as ``ServingEngine.run(..., sink=stats)``: every
    completed request updates the counters and is then dropped by the
    engine, so a streaming run's footprint stays at the in-flight
    window while throughput and latency aggregates remain exact —
    the same sums a retained finished list would produce.
    """

    __slots__ = ("finished", "tokens", "ttft_sum", "ttft_max",
                 "e2e_sum", "e2e_max")

    def __init__(self) -> None:
        self.finished = 0
        self.tokens = 0
        self.ttft_sum = 0.0
        self.ttft_max = 0.0
        self.e2e_sum = 0.0
        self.e2e_max = 0.0

    def __call__(self, request: Request) -> None:
        self.finished += 1
        self.tokens += request.generated_tokens
        ttft = request.ttft
        self.ttft_sum += ttft
        if ttft > self.ttft_max:
            self.ttft_max = ttft
        e2e = request.e2e_latency
        self.e2e_sum += e2e
        if e2e > self.e2e_max:
            self.e2e_max = e2e

    @property
    def mean_ttft_s(self) -> float:
        return self.ttft_sum / self.finished if self.finished else 0.0

    @property
    def mean_e2e_s(self) -> float:
        return self.e2e_sum / self.finished if self.finished else 0.0


# --------------------------------------------------------------------- #
# Progress heartbeat                                                     #
# --------------------------------------------------------------------- #

class ProgressReporter:
    """Wall-clock-throttled stderr heartbeat for long runs.

    The engines call ``progress(sim_time, done_count)`` on their event
    boundaries with zero knowledge of real time; this reporter decides
    *whether* to print by reading the monotonic clock.  That keeps the
    determinism contract intact — wall clock influences only what is
    written to stderr, never a simulated value — which is the
    justification the R1 pragma below carries.
    """

    def __init__(self, interval_s: float = 5.0, label: str = "sim",
                 stream: TextIO | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.interval_s = interval_s
        self.label = label
        self._stream = stream if stream is not None else sys.stderr
        # injectable clock so tests exercise throttling deterministically
        self._clock = clock if clock is not None \
            else time.monotonic  # repro: allow[R1] gates stderr output only, never sim state
        self._last: float | None = None
        self.emitted = 0

    def __call__(self, sim_time: float, done: int) -> None:
        now = self._clock()
        if self._last is not None and now - self._last < self.interval_s:
            return
        self._last = now
        self.emitted += 1
        print(f"[{self.label}] sim_time={sim_time:.1f}s "
              f"requests_done={done}", file=self._stream, flush=True)
