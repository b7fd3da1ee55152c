"""The serving engine: a discrete-event loop over scheduler iterations.

Each iteration executes one decode step for the running batch plus one
prefill chunk (continuous batching).  On an HDA chip the two overlap —
the MAC tree streams decode attention from DRAM while the systolic array
chews the prefill chunk (Fig. 8); on baseline hardware they serialize
almost completely.  Iteration latency comes from the same
:class:`~repro.perf.baselines.DeviceModel` estimators as every other
experiment, so the serving results are consistent with Figs. 11 and 15.

The continuous-batching iteration body exists once, in
:meth:`Endpoint.advance`: enqueue due arrivals, plan, then idle-jump,
run a decode burst or time one iteration and stamp its tokens, then
complete.  :meth:`ServingEngine.run` drives one endpoint to the horizon;
the cluster's replicas (``repro.cluster.engine.ReplicaSim``) are
endpoints driven arrival by arrival, and a slowdown window drives the
same body with a step-time factor.

The scheduler stamps tokens in its completion calls,
:meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.complete_iteration`
for one iteration and
:meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.complete_burst`
for a decode burst.  Decode progress is derived scheduler state: a
running member's ``generated_tokens`` and ``last_token_time`` are
written only when it first emits, finishes or is preempted, and
:meth:`Endpoint.result` settles the members still running.

Two coordinated fast paths keep simulated iterations near-free without
changing a single result bit:

* **incremental state** — the decode-context sum and batch size ride on
  the :class:`IterationPlan` as running counters, and the next finish
  comes off the scheduler's finish heap, so neither iteration timing
  nor a decode burst rebuilds or scans per-request lists;
* **decode fast-forward** — when the upcoming iterations are pure decode
  (no prefill chunk, nothing admissible, no pending arrival yet), the
  engine applies the whole run of steps in one shot, synthesizing each
  step's timestamp from the same per-step latencies the plain loop would
  have used.  Token times, QoS percentiles and counters are identical;
  only the Python-loop overhead disappears.  Construct the engine with
  ``fast_forward=False`` to force the reference one-iteration-at-a-time
  loop (the parity suite compares the two bit-for-bit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.hardware.chip import ChipKind
from repro.models.config import ModelConfig
from repro.perf.baselines import DeviceModel
from repro.serving.prefix_cache import (
    PrefixCache,
    PrefixCacheSpec,
    PrefixCacheStats,
)
from repro.serving.request import Request
from repro.serving.stream import as_stream
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    IterationPlan,
    SchedulerLimits,
)

#: Fraction of the shorter of (decode step, prefill chunk) hidden by the
#: HDA's heterogeneous overlap; baselines get a small pipelining credit.
_OVERLAP_BY_KIND = {
    ChipKind.ADOR_HDA: 0.60,
    ChipKind.GPU: 0.15,
    ChipKind.SYSTOLIC_NPU: 0.15,
    ChipKind.STREAMING_SRAM: 0.30,
}


def ttft_is_stable(finished: list, ratio: float = 2.5,
                   floor: float = 0.25, min_count: int = 8) -> bool:
    """Detect an unbounded backlog: TTFT must not balloon over the run.

    At a sustainable rate TTFT is roughly flat; past saturation every
    later request waits behind a growing queue, so the second half's
    median TTFT (in arrival order) races away from the first half's.
    Shared by the capacity search's final stability verdict (default
    thresholds) and the :class:`InstabilityMonitor`'s stricter online
    escape test.
    """
    if len(finished) < min_count:
        return True
    ordered = sorted(finished, key=lambda r: r.arrival_time)
    half = len(ordered) // 2
    first = float(np.median([r.ttft for r in ordered[:half]]))
    second = float(np.median([r.ttft for r in ordered[half:]]))
    return second <= max(ratio * first, floor)


class InstabilityMonitor:
    """Online saturation detector for :meth:`ServingEngine.run`.

    Samples the backlog (arrived requests still waiting for their first
    token) every ``check_every`` engine iterations and aborts the run
    once **all** of the following hold, so a doomed probe stops burning
    wall-clock on a foregone verdict:

    1. the backlog stayed above ``max(min_backlog, backlog_fraction *
       request_count)`` requests across the last ``windows``
       consecutive samples (sustained, not a transient burst),
    2. it is not draining: the newest sample is at least
       ``drain_tolerance`` of the oldest windowed one (a stable queue
       empties fast; a saturated one grows, plateaus, or creeps down at
       the capacity deficit),
    3. at least ``min_finished`` requests finished, and their
       arrival-ordered TTFT halves fail :func:`ttft_is_stable` at the
       strict ``escape_ratio`` / ``escape_floor`` thresholds.

    Condition 3 deliberately uses *stricter* thresholds than the
    capacity search's final stability check (2.75x vs 2.5x, 0.4 s vs
    0.25 s): an abort therefore implies the truncated run already fails
    the final check, so the feasibility verdict of an aborted probe is
    structurally identical to finishing the simulation and failing it.
    The monitor only observes — a run it never fires on is bit-identical
    to one without a monitor.  A run it stops carries
    :attr:`SimulationResult.saturated`: such a run can never satisfy the
    capacity search's feasibility test, so the probe verdict is decided
    without simulating the rest of the horizon.
    """

    check_every = 32
    windows = 4
    min_backlog = 16
    backlog_fraction = 0.1
    drain_tolerance = 0.75
    escape_ratio = 2.75
    escape_floor = 0.4
    min_finished = 16

    def __init__(self, request_count: int) -> None:
        if request_count < 1:
            raise ValueError("request_count must be >= 1")
        self.request_count = request_count
        self._iterations = 0
        self._samples: deque[int] = deque(maxlen=self.windows + 1)

    def observe(self, backlog: int, finished: list) -> bool:
        """Record one engine iteration; ``True`` means abort (saturated)."""
        self._iterations += 1
        if self._iterations % self.check_every:
            return False
        self._samples.append(backlog)
        if len(self._samples) <= self.windows:
            return False
        samples = list(self._samples)
        threshold = max(self.min_backlog,
                        self.backlog_fraction * self.request_count)
        if min(samples) < threshold:
            return False
        if samples[-1] < self.drain_tolerance * samples[0]:
            return False
        if len(finished) < self.min_finished:
            return False
        return not ttft_is_stable(finished, ratio=self.escape_ratio,
                                  floor=self.escape_floor,
                                  min_count=self.min_finished)


@dataclass
class SimulationResult:
    """Outcome of one serving simulation."""

    finished: list
    unfinished: list
    total_time_s: float
    iterations: int
    decode_steps: int
    busy_time_s: float
    decode_time_s: float
    prefill_time_s: float
    #: true when an InstabilityMonitor aborted the run early
    saturated: bool = False
    #: non-None when the endpoint ran with a prefix cache
    prefix_cache: PrefixCacheStats | None = None
    #: tokens of the completed requests handed to a ``sink`` instead of
    #: being retained (constant-memory streaming runs); zero by default
    sunk_tokens: int = 0

    @property
    def generated_tokens(self) -> int:
        return sum(r.generated_tokens
                   for r in self.finished + self.unfinished) \
            + self.sunk_tokens


def run_decode_burst(scheduler: ContinuousBatchingScheduler,
                     plan: IterationPlan, pending, device: DeviceModel,
                     model, num_devices, now, limit, busy, decode_time,
                     finished, factor=1.0):
    """Fast-forward one pure-decode run and apply it, in one place.

    Steps a fixed decode batch until the earliest completion
    (``until_finish`` steps), the clock passing ``limit`` (checked
    before each step, like the plain loop), or the next pending arrival
    landing (checked after each step, so the step that overruns it still
    executes — the plain loop only sees arrivals at the next iteration
    top).  Each step's unscaled seconds come from a raw-context map —
    the device's ``decode_seconds_map`` when it has one, a burst-local
    dict otherwise — and are multiplied by ``factor`` (a slowdown
    window's; exact at 1.0).  A context missing from the map is filled
    through ``decode_step_time``, so a cached device's breakdown cache
    and miss counter stay exact (its map hits are bulk-accounted on
    ``stats``).  Each step adds one token per member, so contexts never
    repeat within a burst: an uncached device gets one
    ``decode_step_time`` call per step.  ``busy``/``decode_time`` are
    threaded through and accumulated per step, preserving the reference
    float-summation order bit for bit.  The steps are stamped and
    applied via the scheduler's ``complete_burst``, which appends the
    completions to ``finished`` in batch order.  Returns
    ``(now, steps, busy, decode_time)``.
    """
    size = plan.decode_batch
    ctx_sum = plan.decode_context_sum
    until_finish = scheduler.steps_until_finish()
    next_arrival = pending[0].arrival_time if pending else None
    seconds_map = getattr(device, "decode_seconds_map", None)
    seconds = seconds_map(model, size, num_devices) \
        if seconds_map is not None else {}
    times: list[float] = []
    steps = fills = 0
    while steps < until_finish and now < limit:
        mean_context = max(1, int(ctx_sum / size))
        step = seconds.get(mean_context)
        if step is None:
            step = seconds[mean_context] = device.decode_step_time(
                model, size, mean_context, num_devices).seconds
            fills += 1
        step *= factor
        now += step
        busy += step
        decode_time += step
        times.append(now)
        ctx_sum += size
        steps += 1
        if next_arrival is not None and next_arrival <= now:
            break
    if seconds_map is not None:
        # each map hit stands in for a decode_step_time call that would
        # have hit the breakdown cache
        device.stats.decode_hits += steps - fills
    # one stamping call per burst, touching only the members an event
    # writes: at million-request scale a call per member per step
    # dominated the profile
    scheduler.complete_burst(plan, times, finished)
    return now, steps, busy, decode_time


class _FinishedSink:
    """List-shim that hands completed requests to a sink callable.

    Streaming runs that retain every finished :class:`Request` grow
    memory linearly no matter how lazily arrivals are generated; a
    ``sink`` keeps only aggregates.  The shim exposes the two list
    operations the engine performs on ``finished`` — ``append`` and
    ``len`` — and forwards each completion to the sink, counting
    requests and tokens so :class:`SimulationResult` stays exact.
    """

    __slots__ = ("_sink", "count", "tokens")

    def __init__(self, sink) -> None:
        self._sink = sink
        self.count = 0
        self.tokens = 0

    def append(self, request: Request) -> None:
        self.count += 1
        self.tokens += request.generated_tokens
        self._sink(request)

    def __len__(self) -> int:
        return self.count


class Endpoint:
    """One endpoint's run state, stepped by the one iteration body.

    Holds the scheduler and prefix cache, the pending arrivals (a deque
    or :class:`~repro.serving.stream.RequestStream`), the finished sink
    and the clock and counters; the :class:`ServingEngine` it steps is
    configuration only, so a fleet group's replicas share one.
    :meth:`ServingEngine.run` drives one to the horizon;
    ``repro.cluster.engine.ReplicaSim`` extends it with routing and
    lifecycle state and drives it arrival by arrival.
    """

    def __init__(self, engine: "ServingEngine", pending, finished) -> None:
        self.engine = engine
        self._cold_start()
        self.pending = pending
        self.finished = finished
        self.now = 0.0
        self.iterations = 0
        self.decode_steps = 0
        self.busy = 0.0
        self.decode_time = 0.0
        self.prefill_time = 0.0

    def _cold_start(self) -> None:
        """A fresh prefix cache (``None`` when the engine runs without
        one) and the scheduler over it.

        Each endpoint — each run, and each cluster replica after every
        crash — gets its own cache and paged pool, so two runs on one
        engine never share residency and a fleet's hit rate honestly
        reflects its router (session affinity concentrates a session's
        turns on one replica's cache; round-robin scatters them).
        """
        engine = self.engine
        spec = engine.prefix_cache_spec
        self.prefix_cache = None if spec is None else \
            PrefixCache.for_deployment(engine.model, engine.limits, spec)
        self.scheduler = ContinuousBatchingScheduler(
            engine.model, engine.limits, prefix_cache=self.prefix_cache)

    def advance(self, limit: float, factor: float = 1.0,
                monitor: InstabilityMonitor | None = None,
                progress=None) -> bool:
        """Run iterations while the clock is below ``limit``.

        Each pass enqueues the arrivals due by now, then plans; an idle
        endpoint jumps to its next arrival (clamped to ``limit``, so a
        late arrival never inflates the clock) or stops when none is
        pending.  A pure-decode plan runs as one decode burst when the
        engine fast-forwards; any other plan runs one timed iteration.
        An iteration starts whenever the clock is below ``limit``, even
        if it ends past it.  ``factor`` multiplies every step time (a
        slowdown window).  ``progress(now, done)`` and the monitor are
        called once per pass; the return value says whether the monitor
        stopped the run.
        """
        scheduler = self.scheduler
        pending = self.pending
        finished = self.finished
        engine = self.engine
        device = engine.device
        model = engine.model
        num_devices = engine.num_devices
        fast_forward = engine.fast_forward
        now = self.now
        busy = self.busy
        decode_time = self.decode_time
        prefill_time = self.prefill_time
        iterations = self.iterations
        decode_steps = self.decode_steps
        saturated = False
        while now < limit:
            while pending and pending[0].arrival_time <= now:
                scheduler.enqueue(pending.popleft())
            if progress is not None:
                progress(now, len(finished))
            # backlog = arrived requests still waiting for a first token
            # (admission may be generous, so saturation can pile up in
            # the prefill queue rather than the admission queue)
            if monitor is not None and monitor.observe(
                    len(scheduler.queued) + len(scheduler.prefilling),
                    finished):
                saturated = True
                break
            plan = scheduler.plan_iteration()
            if not plan.has_work:
                if not pending:
                    break
                # idle until the next arrival, never past the limit (a
                # late arrival must not inflate the clock)
                now = min(pending[0].arrival_time, limit)
                continue
            if fast_forward and plan.decode_batch \
                    and plan.prefill_tokens == 0:
                # Pure decode: nothing prefilling, and anything still
                # queued stayed blocked during _admit, which only
                # unblocks after a completion.  Fast-forward whole steps
                # until the earliest completion, the next arrival, or
                # the limit — whichever the per-step clock hits first.
                now, steps, busy, decode_time = run_decode_burst(
                    scheduler, plan, pending, device, model, num_devices,
                    now, limit, busy, decode_time, finished, factor)
                iterations += steps
                decode_steps += steps
                continue
            step, decode_part, prefill_part = engine._iteration_seconds(plan)
            step *= factor
            now += step
            busy += step
            decode_time += decode_part * factor
            prefill_time += prefill_part * factor
            iterations += 1
            if plan.decode_batch:
                decode_steps += 1
            scheduler.complete_iteration(plan, now, finished)
        self.now = now
        self.busy = busy
        self.decode_time = decode_time
        self.prefill_time = prefill_time
        self.iterations = iterations
        self.decode_steps = decode_steps
        return saturated

    def result(self, saturated: bool = False) -> SimulationResult:
        """The run so far in the :class:`SimulationResult` shape; the
        unfinished list drains whatever the pending stream still holds.
        The members still decoding are settled first: their token counts
        and last stamps are derived state until then."""
        scheduler = self.scheduler
        scheduler.settle()
        unfinished = [*scheduler.prefilling, *scheduler.decoding,
                      *scheduler.queued, *self.pending]
        finished = self.finished
        sunk_tokens = 0
        if isinstance(finished, _FinishedSink):
            sunk_tokens = finished.tokens
            finished = []
        cache = self.prefix_cache
        return SimulationResult(
            finished=finished,
            unfinished=unfinished,
            total_time_s=self.now,
            iterations=self.iterations,
            decode_steps=self.decode_steps,
            busy_time_s=self.busy,
            decode_time_s=self.decode_time,
            prefill_time_s=self.prefill_time,
            saturated=saturated,
            prefix_cache=cache.stats if cache is not None else None,
            sunk_tokens=sunk_tokens,
        )


class ServingEngine:
    """Simulates one endpoint (one device group) serving one model.

    Configuration only: the device, model, limits, device count, the
    fast-forward switch and the prefix-cache spec.  Every run state —
    scheduler, cache, queue, clock — lives on the :class:`Endpoint` that
    steps it, so one engine serves any number of runs and replicas.
    """

    def __init__(
        self,
        device: DeviceModel,
        model: ModelConfig,
        limits: SchedulerLimits,
        num_devices: int = 1,
        fast_forward: bool = True,
        prefix_cache: PrefixCacheSpec | None = None,
    ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        self.device = device
        self.model = model
        self.limits = limits
        self.num_devices = num_devices
        self.fast_forward = fast_forward
        self.prefix_cache_spec = prefix_cache
        self.overlap = _OVERLAP_BY_KIND.get(device.chip.kind, 0.15)

    # ------------------------------------------------------------------ #
    # Iteration timing                                                     #
    # ------------------------------------------------------------------ #

    def _iteration_seconds(self, plan: IterationPlan) -> tuple[float, float, float]:
        """(total, decode_part, prefill_part) latency of one iteration."""
        decode = 0.0
        if plan.decode_batch:
            mean_context = max(
                1, int(plan.decode_context_sum / plan.decode_batch))
            decode = self.device.decode_step_time(
                self.model, plan.decode_batch, mean_context,
                self.num_devices).seconds
        prefill = 0.0
        if plan.prefill_tokens > 0:
            prefill = self.device.prefill_time(
                self.model, 1, plan.prefill_tokens, self.num_devices).seconds
        if decode and prefill:
            hidden = self.overlap * min(decode, prefill)
            return decode + prefill - hidden, decode, prefill
        return decode + prefill, decode, prefill

    # ------------------------------------------------------------------ #
    # Main loop                                                            #
    # ------------------------------------------------------------------ #

    def run(self, requests,
            max_sim_seconds: float = 600.0,
            monitor: InstabilityMonitor | None = None, *,
            sink=None, progress=None) -> SimulationResult:
        """Simulate until all requests finish or the horizon expires.

        ``requests`` is a list (sorted here, the classic path) or a lazy
        iterable/:class:`~repro.serving.stream.RequestStream` consumed
        one arrival at a time at constant memory — both produce
        bit-identical results for the same request sequence.

        An optional :class:`InstabilityMonitor` observes the admission
        backlog and the finished set each loop pass; when it fires, the
        run stops early and the result's ``saturated`` is true.  A run
        the monitor never fires on is bit-identical to one without a
        monitor.

        ``sink`` (streaming runs) receives each completed request
        instead of it being retained on the result — aggregates stay
        exact via ``sunk_tokens``.  A sink cannot be
        combined with a monitor, which needs the retained finished list.
        ``progress`` is called as ``progress(sim_time, done_count)``
        once per outer loop pass; wall-clock throttling lives in the
        caller (see ``repro.perf.scale.ProgressReporter``) so the engine
        itself stays deterministic.
        """
        if isinstance(requests, (list, tuple)):
            pending = deque(sorted(requests, key=lambda r: r.arrival_time))
        else:
            pending = as_stream(requests)
        if sink is not None and monitor is not None:
            raise ValueError(
                "a finished-request sink cannot be combined with an "
                "InstabilityMonitor: the monitor inspects the retained "
                "finished list the sink exists to avoid")
        endpoint = Endpoint(
            self, pending, _FinishedSink(sink) if sink is not None else [])
        saturated = endpoint.advance(max_sim_seconds, monitor=monitor,
                                     progress=progress)
        result = endpoint.result(saturated)
        if progress is not None:
            progress(endpoint.now, len(endpoint.finished))
        return result
