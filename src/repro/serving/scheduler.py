"""Iteration-level continuous-batching scheduler (the Task Manager +
Scheduler of Fig. 14b).

Each engine iteration the scheduler:

1. admits queued requests while the decode batch and KV memory allow,
2. selects a chunk of prefill tokens (Sarathi-style chunked prefill, so
   decode steps are never starved by long prompts),
3. hands the engine the decode batch and prefill chunk to execute.

Admission control uses the KV-capacity math of
:mod:`repro.models.kv_cache`.

The scheduler's per-iteration state is maintained incrementally: the
sum of decode context lengths is a running integer counter (so the
engine never rebuilds an O(batch) context list), and the admission
queue is a :class:`collections.deque` (O(1) FIFO pops).  All counters
are exact — integer arithmetic has no drift — so the incremental state
is bit-identical to recomputing from scratch.

Decode progress is derived, not stamped.  Every decode step advances
every member of the batch by one token, so the scheduler keeps one
step counter and the last step's time, and each member only the step
at which it would finish.  A member's ``generated_tokens`` and
``last_token_time`` follow from those and are written to its
:class:`~repro.serving.request.Request` only at events: its first step
(the first-token stamp), its finish, its preemption, and
:meth:`ContinuousBatchingScheduler.settle`, which
``Endpoint.result()`` calls for the members still running at the
horizon.  A heap keyed ``(finish step, join order)`` yields the next
finish and each step's finishers in batch order, so stamping — which
:meth:`~ContinuousBatchingScheduler.complete_iteration` and
:meth:`~ContinuousBatchingScheduler.complete_burst` both do through one
private call — costs O(events), not O(batch), per call.  Members with
``record_token_times=True`` still get every stamp, from a side set.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.models.config import ModelConfig
from repro.models.kv_cache import kv_bytes_per_token
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:   # both modules import this one
    from repro.serving.engine import _FinishedSink
    from repro.serving.prefix_cache import PrefixCache


@dataclass(frozen=True)
class SchedulerLimits:
    """Operational limits of the serving endpoint."""

    max_batch: int = 256
    prefill_chunk_tokens: int = 512
    kv_budget_bytes: float = float("inf")

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.prefill_chunk_tokens < 1:
            raise ValueError("limits must be >= 1")


@dataclass(slots=True)
class IterationPlan:
    """What one engine iteration will execute.

    ``decode_batch`` and ``decode_context_sum`` capture the decode
    batch's size and summed context lengths at planning time; the batch
    itself is the scheduler's ``decoding`` set, which the completion
    call stamps.
    """

    prefill_request: Request | None = None
    prefill_tokens: int = 0
    decode_batch: int = 0
    decode_context_sum: int = 0

    @property
    def has_work(self) -> bool:
        return self.decode_batch > 0 or self.prefill_tokens > 0


class ContinuousBatchingScheduler:
    """FIFO admission, chunked prefill, iteration-level batching.

    ``decoding`` maps each decode member, in join (batch) order, to its
    ``(finish step, join order, request)`` entry in the finish heap.

    With a :class:`~repro.serving.prefix_cache.PrefixCache` attached
    the scheduler additionally runs block-granular KV accounting:
    admission allocates the prompt's blocks through the cache (scoring
    a prefix hit that shrinks the chunked-prefill work to the uncached
    suffix), decode growth claims a block when a member crosses a block
    boundary, finished session turns are released *into* the cache,
    and block exhaustion stalls admission or preempts a running request
    for recompute.
    Without a cache (``prefix_cache=None``) not one of those code paths
    is entered — the scheduler is bit-identical to the cold path.
    """

    def __init__(self, model: ModelConfig, limits: SchedulerLimits,
                 prefix_cache: PrefixCache | None = None) -> None:
        self.model = model
        self.limits = limits
        self.prefix_cache = prefix_cache
        self.queued: deque[Request] = deque()
        self.prefilling: list[Request] = []
        self.decoding: dict[Request, tuple] = {}
        self._kv_per_token = kv_bytes_per_token(model)
        # reserved KV bytes: each active request holds its full final
        # context (prompt + all output tokens), so admission never has to
        # evict mid-generation; kept on admit/finish, since a per-candidate
        # recompute made every iteration O(active^2)
        self._reserved_kv_bytes = 0.0
        # running sum of decode context lengths at planning time; exact
        # (integer) and updated on admit/finish/per-step so the engine
        # never rebuilds an O(batch) context list per iteration
        self._decode_context_sum = 0
        # derived decode progress: steps run, the last one's time, the
        # finish heap and the members the next step writes
        self._step = 0
        self._step_time: float | None = None
        self._joins = 0
        self._finishes: list[tuple] = []
        self._unstamped: list[Request] = []
        self._timelines: set[Request] = set()

    # ------------------------------------------------------------------ #
    # Bookkeeping                                                          #
    # ------------------------------------------------------------------ #

    @property
    def active_count(self) -> int:
        return len(self.prefilling) + len(self.decoding)

    @property
    def has_work(self) -> bool:
        return bool(self.queued) or bool(self.prefilling) \
            or bool(self.decoding)

    def _request_kv_bytes(self, request: Request) -> float:
        return (request.input_tokens + request.output_tokens) \
            * self._kv_per_token

    def enqueue(self, request: Request) -> None:
        if request.state != RequestState.QUEUED:
            raise ValueError("only queued requests can be enqueued")
        self.queued.append(request)

    # ------------------------------------------------------------------ #
    # Derived decode progress                                              #
    # ------------------------------------------------------------------ #

    def _join(self, request: Request) -> None:
        """Move a request whose prefill completed into the decode batch."""
        request.state = RequestState.DECODING
        entry = (self._step + request.output_tokens
                 - request.generated_tokens, self._joins, request)
        self._joins += 1
        self.decoding[request] = entry
        heapq.heappush(self._finishes, entry)
        if request.first_token_time is None:
            self._unstamped.append(request)
        if request.record_token_times:
            self._timelines.add(request)
        self._decode_context_sum += request.context_len

    def _progress(self, request: Request) -> tuple[int, float | None]:
        """A decode member's ``(generated_tokens, last_token_time)``,
        derived from the step counter without writing the request."""
        generated = request.output_tokens + self._step \
            - self.decoding[request][0]
        if generated == request.generated_tokens:
            # no step since the request was last written
            return generated, request.last_token_time
        return generated, self._step_time

    def settle(self) -> None:
        """Write every decode member's derived progress to its request
        (the run's result reads the members still running)."""
        for request in self.decoding:
            request.generated_tokens, request.last_token_time = \
                self._progress(request)

    def steps_until_finish(self) -> int:
        """Decode steps until the earliest member finishes."""
        return self._finishes[0][0] - self._step

    def _stamp(self, times: Sequence[float],
               finished: list[Request] | _FinishedSink) -> list:
        """Run ``len(times)`` decode steps of the whole decode batch.

        ``times`` holds the steps' completion stamps in order, and no
        member may finish before the last one (at most
        :meth:`steps_until_finish` steps).  Each member ends as if
        :meth:`Request.record_token` had been called once per stamp: the
        members on their first step get their first-token stamp, the
        ``record_token_times`` members their timelines, and the members
        that finish on the last step are written, leave the batch, and
        are appended to ``finished`` and returned, in batch order.
        """
        step = self._step = self._step + len(times)
        last = self._step_time = times[-1]
        if self._unstamped:
            first = times[0]
            for request in self._unstamped:
                request.first_token_time = first
            self._unstamped = []
        for request in self._timelines:
            request.token_times.extend(times)
        done: list[Request] = []
        finishes = self._finishes
        while finishes and finishes[0][0] <= step:
            request = heapq.heappop(finishes)[2]
            del self.decoding[request]
            self._timelines.discard(request)
            request.generated_tokens = request.output_tokens
            request.last_token_time = last
            request.finish_time = last
            request.state = RequestState.FINISHED
            finished.append(request)
            done.append(request)
        return done

    # ------------------------------------------------------------------ #
    # Iteration planning                                                   #
    # ------------------------------------------------------------------ #

    def _admit(self) -> None:
        cache = self.prefix_cache
        while self.queued and self.active_count < self.limits.max_batch:
            candidate = self.queued[0]
            projected = self._reserved_kv_bytes \
                + self._request_kv_bytes(candidate)
            if projected > self.limits.kv_budget_bytes:
                break
            if cache is not None:
                hit = cache.acquire(candidate)
                if hit is None:
                    # block pool exhausted even after reclaiming every
                    # cached prefix: stall until running work completes
                    break
                if hit > 0:
                    # the cached prefix is already resident — chunked
                    # prefill only charges the uncached suffix
                    candidate.prefilled_tokens = hit
            self.queued.popleft()
            candidate.state = RequestState.PREFILLING
            self.prefilling.append(candidate)
            self._reserved_kv_bytes = projected

    def plan_iteration(self) -> IterationPlan:
        """Admit, pick the prefill chunk and the decode batch."""
        self._admit()
        plan = IterationPlan(
            decode_batch=len(self.decoding),
            decode_context_sum=self._decode_context_sum,
        )
        if self.prefilling:
            head = self.prefilling[0]
            plan.prefill_request = head
            plan.prefill_tokens = min(self.limits.prefill_chunk_tokens,
                                      head.prefill_remaining)
        return plan

    def _retire_one(self, request: Request) -> None:
        self._reserved_kv_bytes -= self._request_kv_bytes(request)
        self._decode_context_sum -= request.context_len
        if self.prefix_cache is not None:
            # released *into* the cache: a session turn's blocks stay
            # resident as the next turn's prefix
            self.prefix_cache.stash(request)

    def _retire(self, steps: int, finished: Sequence[Request]) -> None:
        """Retire the members that finished on the last of ``steps``
        decode steps (with their block growth in prefix-cache mode)."""
        if self.prefix_cache is not None:
            self._grow_and_retire(steps, finished)
        else:
            for request in finished:
                self._retire_one(request)

    # ------------------------------------------------------------------ #
    # Block growth + preemption (prefix-cache mode only)                   #
    # ------------------------------------------------------------------ #

    def _grow_and_retire(self, steps: int,
                         finished: Sequence[Request]) -> None:
        """Claim the blocks the batch's ``steps`` new tokens occupy,
        then retire the finished members.

        Finished members grow and retire first, one at a time — each
        stash makes its blocks reclaimable for the next — so finished
        work is never stranded while survivors starve.  A finishing
        member whose final-step growth cannot be supplied even then is
        retired without it (its blocks are being released this instant;
        the cached prefix just ends ``< steps`` tokens short).

        The survivors then grow, paying only for block crossings: one
        allocator loop advances every survivor whose new tokens fit in
        its last block, and only the members that cross a block
        boundary claim blocks here, one at a time in batch order.  When
        a survivor's growth cannot be supplied, another active request
        is preempted for recompute (vLLM's recompute path) and the
        growth retried; finished members left the batch when they were
        stamped, so they are never victims.  Advancing the in-block
        survivors first claims the same blocks at the same call as
        growing each member in turn: in-block growth takes no block, and
        a victim's release frees the same slack whether or not its
        tokens were advanced.

        The survivors are the live batch, so a request that finished
        prefill in this iteration also claims a token it did not emit
        (a known one-token over-claim).
        """
        for request in finished:
            self._claim_growth(request, steps, required=False)
            self._retire_one(request)
        batch = list(self.decoding)
        crossing = self.prefix_cache.allocator.extend_within_blocks(
            [r.request_id for r in batch], steps)
        for position in crossing:
            request = batch[position]
            # a claim before this one may have preempted it
            if request in self.decoding:
                self._claim_growth(request, steps)

    def _claim_growth(self, request: Request, steps: int,
                      required: bool = True) -> None:
        while not self.prefix_cache.extend(request, steps):
            victim = self._preemption_victim(request)
            if victim is None:
                if not required:
                    return
                raise MemoryError(
                    "KV block pool cannot hold a single request's "
                    "context; grow kv_budget_bytes")
            self._preempt(victim)

    def _preemption_victim(self, growing: Request) -> Request | None:
        """Youngest-first victim: last-admitted prefill, then the
        newest decode — never the growing request."""
        for pool in (self.prefilling, self.decoding):
            for candidate in reversed(pool):
                if candidate is not growing:
                    return candidate
        return None

    def _preempt(self, victim: Request) -> None:
        """Requeue ``victim`` for full recompute, freeing its blocks.

        The already-generated tokens keep their emission stamps (they
        were served); re-admission re-prefills prompt + generated
        context, encoded as a negative ``prefilled_tokens`` so
        ``prefill_remaining`` charges the whole recompute.
        """
        if victim.state == RequestState.DECODING:
            victim.generated_tokens, victim.last_token_time = \
                self._progress(victim)
            self._finishes.remove(self.decoding.pop(victim))
            heapq.heapify(self._finishes)
            if victim in self._unstamped:
                self._unstamped.remove(victim)
            self._timelines.discard(victim)
            self._decode_context_sum -= victim.context_len
        else:
            self.prefilling.remove(victim)
        self._reserved_kv_bytes -= self._request_kv_bytes(victim)
        self.prefix_cache.forfeit(victim)
        victim.prefilled_tokens = -victim.generated_tokens
        victim.state = RequestState.QUEUED
        self.queued.appendleft(victim)

    def _clamp_when_drained(self) -> None:
        if not self.prefilling and not self.decoding:
            # clamp float drift whenever the endpoint fully drains
            self._reserved_kv_bytes = 0.0
            self._decode_context_sum = 0

    def complete_iteration(self, plan: IterationPlan, now: float,
                           finished: list[Request] | _FinishedSink) -> None:
        """Apply state transitions after the engine executed ``plan``,
        whose step completed at ``now``: every decode-batch member emits
        one token (those that finish are appended to ``finished``, in
        batch order), then the prefill chunk lands."""
        if plan.decode_batch:
            done = self._stamp((now,), finished)
        if plan.prefill_request is not None:
            request = plan.prefill_request
            request.prefilled_tokens += plan.prefill_tokens
            if request.prefill_remaining == 0:
                self.prefilling.remove(request)
                self._join(request)
        if plan.decode_batch:
            self._decode_context_sum += plan.decode_batch
            self._retire(1, done)
        self._clamp_when_drained()

    def complete_burst(self, plan: IterationPlan, times: Sequence[float],
                       finished: list[Request] | _FinishedSink) -> None:
        """Apply ``len(times)`` consecutive pure-decode iterations at
        once, the steps completing at ``times``.

        The engine's fast-forward path guarantees no prefill work and no
        admissions happened during the burst and that no member finishes
        before the final step; each decode member emits one token per
        step, and the members that finish on the final step are appended
        to ``finished``, in batch order.  In
        prefix-cache mode the whole burst's block growth is claimed here
        at once (a member takes blocks only when its new tokens cross a
        block boundary) — exhaustion is resolved at the burst boundary,
        not mid-step (the documented modeling simplification).
        """
        steps = len(times)
        self._decode_context_sum += plan.decode_batch * steps
        if steps:
            self._retire(steps, self._stamp(times, finished))
        self._clamp_when_drained()
