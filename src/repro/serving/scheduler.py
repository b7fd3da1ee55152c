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
decode batch is handed out as a stable reference (no per-iteration
copies), the sum of decode context lengths is a running integer counter
(so the engine never rebuilds an O(batch) context list), and the
admission queue is a :class:`collections.deque` (O(1) FIFO pops).  All
counters are exact — integer arithmetic has no drift — so the
incremental state is bit-identical to recomputing from scratch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.models.config import ModelConfig
from repro.models.kv_cache import kv_bytes_per_token
from repro.serving.request import Request, RequestState


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

    ``decode_requests`` may alias the scheduler's live decode list (the
    engine consumes the plan before the scheduler mutates it again), so
    ``decode_batch`` and ``decode_context_sum`` capture the batch size
    and the summed context lengths at planning time.  The engine reports
    the requests that finished during the iteration via
    ``finished_decodes``; when left ``None`` (direct scheduler drivers),
    :meth:`ContinuousBatchingScheduler.complete_iteration` scans for
    finished members itself.
    """

    decode_requests: list = field(default_factory=list)
    prefill_request: Request | None = None
    prefill_tokens: int = 0
    decode_batch: int = 0
    decode_context_sum: int = 0
    finished_decodes: list | None = None

    def __post_init__(self) -> None:
        if self.decode_requests and self.decode_batch == 0:
            # hand-built plans get the derived fields filled in
            self.decode_batch = len(self.decode_requests)
            self.decode_context_sum = sum(
                r.context_len for r in self.decode_requests)

    @property
    def has_work(self) -> bool:
        return self.decode_batch > 0 or self.prefill_tokens > 0


class ContinuousBatchingScheduler:
    """FIFO admission, chunked prefill, iteration-level batching.

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
                 prefix_cache=None) -> None:
        self.model = model
        self.limits = limits
        self.prefix_cache = prefix_cache
        self.queued: deque[Request] = deque()
        self.prefilling: list[Request] = []
        self.decoding: list[Request] = []
        self._kv_per_token = kv_bytes_per_token(model)
        self._reserved_kv_bytes = 0.0
        # running sum of decode context lengths at planning time; exact
        # (integer) and updated on admit/finish/per-step so the engine
        # never rebuilds an O(batch) context list per iteration
        self._decode_context_sum = 0

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

    def kv_bytes_in_use(self) -> float:
        """Reserved KV bytes: each active request holds its full final
        context (prompt + all output tokens) so admission never has to
        evict mid-generation.  Maintained incrementally on admit/finish —
        recomputing the sum per admission candidate made every engine
        iteration O(active^2)."""
        return self._reserved_kv_bytes

    def decode_context_sum(self) -> int:
        """Summed context lengths of the decode batch (running counter)."""
        return self._decode_context_sum

    def enqueue(self, request: Request) -> None:
        if request.state != RequestState.QUEUED:
            raise ValueError("only queued requests can be enqueued")
        self.queued.append(request)

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
                    candidate.cached_prefix_tokens = hit
            self.queued.popleft()
            candidate.state = RequestState.PREFILLING
            self.prefilling.append(candidate)
            self._reserved_kv_bytes = projected

    def plan_iteration(self) -> IterationPlan:
        """Admit, pick the prefill chunk and the decode batch."""
        self._admit()
        plan = IterationPlan(
            decode_requests=self.decoding,
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

    def _drop_from_decoding(self, finished: list) -> None:
        finished_set = set(finished)  # identity-keyed (Request has eq=False)
        self.decoding = [r for r in self.decoding
                         if r not in finished_set]

    def _remove_finished(self, finished: list) -> None:
        for request in finished:
            self._retire_one(request)
        self._drop_from_decoding(finished)

    # ------------------------------------------------------------------ #
    # Block growth + preemption (prefix-cache mode only)                   #
    # ------------------------------------------------------------------ #

    def _grow_and_retire(self, batch: list, steps: int,
                         finished: list) -> None:
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
        growth retried; finished members are never victims.  Advancing
        the in-block survivors first claims the same blocks at the same
        call as growing each member in turn: in-block growth takes no
        block, and a victim's release frees the same slack whether or
        not its tokens were advanced.
        """
        exempt = set(finished)  # identity-keyed (Request has eq=False)
        preempted: set = set()
        for request in finished:
            self._claim_growth(request, steps, exempt, preempted,
                               required=False)
            self._retire_one(request)
        if finished:
            self._drop_from_decoding(finished)
            batch = [r for r in batch
                     if r not in exempt and r not in preempted]
        crossing = self.prefix_cache.allocator.extend_within_blocks(
            [r.request_id for r in batch], steps)
        # snapshot before claiming: a preemption may shrink ``batch``
        for request in [batch[i] for i in crossing]:
            if request not in preempted:
                self._claim_growth(request, steps, exempt, preempted)

    def _claim_growth(self, request: Request, steps: int,
                      exempt: set, preempted: set,
                      required: bool = True) -> None:
        while not self.prefix_cache.extend(request, steps):
            victim = self._preemption_victim(request, exempt)
            if victim is None:
                if not required:
                    return
                raise MemoryError(
                    "KV block pool cannot hold a single request's "
                    "context; grow kv_budget_bytes")
            self._preempt(victim)
            preempted.add(victim)

    def _preemption_victim(self, growing: Request,
                           exempt: set) -> Request | None:
        """Youngest-first victim: last-admitted prefill, then the
        newest decode — never the growing request or a finished one."""
        for pool in (self.prefilling, self.decoding):
            for candidate in reversed(pool):
                if candidate is growing or candidate in exempt:
                    continue
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
            self.decoding.remove(victim)
            self._decode_context_sum -= victim.context_len
        else:
            self.prefilling.remove(victim)
        self._reserved_kv_bytes -= self._request_kv_bytes(victim)
        self.prefix_cache.forfeit(victim)
        victim.prefilled_tokens = -victim.generated_tokens
        victim.cached_prefix_tokens = 0
        victim.state = RequestState.QUEUED
        self.queued.appendleft(victim)

    def _clamp_when_drained(self) -> None:
        if not self.prefilling and not self.decoding:
            # clamp float drift whenever the endpoint fully drains
            self._reserved_kv_bytes = 0.0
            self._decode_context_sum = 0

    def complete_iteration(self, plan: IterationPlan) -> None:
        """Apply state transitions after the engine executed ``plan``."""
        if plan.prefill_request is not None:
            request = plan.prefill_request
            request.prefilled_tokens += plan.prefill_tokens
            if request.prefill_remaining == 0:
                self.prefilling.remove(request)
                request.state = RequestState.DECODING
                self.decoding.append(request)
                self._decode_context_sum += request.context_len
        if plan.decode_batch:
            # every decode-batch member emitted one token this iteration
            self._decode_context_sum += plan.decode_batch
            finished = plan.finished_decodes
            if finished is None:
                finished = [r for r in self.decoding
                            if r.state == RequestState.FINISHED]
            if self.prefix_cache is not None:
                # plan.decode_requests aliases self.decoding, so a
                # request that finished prefill above also claims a
                # token it did not emit (a known one-token over-claim)
                self._grow_and_retire(plan.decode_requests, 1, finished)
            elif finished:
                self._remove_finished(finished)
        self._clamp_when_drained()

    def complete_burst(self, plan: IterationPlan, steps: int,
                       finished: list) -> None:
        """Apply ``steps`` consecutive pure-decode iterations at once.

        The engine's fast-forward path guarantees no prefill work and no
        admissions happened during the burst; each decode member emitted
        ``steps`` tokens and ``finished`` lists the members that
        completed on the final step.  In prefix-cache mode the whole
        burst's block growth is claimed here at once (a member takes
        blocks only when its ``steps`` tokens cross a block boundary) —
        exhaustion is resolved at the burst boundary, not mid-step (the
        documented modeling simplification).
        """
        self._decode_context_sum += plan.decode_batch * steps
        if self.prefix_cache is not None and steps > 0:
            self._grow_and_retire(plan.decode_requests, steps, finished)
        elif finished:
            self._remove_finished(finished)
        self._clamp_when_drained()
