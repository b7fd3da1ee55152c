"""Serving requests and their lifecycle timestamps.

A request arrives with an input length and a target output length; the
engine stamps prefill completion and every emitted token, from which the
QoS calculator derives TTFT, TBT and end-to-end latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RequestState(enum.Enum):
    QUEUED = "queued"        # arrived, not yet admitted
    PREFILLING = "prefill"   # admitted, prompt being chunk-prefilled
    DECODING = "decode"      # generating tokens
    FINISHED = "finished"
    FAILED = "failed"        # abandoned: retry budget or deadline spent


@dataclass(eq=False, slots=True)
class Request:
    """One user request flowing through the simulator.

    Requests are *mutable identities*, not values: two requests with the
    same lengths and timestamps are still distinct pieces of in-flight
    work, so equality and hashing are by object identity (``eq=False``).
    That lets engines keep requests in sets and membership-test them in
    O(1) without two same-shaped requests aliasing each other.

    ``session_id`` links the turns of one multi-turn conversation; the
    cluster's session-affinity router uses it to pin a conversation (and
    its reusable KV prefix) to one replica.  Single-turn streams leave it
    ``None``.  ``turn_index`` is the turn's position within its session
    and ``history_tokens`` counts the leading prompt tokens that repeat
    the previous turns verbatim — the reusable prefix a
    :class:`~repro.serving.prefix_cache.PrefixCache` can serve from
    cached KV blocks.

    Token tracking is slim by default: QoS needs only the first/last
    emission stamps and the token count (TTFT, the mean inter-token gap
    and E2E all derive from those), so ``token_times`` stays empty unless
    ``record_token_times=True`` asks for the full per-token timeline
    (trace exports, debugging).  Recording on or off, every derived
    metric is identical.

    While a request is DECODING in a
    :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, its
    ``generated_tokens`` and ``last_token_time`` — and so
    ``context_len``, ``done`` and ``tbt`` — are written only at events
    (its first token, finish or preemption); read them after
    ``scheduler.settle()``.
    """

    request_id: int
    arrival_time: float
    input_tokens: int
    output_tokens: int
    state: RequestState = RequestState.QUEUED
    prefilled_tokens: int = 0
    generated_tokens: int = 0
    first_token_time: float | None = None
    finish_time: float | None = None
    token_times: list = field(default_factory=list)
    session_id: int | None = None
    last_token_time: float | None = None
    record_token_times: bool = False
    turn_index: int = 0
    history_tokens: int = 0
    retries: int = 0

    def __post_init__(self) -> None:
        if self.input_tokens < 1 or self.output_tokens < 1:
            raise ValueError("requests need at least one input and output token")
        if not self.arrival_time >= 0:
            raise ValueError("arrival time must be non-negative")
        if self.turn_index < 0:
            raise ValueError("turn_index must be non-negative")
        if not 0 <= self.history_tokens <= self.input_tokens:
            raise ValueError(
                "history_tokens must lie within [0, input_tokens] — the "
                "reusable prefix is part of the prompt")

    @property
    def context_len(self) -> int:
        """Current KV length: prefilled prompt plus generated tokens
        (for a member of a continuous-batching decode batch, as of the
        scheduler's last ``settle()`` or event)."""
        return self.prefilled_tokens + self.generated_tokens

    @property
    def prefill_remaining(self) -> int:
        return self.input_tokens - self.prefilled_tokens

    @property
    def done(self) -> bool:
        return self.generated_tokens >= self.output_tokens

    # ------------------------------------------------------------------ #
    # QoS per request                                                      #
    # ------------------------------------------------------------------ #

    @property
    def ttft(self) -> float:
        """Time to first token (arrival -> first emission)."""
        if self.first_token_time is None:
            raise ValueError(f"request {self.request_id} has no first token")
        return self.first_token_time - self.arrival_time

    @property
    def tbt(self) -> float:
        """Mean time between tokens after the first."""
        if self.generated_tokens < 2:
            return 0.0
        return (self.last_token_time - self.first_token_time) \
            / (self.generated_tokens - 1)

    @property
    def e2e_latency(self) -> float:
        if self.finish_time is None:
            raise ValueError(f"request {self.request_id} is not finished")
        return self.finish_time - self.arrival_time

    def reset_for_retry(self) -> None:
        """Crash recovery: every generated token is lost and the request
        re-enters a queue from scratch.

        The original ``arrival_time`` is kept on purpose — TTFT and E2E
        measure what the *user* experienced, and a crash mid-generation
        is part of that experience, not a fresh arrival.
        """
        self.retries += 1
        self.state = RequestState.QUEUED
        self.prefilled_tokens = 0
        self.generated_tokens = 0
        self.first_token_time = None
        self.last_token_time = None
        self.finish_time = None
        if self.token_times:
            self.token_times.clear()

    def mark_failed(self) -> None:
        """Terminal failure: retry budget or deadline exhausted.

        A failed request keeps its arrival stamp and loses everything
        else.
        """
        self.state = RequestState.FAILED
        self.prefilled_tokens = 0
        self.generated_tokens = 0
        self.first_token_time = None
        self.last_token_time = None
        self.finish_time = None
        if self.token_times:
            self.token_times.clear()

    def record_token(self, now: float) -> None:
        """Stamp one generated token at simulation time ``now``."""
        self.generated_tokens += 1
        if self.record_token_times:
            self.token_times.append(now)
        if self.first_token_time is None:
            self.first_token_time = now
        self.last_token_time = now
        if self.done:
            self.finish_time = now
            self.state = RequestState.FINISHED
