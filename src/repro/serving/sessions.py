"""Multi-turn chat sessions (the workload behind ultrachat's statistics).

A chat user sends follow-up turns whose prompts carry the running
conversation; the serving system therefore sees correlated requests with
growing inputs.  :class:`MultiTurnSessionGenerator` produces such
sessions — turn *t*'s input length is the accumulated history plus a
fresh question — and :func:`iter_session_requests` flattens Poisson
session starts into the time-sorted arrival stream the engine consumes.

The single-turn :class:`~repro.serving.dataset.ChatTraceConfig` marginals
remain the calibration target: sessions are built so the *aggregate*
distribution of effective input lengths matches the multi-turn ultrachat
statistics DESIGN.md documents.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.serving.generator import (
    STREAM_CHUNK,
    _chunk_sizes,
    _skip_exponential,
)
from repro.serving.request import Request
from repro.spec_codec import SpecCodec


@dataclass(frozen=True)
class SessionConfig(SpecCodec):
    """Shape of a multi-turn chat session."""

    mean_turns: float = 3.7          # ultrachat's published average
    question_median: float = 60.0    # fresh tokens per turn
    question_sigma: float = 0.7
    answer_median: float = 220.0
    answer_sigma: float = 0.6
    think_time_mean_s: float = 20.0  # user pause between turns
    max_context: int = 8192

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.mean_turns < math.inf:
            raise ValueError(
                f"mean_turns must be finite and >= 1 (a session needs at "
                f"least one expected turn), got {self.mean_turns!r}")
        for name in ("question_median", "answer_median"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}")
        for name in ("question_sigma", "answer_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, "
                    f"got {value!r}")
        if not self.think_time_mean_s >= 0:
            raise ValueError(
                f"think_time_mean_s must be non-negative (the mean think "
                f"time between turns), got {self.think_time_mean_s!r}")
        if not self.max_context >= 1:
            raise ValueError(
                f"max_context must be >= 1, got {self.max_context!r}")


@dataclass(frozen=True)
class SessionTurn:
    """One turn with its accumulated context."""

    session_id: int
    turn_index: int
    arrival_time: float
    input_tokens: int    # history + fresh question
    output_tokens: int
    history_tokens: int = 0  # leading prompt tokens repeating past turns


class MultiTurnSessionGenerator:
    """Generates one session at a time from an injected RNG."""

    def __init__(self, config: SessionConfig,
                 rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng

    def _length(self, median: float, sigma: float) -> int:
        return max(1, int(round(self.rng.lognormal(np.log(median), sigma))))

    def generate_session(self, session_id: int,
                         start_time: float) -> list[SessionTurn]:
        """One session: geometric turn count, growing context."""
        config = self.config
        # geometric with the configured mean (>= 1 turn)
        p = 1.0 / config.mean_turns
        turns = self.rng.geometric(p)
        history = 0
        now = start_time
        out: list[SessionTurn] = []
        for index in range(turns):
            question = self._length(config.question_median,
                                    config.question_sigma)
            answer = self._length(config.answer_median, config.answer_sigma)
            input_tokens = min(history + question, config.max_context)
            out.append(SessionTurn(
                session_id=session_id,
                turn_index=index,
                arrival_time=now,
                input_tokens=input_tokens,
                output_tokens=answer,
                # context clamping can leave history == input_tokens;
                # the prefix cache separately guarantees at least one
                # recomputed token, so no extra clamp here
                history_tokens=min(history, input_tokens),
            ))
            history = min(input_tokens + answer, config.max_context)
            now += self.rng.exponential(config.think_time_mean_s)
        return out


def iter_session_requests(config: SessionConfig, sessions: int,
                          session_rate_per_s: float, seed: int,
                          chunk: int = STREAM_CHUNK) -> Iterator[Request]:
    """Poisson session starts, flattened to a time-sorted request stream.

    The draw order is all session-start gaps up front, then each
    session's body draws in session order; the turns are then ordered
    by a *stable* sort on arrival time.  The replay splits the stream
    into a start-gap generator and a body generator (fast-forwarded
    past the gap draws) and merges turns through a heap keyed on
    ``(arrival_time, session_id, turn_index)`` — the stable-sort order,
    since sessions are generated in id order and turns in index order.
    Before generating session *s* (starting at time ``start``), every
    buffered turn with ``arrival_time <= start`` is emitted: all turns
    of later sessions arrive at or after ``start`` (session starts are
    non-decreasing and think times are non-negative), so nothing that
    should sort earlier can still appear.  The heap holds only the
    turns of sessions whose tails overlap the current start time — the
    bounded look-ahead window.
    """
    if sessions < 0:
        raise ValueError("sessions must be non-negative")
    if session_rate_per_s <= 0:
        raise ValueError("session rate must be positive")
    start_rng = np.random.default_rng(seed)
    body_rng = np.random.default_rng(seed)
    _skip_exponential(body_rng, sessions, chunk)
    generator = MultiTurnSessionGenerator(config, body_rng)

    # (arrival, session_id, turn_index) reproduces the stable sort; the
    # SessionTurn payload is never compared because (sid, turn) is unique
    heap: list[tuple[float, int, int, SessionTurn]] = []
    request_id = 0
    session_id = 0
    total = 0.0

    def _emit(turn: SessionTurn) -> Request:
        nonlocal request_id
        request = Request(
            request_id=request_id,
            arrival_time=turn.arrival_time,
            input_tokens=turn.input_tokens,
            output_tokens=turn.output_tokens,
            session_id=turn.session_id,
            turn_index=turn.turn_index,
            history_tokens=turn.history_tokens,
        )
        request_id += 1
        return request

    for step in _chunk_sizes(sessions, chunk):
        gaps = start_rng.exponential(1.0 / session_rate_per_s, size=step)
        for i in range(step):
            total += float(gaps[i])
            start = float(total)
            while heap and heap[0][0] <= start:
                yield _emit(heapq.heappop(heap)[3])
            for turn in generator.generate_session(session_id, start):
                heapq.heappush(
                    heap,
                    (turn.arrival_time, turn.session_id,
                     turn.turn_index, turn))
            session_id += 1
    while heap:
        yield _emit(heapq.heappop(heap)[3])
