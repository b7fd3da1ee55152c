"""Streaming arrival consumption: the constant-memory request pipe.

A :class:`RequestStream` wraps a lazy request iterator (see
``iter_requests`` on :class:`~repro.api.specs.WorkloadSpec` and the
``iter_*`` arrival generators in :mod:`repro.serving.generator` /
:mod:`repro.serving.sessions`) and exposes exactly the head-of-queue
interface the engines already consume — truthiness, ``stream[0]`` and
``popleft()`` — so ``ServingEngine.run`` and ``ClusterEngine.run`` pull
arrivals one at a time instead of materializing the full request list.
Peak memory becomes the *in-flight* window (queued + batched requests),
independent of how many requests the workload describes.

The stream also owns the arrival-order contract.  The engines assume a
time-sorted arrival sequence; a materialized list can simply be sorted,
but sorting a generator would materialize it and defeat the point.  The
stream therefore checks monotonicity online as requests are pulled and
fails loudly — with the offending timestamp — the instant a producer
emits out of order.  Streaming never reorders: a stream that survives a
run is proof the producer was sorted, which is exactly the property the
bit-identity parity suites rely on.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.serving.request import Request


class OutOfOrderArrival(ValueError):
    """A streaming producer emitted arrivals out of time order."""


class RequestStream:
    """Deque-like view over a lazy, time-sorted request iterator.

    Supports the exact subset of :class:`collections.deque` the engines
    use on their pending queue: ``bool(stream)`` / ``stream[0]`` peek at
    the next arrival (pulling at most one request ahead — the bounded
    look-ahead window), ``popleft()`` consumes it, and iterating drains
    whatever remains (used for the unfinished tail of a truncated run).
    Every pull runs the online monotonicity check.
    """

    __slots__ = ("_source", "_head", "_exhausted", "_last_arrival",
                 "emitted")

    def __init__(self, source: Iterable[Request]) -> None:
        self._source = iter(source)
        self._head: Request | None = None
        self._exhausted = False
        self._last_arrival: float | None = None
        #: requests handed out so far (progress reporting)
        self.emitted = 0

    def _pull(self) -> None:
        if self._head is not None or self._exhausted:
            return
        try:
            request = next(self._source)
        except StopIteration:
            self._exhausted = True
            return
        last = self._last_arrival
        if last is not None and request.arrival_time < last:
            raise OutOfOrderArrival(
                f"streaming arrivals must be time-sorted: request "
                f"{request.request_id} arrives at "
                f"{request.arrival_time!r} after the stream already "
                f"reached {last!r}")
        self._last_arrival = request.arrival_time
        self._head = request

    def __bool__(self) -> bool:
        self._pull()
        return self._head is not None

    def __getitem__(self, index: int) -> Request:
        if index != 0:
            raise IndexError(
                "a RequestStream only exposes the head ([0]); deeper "
                "look-ahead would grow the window past its bound")
        self._pull()
        if self._head is None:
            raise IndexError("peek on an exhausted RequestStream")
        return self._head

    def popleft(self) -> Request:
        self._pull()
        head = self._head
        if head is None:
            raise IndexError("popleft on an exhausted RequestStream")
        self._head = None
        self.emitted += 1
        return head

    def __iter__(self) -> Iterator[Request]:
        while True:
            self._pull()
            if self._head is None:
                return
            yield self.popleft()


def as_stream(requests: Iterable[Request]) -> RequestStream:
    """Wrap any time-sorted request iterable (idempotent on streams)."""
    if isinstance(requests, RequestStream):
        return requests
    return RequestStream(requests)
