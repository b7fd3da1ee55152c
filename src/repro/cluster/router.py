"""Router policies: which replica a newly arrived request joins.

The cluster front-end sees every request before any replica does; a
*router policy* picks the replica from one :class:`ReplicaSnapshot` per
routable replica, built from its live counters at the routing instant.
A snapshot holds five fields: the durable ``replica_id``, the
outstanding request count and token mass, and the replica group's two
probed capability rates.  A policy that wants more (a replica's clock,
its queue split, its chip) keeps that state itself, as session affinity
keeps its homes.  Policies follow the repo's registry
idiom (:class:`repro.registry.Registry`): a decorator registers a
zero-arg factory under a string name, and experiment JSON / the CLI
address it as ``DeploymentSpec.router``::

    from repro.cluster.router import register_router

    @register_router("my-policy")
    class MyRouter:
        def route(self, request, replicas):  # -> position in `replicas`
            ...

**The routing contract**: ``route`` returns a *position in the snapshot
sequence it was handed*, not a ``ReplicaSnapshot.replica_id``.  The two
coincide on a fixed fleet (ids are assigned 0..N-1 in position order),
but an autoscaled fleet retires replicas from the middle of the id
space, so the snapshot sequence is the only stable frame of reference a
policy has.  Policies that want to remember a replica across calls
(e.g. session affinity) must store the ``replica_id`` and translate it
back to a position through the snapshots they are given — ids are
durable, positions are per-call.

Built-ins:

* ``round-robin``       — cycle through replicas in arrival order;
* ``least-outstanding`` — join the shortest queue (JSQ): fewest requests
  submitted-but-unfinished, ties to the lowest replica id;
* ``session-affinity``  — pin each ``Request.session_id`` to the replica
  its first turn joined (KV-prefix locality); sessionless requests fall
  back to least-outstanding;
* ``slo-aware``         — short prompts (TTFT-critical) join the
  shortest queue by *request count*; long prompts join the replica with
  the least outstanding *token mass*, spreading heavy prefills by work
  rather than arrival order;
* ``hetero-aware``      — the mixed-fleet generalization of
  ``slo-aware``: queue state is divided by each replica's probed
  prefill/decode capability, so prefill-heavy prompts prefer
  prefill-fast groups (falls back to ``slo-aware`` behavior when no
  capability estimates are present).

The threshold routers also resolve parametric names — ``"slo-aware:N"``
/ ``"hetero-aware:N"`` set the short-prompt boundary to ``N`` input
tokens (see :func:`make_router`).

All built-ins are deterministic: the same request stream always produces
the same assignment, so cluster experiments replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.registry import Registry
from repro.serving.request import Request


@dataclass(frozen=True, slots=True)
class ReplicaSnapshot:
    """One replica's load as the router sees it at a routing or decision
    instant: the five fields the built-in routers and autoscalers read,
    built from the replica's live counters at each call.

    The two rate fields describe *what kind* of replica this is, not its
    load.  They are single-request microbenchmark estimates the engine
    probes once per group (tokens/s of a 512-token prefill, tokens/s of
    a batch-8 decode step), comparable across chips but not a throughput
    promise under load; on a homogeneous fleet the engine leaves them at
    0.0, so every policy but ``hetero-aware`` reads the same snapshots
    whether or not a fleet was spec'd as groups.
    """

    replica_id: int
    outstanding_requests: int   # submitted to the replica, not finished
    outstanding_tokens: int     # input+output tokens of those requests
    prefill_tokens_per_s: float = 0.0   # 0.0 = capability unknown
    decode_tokens_per_s: float = 0.0    # 0.0 = capability unknown


class RouterPolicy(Protocol):
    """A (possibly stateful) routing decision function."""

    def route(self, request: Request,
              replicas: Sequence[ReplicaSnapshot]) -> int:
        """Return the position in ``replicas`` the request joins."""
        ...


ROUTER_REGISTRY = Registry("router policy")


def register_router(name: str) -> Callable:
    """Decorator: register a zero-arg :class:`RouterPolicy` factory."""

    def _decorate(factory: Callable[[], RouterPolicy]):
        ROUTER_REGISTRY.register(name, factory)
        return factory

    return _decorate


def get_router(name: str) -> Callable[[], RouterPolicy]:
    """Look up a router factory by name."""
    return ROUTER_REGISTRY.get(name)


def make_router(router: str | RouterPolicy) -> RouterPolicy:
    """Resolve a name to a fresh policy instance; pass instances through.

    Threshold routers accept a parametric form ``"name:N"`` (e.g.
    ``"slo-aware:128"``) setting the short/long prompt boundary to
    ``N`` input tokens — the name stays a plain string, so it rides
    through experiment JSON and sharded-run pickling unchanged.
    """
    if isinstance(router, str):
        base, sep, raw = router.partition(":")
        if sep and base in _PARAMETRIC_ROUTERS:
            try:
                short = int(raw)
            except ValueError:
                raise ValueError(
                    f"router {router!r}: expected an integer token "
                    f"threshold after ':', got {raw!r}") from None
            return _PARAMETRIC_ROUTERS[base](short_input_tokens=short)
        return get_router(router)()
    return router


def list_routers() -> list[str]:
    """Registered router-policy names, sorted."""
    return ROUTER_REGISTRY.names()


def _least_outstanding(replicas: Sequence[ReplicaSnapshot]) -> int:
    # position, not replica_id: the two only coincide on a fixed fleet.
    # Ties still break on the (durable) id so the choice is deterministic
    # regardless of how the engine happens to order its snapshots.
    return min(range(len(replicas)),
               key=lambda i: (replicas[i].outstanding_requests,
                              replicas[i].replica_id))


def _least_outstanding_tokens(replicas: Sequence[ReplicaSnapshot]) -> int:
    return min(range(len(replicas)),
               key=lambda i: (replicas[i].outstanding_tokens,
                              replicas[i].replica_id))


@register_router("round-robin")
class RoundRobinRouter:
    """Cycle through replicas in arrival order (load-blind).

    The cursor cycles over *current snapshot positions*, keeping its
    phase across fleet-size changes and clamping back to 0 only when a
    shrink leaves it out of range.  Each size-epoch therefore
    round-robins cleanly — a bare ``counter % len(replicas)`` would
    skew after a resize (an unclamped counter lands on an arbitrary
    phase and can starve or double-feed positions for a full lap),
    while resetting to 0 on *every* size change would bias position 0
    whenever the routable count oscillates between arrivals (replicas
    finishing provisioning or starting to drain).  On a fixed fleet
    neither correction fires and the assignment is the classic
    0,1,...,N-1 cycle.
    """

    def __init__(self) -> None:
        self._next = 0

    def route(self, request: Request,
              replicas: Sequence[ReplicaSnapshot]) -> int:
        if self._next >= len(replicas):
            self._next = 0
        index = self._next
        self._next = (self._next + 1) % len(replicas)
        return index


@register_router("least-outstanding")
class LeastOutstandingRouter:
    """Join the shortest queue: fewest submitted-but-unfinished requests."""

    def route(self, request: Request,
              replicas: Sequence[ReplicaSnapshot]) -> int:
        return _least_outstanding(replicas)


@register_router("session-affinity")
class SessionAffinityRouter:
    """Sticky sessions: every turn of a conversation hits one replica.

    The first turn of a session joins the shortest queue; later turns
    follow it regardless of load, modeling the KV-prefix locality a real
    deployment buys with consistent hashing.  Requests without a
    ``session_id`` degrade to least-outstanding.

    Homes are remembered by ``replica_id`` — the durable name — and
    translated to a position through the snapshots of each call.  A
    session whose home replica was scaled away (its id no longer
    appears in the snapshot sequence) is re-pinned to the current
    shortest queue; checking id *membership* rather than ``home <
    len(replicas)`` matters because a post-scale-down fleet keeps
    non-contiguous ids (e.g. ``[0, 2, 3]``), where the old length guard
    would both evict live homes and follow stale ones.
    """

    def __init__(self) -> None:
        self._home: dict[int, int] = {}   # session_id -> replica_id

    def route(self, request: Request,
              replicas: Sequence[ReplicaSnapshot]) -> int:
        if request.session_id is None:
            return _least_outstanding(replicas)
        position_of = {snapshot.replica_id: position
                       for position, snapshot in enumerate(replicas)}
        home = self._home.get(request.session_id)
        position = position_of.get(home) if home is not None else None
        if position is None:
            position = _least_outstanding(replicas)
            self._home[request.session_id] = replicas[position].replica_id
        return position


@register_router("slo-aware")
class SloAwareRouter:
    """TTFT-aware split routing.

    Short prompts are latency-critical (their TTFT is dominated by
    queueing, not prefill), so they join the replica with the fewest
    outstanding *requests*.  Long prompts bring large prefill work, so
    they join the replica with the least outstanding *token mass* —
    balancing by work keeps a run of heavy prompts from stacking up on
    one replica while short interactive traffic queues behind them.
    """

    def __init__(self, short_input_tokens: int = 256) -> None:
        if short_input_tokens < 1:
            raise ValueError("short_input_tokens must be >= 1")
        self.short_input_tokens = short_input_tokens

    def route(self, request: Request,
              replicas: Sequence[ReplicaSnapshot]) -> int:
        if request.input_tokens <= self.short_input_tokens:
            return _least_outstanding(replicas)
        return _least_outstanding_tokens(replicas)


def _prefill_drain_s(snapshot: ReplicaSnapshot, input_tokens: int) -> float:
    """Estimated seconds to prefill the queue plus this request."""
    if snapshot.prefill_tokens_per_s <= 0.0:
        return float("inf")
    return (snapshot.outstanding_tokens + input_tokens) \
        / snapshot.prefill_tokens_per_s


def _fastest_prefill(replicas: Sequence[ReplicaSnapshot],
                     input_tokens: int) -> int:
    return min(range(len(replicas)),
               key=lambda i: (_prefill_drain_s(replicas[i], input_tokens),
                              replicas[i].replica_id))


def _fastest_decode(replicas: Sequence[ReplicaSnapshot]) -> int:
    def drain(snapshot: ReplicaSnapshot) -> float:
        if snapshot.decode_tokens_per_s <= 0.0:
            return float("inf")
        return (snapshot.outstanding_requests + 1) \
            / snapshot.decode_tokens_per_s

    return min(range(len(replicas)),
               key=lambda i: (drain(replicas[i]),
                              replicas[i].replica_id))


@register_router("hetero-aware")
class HeteroAwareRouter:
    """Capability-aware split routing for mixed-chip fleets.

    Generalizes ``slo-aware`` by weighting queue state with each
    replica's probed capability: long prompts join the replica whose
    *prefill-normalized* backlog (outstanding tokens plus this prompt,
    divided by the group's prefill rate) drains soonest — sending
    prefill-heavy traffic to prefill-fast groups — while short prompts
    join the replica whose request queue drains soonest by decode rate.

    On a fleet whose snapshots carry no capability estimates (the
    homogeneous single-group path leaves the rates at 0.0), both
    choices collapse to the ``slo-aware`` tie-breaks, so the policy is
    bit-identical to ``slo-aware`` there — capability awareness costs
    nothing until a fleet actually mixes groups.
    """

    def __init__(self, short_input_tokens: int = 256) -> None:
        if short_input_tokens < 1:
            raise ValueError("short_input_tokens must be >= 1")
        self.short_input_tokens = short_input_tokens

    def route(self, request: Request,
              replicas: Sequence[ReplicaSnapshot]) -> int:
        # "any rate known" not "all known": a fleet mixing probed and
        # unknown groups should still prefer the probed ones (unknown
        # drains compare as +inf) rather than ignore capability.
        known = any(snapshot.prefill_tokens_per_s > 0.0
                    for snapshot in replicas)
        if request.input_tokens <= self.short_input_tokens:
            if not known:
                return _least_outstanding(replicas)
            return _fastest_decode(replicas)
        if not known:
            return _least_outstanding_tokens(replicas)
        return _fastest_prefill(replicas, request.input_tokens)


# Routers whose registry name accepts a ":N" token-threshold suffix.
_PARAMETRIC_ROUTERS = {
    "slo-aware": SloAwareRouter,
    "hetero-aware": HeteroAwareRouter,
}
