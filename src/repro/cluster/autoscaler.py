"""Autoscaler policies: how many replicas the fleet *should* have.

The cluster engine evaluates an *autoscaler policy* on a fixed decision
interval of simulated time; the policy sees a
:class:`FleetObservation` — the routable replicas' load snapshots plus
what happened since the last decision — and returns the desired number
of launched (ready + provisioning) replicas.  The engine clamps the
answer to ``[min_replicas, max_replicas]`` and enacts the difference:
scale-ups launch replicas that pay a modeled provision latency (a warm
pool shortens it), scale-downs *drain* — a retiring replica stops
receiving routed requests but finishes every admitted one, so no
request is ever dropped.

Policies follow the repo's registry idiom
(:class:`repro.registry.Registry`), exactly like routers and chips::

    from repro.cluster.autoscaler import register_autoscaler

    @register_autoscaler("my-policy")
    class MyPolicy:
        def desired_replicas(self, observation):  # -> int
            ...

Built-ins:

* ``queue-depth``     — size the fleet so each ready replica carries
  about 4 outstanding requests, with hysteresis on the way down
  (shrink only when the smaller fleet would still sit comfortably under
  target);
* ``slo-attainment``  — grow when the fraction of requests completed in
  the last interval that met a 0.5 s TTFT falls below 95 %,
  shrink when attainment holds and the fleet is nearly idle — the
  SLO-feedback loop of Ray-Serve-style deployments.

All built-ins are deterministic: the same request stream and spec always
produce the identical scaling history, so autoscaled experiments replay
bit-identically.

Policies size the fleet as a *total*; on a heterogeneous fleet
(:class:`~repro.api.specs.FleetSpec`) the engine decides **which group**
each unit of the difference lands on — scale-ups go to the cheapest
group with ``max_count`` headroom, scale-downs retire from the most
expensive group above its ``min_count`` floor, and each group's
``provision_latency_s`` (when set) overrides the spec-wide one.  A
one-group fleet collapses to the single-pool behavior exactly, so
existing policies and their scaling histories are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.cluster.router import ReplicaSnapshot
from repro.registry import Registry
from repro.spec_codec import SpecCodec


# --------------------------------------------------------------------- #
# What a policy sees                                                     #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FleetObservation:
    """The fleet as an autoscaler policy sees it at one decision instant.

    ``replicas`` snapshots only the *routable* replicas (ready and not
    draining) — the capacity that is actually taking traffic.
    ``interval_ttft_s`` holds the TTFT of every request that *completed*
    since the previous decision (completion-based because that is when
    the simulated control plane learns a request's latency).  The
    engine clamps a policy's answer to ``[min_replicas, max_replicas]``.
    """

    clock_s: float
    replicas: tuple[ReplicaSnapshot, ...]
    provisioning: int                    # launched, not ready yet
    interval_ttft_s: tuple[float, ...]

    @property
    def launched(self) -> int:
        """Ready + provisioning: the count ``desired_replicas`` targets."""
        return len(self.replicas) + self.provisioning

    @property
    def outstanding_requests(self) -> int:
        """Routed-but-unfinished requests across the routable fleet."""
        return sum(s.outstanding_requests for s in self.replicas)


class AutoscalerPolicy(Protocol):
    """A (possibly stateful) fleet-sizing decision function."""

    def desired_replicas(self, observation: FleetObservation) -> int:
        """Return the desired launched (ready + provisioning) count."""
        ...


# --------------------------------------------------------------------- #
# Registry                                                               #
# --------------------------------------------------------------------- #

AUTOSCALER_REGISTRY = Registry("autoscaler policy")


def register_autoscaler(name: str) -> Callable:
    """Decorator: register a zero-arg :class:`AutoscalerPolicy` factory."""

    def _decorate(factory: Callable[[], AutoscalerPolicy]):
        AUTOSCALER_REGISTRY.register(name, factory)
        return factory

    return _decorate


def get_autoscaler(name: str) -> Callable[[], AutoscalerPolicy]:
    """Look up an autoscaler factory by name."""
    return AUTOSCALER_REGISTRY.get(name)


def make_autoscaler(policy: str) -> AutoscalerPolicy:
    """A fresh instance of the policy registered as ``policy``."""
    return get_autoscaler(policy)()


def list_autoscalers() -> list[str]:
    """Registered autoscaler-policy names, sorted."""
    return AUTOSCALER_REGISTRY.names()


# --------------------------------------------------------------------- #
# The serializable scaling spec                                          #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class AutoscaleSpec(SpecCodec):
    """How a deployment's fleet grows and shrinks (all simulated).

    ``policy`` names a registry entry; its decision is evaluated every
    ``decision_interval_s`` of simulated time and clamped to
    ``[min_replicas, max_replicas]``.  A scale-up pays
    ``provision_latency_s`` before the new replica takes traffic, unless
    warm stock is available — the warm pool starts with
    ``warm_pool_size`` slots, each cutting the latency to
    ``warm_provision_s``, and every retired replica returns one slot
    (capped at the pool size).  Scale-downs always drain; no admitted
    request is ever dropped.
    """

    policy: str = "queue-depth"
    min_replicas: int = 1
    max_replicas: int = 8
    decision_interval_s: float = 2.0
    provision_latency_s: float = 10.0
    warm_pool_size: int = 0
    warm_provision_s: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if not self.decision_interval_s > 0:
            raise ValueError("decision_interval_s must be positive")
        if not self.provision_latency_s >= 0:
            raise ValueError("provision_latency_s must be non-negative")
        if self.warm_pool_size < 0:
            raise ValueError("warm_pool_size must be non-negative")
        if not self.warm_provision_s >= 0:
            raise ValueError("warm_provision_s must be non-negative")
        if self.warm_pool_size > 0 \
                and self.warm_provision_s > self.provision_latency_s:
            # only meaningful when warm starts can actually happen — a
            # disabled pool must not force users to tune its latency
            raise ValueError(
                "warm_provision_s must not exceed provision_latency_s "
                "(a warm start cannot be slower than a cold one)")
        # unknown policy names fail here, at spec construction, not
        # once a cluster engine is built
        get_autoscaler(self.policy)


# --------------------------------------------------------------------- #
# Built-in policies                                                      #
# --------------------------------------------------------------------- #

@register_autoscaler("queue-depth")
class QueueDepthAutoscaler:
    """Size the fleet to 4 outstanding requests per replica.

    Scale-up is immediate: as soon as the fleet would need more than 4
    outstanding requests per launched replica, the desired size jumps
    straight to ``ceil(outstanding / 4)`` — no incremental stepping,
    because queue depth already measures *how much* capacity is
    missing.  Scale-down is hysteretic: the fleet only shrinks to the
    size that keeps every replica under 2 (half the scale-up target, a
    stricter bar), so a load level hovering near the threshold does not
    flap the fleet.
    """

    def desired_replicas(self, observation: FleetObservation) -> int:
        outstanding = observation.outstanding_requests
        launched = observation.launched
        up = math.ceil(outstanding / 4.0)
        if up > launched:
            return up
        down = math.ceil(outstanding / 2.0)
        return min(down, launched)


@register_autoscaler("slo-attainment")
class SloAttainmentAutoscaler:
    """Grow on missed TTFT SLOs, shrink when attainment holds while idle.

    Attainment is the fraction of requests completed in the last
    interval whose TTFT met 0.5 s.  Below 95 % the fleet grows by two
    replicas; while attainment holds *and* the fleet could absorb its
    outstanding work with one replica fewer (at most one outstanding
    request per remaining replica), it shrinks by one.  With no
    completions to judge, a queue deeper than two per launched replica
    counts as an SLO risk and triggers the same step up — that is what
    a burst onset looks like before any request finishes — while a
    (nearly) empty fleet shrinks by one, so an idle fleet still
    converges to the minimum instead of idling at its burst peak.
    """

    def desired_replicas(self, observation: FleetObservation) -> int:
        launched = observation.launched
        ttfts = observation.interval_ttft_s
        if not ttfts:
            if observation.outstanding_requests > 2 * launched:
                return launched + 2
            if observation.outstanding_requests <= launched - 1:
                # nothing completed because (almost) nothing is here:
                # an idle fleet must still converge to the minimum
                return launched - 1
            return launched
        attained = sum(1 for t in ttfts if t <= 0.5) / len(ttfts)
        if attained < 0.95:
            return launched + 2
        if observation.outstanding_requests <= launched - 1:
            return launched - 1
        return launched
