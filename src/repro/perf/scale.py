"""Cluster-scale machinery: sharded simulation, streaming aggregates,
and the long-run progress heartbeat.

Three pieces, all serving the million-request regime:

* :func:`run_sharded_cluster` partitions a fixed fleet — and its
  session-affine traffic — across :func:`~repro.analysis.sweep.sweep`
  worker processes and merges the per-shard replica results into one
  :class:`~repro.cluster.report.ClusterResult` deterministically.
  Sharding is a **modeled** approximation: each shard routes only its
  own traffic slice over its own replica subset, so cross-shard load
  balancing disappears and the result is *not* bit-identical to the
  unsharded engine (``shards=1`` is, by construction — it takes the
  exact unsharded path).  Sessions never split across shards, so
  affinity routing and prefix reuse stay intact per shard.

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

import dataclasses
import functools
import sys
import time
from typing import Callable, Iterator, TextIO

from repro.analysis.sweep import sweep
from repro.api.specs import DeploymentSpec, FleetSpec, WorkloadSpec
from repro.cluster.report import ClusterResult, aggregate_cluster
from repro.serving.engine import SimulationResult
from repro.serving.request import Request


# --------------------------------------------------------------------- #
# Traffic partitioning                                                   #
# --------------------------------------------------------------------- #

def shard_requests(workload: WorkloadSpec, shard: int,
                   shards: int) -> Iterator[Request]:
    """Lazily yield the requests belonging to one traffic shard.

    Session-affine partition: a request follows ``session_id % shards``
    when it belongs to a session (all turns of one conversation land on
    one shard, keeping affinity routing and prefix reuse meaningful)
    and ``request_id % shards`` otherwise.  A monotone subsequence of a
    time-sorted stream is time-sorted, so the filtered stream passes
    the engines' online ordering check unchanged.
    """
    if not 0 <= shard < shards:
        raise ValueError(f"shard index {shard} outside [0, {shards})")
    for request in workload.iter_requests():
        key = request.session_id if request.session_id is not None \
            else request.request_id
        if key % shards == shard:
            yield request


def shard_replica_count(replicas: int, shard: int, shards: int) -> int:
    """Replicas owned by one shard: near-even split, remainder to the
    lowest-indexed shards (deterministic for any (replicas, shards))."""
    base, extra = divmod(replicas, shards)
    return base + (1 if shard < extra else 0)


# --------------------------------------------------------------------- #
# Worker side                                                            #
# --------------------------------------------------------------------- #

def _simulate_shard(deployment: DeploymentSpec, workload: WorkloadSpec,
                    max_sim_seconds: float, shards: int, sim_cache: bool,
                    context_bucket: int,
                    shard: int) -> tuple[SimulationResult, ...]:
    """Run one shard's replica subset over its traffic slice: the
    deployment's one group, resized to the shard's replica count.

    Module-level so the pool can pickle it (frozen specs pickle by
    value).  The import stays inside the function so worker start-up
    does not pay for the full api surface before it must.
    """
    from repro.api.facade import build_cluster_engine

    (group,) = deployment.fleet_groups()
    count = shard_replica_count(group.count, shard, shards)
    engine = build_cluster_engine(
        dataclasses.replace(deployment, replicas=1, fleet=FleetSpec(
            groups=(dataclasses.replace(group, count=count),))),
        sim_cache=sim_cache, context_bucket=context_bucket)
    result = engine.run(shard_requests(workload, shard, shards),
                        max_sim_seconds=max_sim_seconds)
    return result.replica_results


# --------------------------------------------------------------------- #
# Driver                                                                 #
# --------------------------------------------------------------------- #

def run_sharded_cluster(deployment: DeploymentSpec, workload: WorkloadSpec,
                        max_sim_seconds: float = 600.0, shards: int = 2, *,
                        sim_cache: bool = True,
                        context_bucket: int = 1) -> ClusterResult:
    """Simulate a fixed fleet partitioned over ``shards`` processes.

    ``shards=1`` takes the exact unsharded engine path (bit-identical
    to :func:`repro.api.facade.simulate_cluster` with default knobs).
    With more shards, replicas are split near-evenly and traffic
    follows :func:`shard_requests`; per-shard replica results are
    concatenated in shard order and merged by
    :func:`~repro.cluster.report.aggregate_cluster`, so the merge is
    deterministic — same spec, same shard count, same report.

    Elastic features are rejected loudly: autoscaling and fault
    injection coordinate the *whole* fleet each decision interval,
    which a shard cannot see; silently sharding them would change
    semantics, not just wall-clock.  Only a one-group fleet shards
    (``replicas=N`` or a one-group
    :class:`~repro.api.specs.FleetSpec`); a mixed fleet is rejected
    (its capability-aware routing needs the whole-fleet view).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if deployment.batching != "continuous":
        raise ValueError(
            f"sharded cluster serving requires continuous batching, "
            f"got {deployment.batching!r}")
    if shards == 1:
        from repro.api.facade import build_cluster_engine

        engine = build_cluster_engine(deployment, sim_cache=sim_cache,
                                      context_bucket=context_bucket)
        return engine.run(workload.request_stream(),
                          max_sim_seconds=max_sim_seconds)
    groups = deployment.fleet_groups()
    if len(groups) > 1:
        raise ValueError(
            "sharding requires a homogeneous fleet: per-shard "
            "routing cannot weigh groups it does not own, so a "
            "mixed fleet would silently lose its capability-aware "
            "placement — run the exact engine (shards=1) instead")
    if groups[0].count < shards:
        raise ValueError(
            f"cannot shard {groups[0].count} replicas over {shards} "
            f"processes — every shard needs at least one replica")
    if deployment.autoscale is not None:
        raise ValueError(
            "sharding requires a fixed fleet: the autoscaler decides "
            "over fleet-wide observations no shard can see")
    if deployment.faults is not None and deployment.faults.enabled:
        raise ValueError(
            "sharding cannot run fault injection: the fault coordinator "
            "replays retries against the whole fleet")
    if not isinstance(deployment.router, str):
        raise ValueError(
            "sharded runs need the router by registry name — a router "
            "instance would be shared mutable state across processes")
    shard_results = sweep(
        range(shards),
        functools.partial(_simulate_shard, deployment, workload,
                          max_sim_seconds, shards, sim_cache,
                          context_bucket),
        workers=shards)
    merged: list[SimulationResult] = []
    for _, replica_results in shard_results:
        merged.extend(replica_results)
    return aggregate_cluster(merged)


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

    def as_dict(self) -> dict[str, float]:
        return {
            "finished": self.finished,
            "tokens": self.tokens,
            "mean_ttft_s": self.mean_ttft_s,
            "max_ttft_s": self.ttft_max,
            "mean_e2e_s": self.mean_e2e_s,
            "max_e2e_s": self.e2e_max,
        }


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
