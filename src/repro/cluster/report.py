"""Cluster-level aggregation: merge per-replica results into fleet QoS.

A cluster run produces one :class:`~repro.serving.engine.SimulationResult`
per replica; users care about the *fleet*: the QoS every request saw
(regardless of which replica served it), the aggregate throughput, and
how evenly the router spread the load.  This module merges the replica
results into a single ``SimulationResult`` (wall time = the slowest
replica, counters summed), computes the cluster :class:`QoSReport`, and
derives :class:`LoadImbalanceStats` — the Fig. 13/16-style scalability
numbers extended from one device group to a fleet.

Autoscaled runs additionally record an :class:`AutoscaleTrace`: the
scale-event log (:class:`ScaleEvent`), the per-decision fleet-size /
utilization timeline (:class:`FleetSample`) and the replica-seconds the
fleet consumed — the cost metric an elastic fleet is supposed to beat a
fixed max-size fleet on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.faults import FaultTrace
from repro.serving.engine import SimulationResult
from repro.serving.prefix_cache import PrefixCacheStats
from repro.serving.qos import QoSReport, compute_qos


@dataclass(frozen=True)
class LoadImbalanceStats:
    """How evenly the router spread requests across replicas.

    A heterogeneous run's per-group shares are its
    :class:`GroupBreakdown` entries.
    """

    requests_per_replica: tuple[int, ...]     # assigned (finished + not)
    busy_fraction_per_replica: tuple[float, ...]
    request_imbalance: float                  # max/mean assigned requests


def load_imbalance(replica_results: Sequence[SimulationResult]
                   ) -> LoadImbalanceStats:
    """Per-replica load spread of one cluster run."""
    if not replica_results:
        raise ValueError("need at least one replica result")
    # one common denominator — the fleet wall clock — so replica busy
    # fractions are comparable (an early-idle replica's own clock stops
    # at its last event and would overstate its utilization)
    wall = max(r.total_time_s for r in replica_results)
    requests = [len(r.finished) + len(r.unfinished) for r in replica_results]
    mean = sum(requests) / len(requests)
    return LoadImbalanceStats(
        requests_per_replica=tuple(requests),
        busy_fraction_per_replica=tuple(
            r.busy_time_s / wall if wall > 0 else 0.0
            for r in replica_results),
        request_imbalance=max(requests) / mean if mean > 0 else 1.0,
    )


def merge_results(replica_results: Sequence[SimulationResult]
                  ) -> SimulationResult:
    """One fleet-level ``SimulationResult``.

    Wall time is the slowest replica's clock (replicas run in parallel);
    iteration counters and busy/decode/prefill seconds are summed, so
    fleet busy time can exceed wall time by up to the replica count.
    Per-replica prefix-cache stats (when the feature ran) sum into one
    fleet view — the hit rate the whole deployment delivered.
    """
    if not replica_results:
        raise ValueError("need at least one replica result")
    cache_stats = [r.prefix_cache for r in replica_results
                   if r.prefix_cache is not None]
    return SimulationResult(
        finished=[r for result in replica_results for r in result.finished],
        unfinished=[r for result in replica_results
                    for r in result.unfinished],
        total_time_s=max(r.total_time_s for r in replica_results),
        iterations=sum(r.iterations for r in replica_results),
        decode_steps=sum(r.decode_steps for r in replica_results),
        busy_time_s=sum(r.busy_time_s for r in replica_results),
        decode_time_s=sum(r.decode_time_s for r in replica_results),
        prefill_time_s=sum(r.prefill_time_s for r in replica_results),
        prefix_cache=PrefixCacheStats.merged(cache_stats)
        if cache_stats else None,
    )


@dataclass(frozen=True)
class GroupBreakdown:
    """One replica group's share of a heterogeneous cluster run.

    ``qos`` is the group's own latency/throughput report over the fleet
    wall clock (``None`` when the group finished nothing — an unused
    group has no latencies to misreport).  ``replica_seconds`` is the
    capacity the group consumed and ``cost`` prices it at the group's
    ``cost_per_replica_s`` — the mixed-fleet comparison currency.
    """

    group: int                   # position of the group in the fleet spec
    name: str                    # group label (defaults to the chip name)
    replica_count: int           # replicas of this group that served
    finished_requests: int
    replica_seconds: float
    cost: float                  # replica_seconds * cost_per_replica_s
    qos: QoSReport | None


def group_breakdowns(replica_results: Sequence[SimulationResult],
                     group_ids: Sequence[int],
                     meta: Sequence[tuple[str, float]],
                     replica_seconds: Sequence[float]
                     ) -> tuple[GroupBreakdown, ...]:
    """Fold per-replica results into per-group shares.

    ``group_ids`` aligns with ``replica_results``; ``meta`` is one
    ``(name, cost_per_replica_s)`` per group position and
    ``replica_seconds`` the capacity each group consumed (the caller
    knows whether that is wall-clock * count or an autoscale
    integration).  Per-group QoS uses the *fleet* wall clock, so group
    throughputs are comparable and sum to the fleet's.
    """
    if len(group_ids) != len(replica_results):
        raise ValueError(
            f"group_ids lists {len(group_ids)} entries for "
            f"{len(replica_results)} replica results")
    if len(meta) != len(replica_seconds):
        raise ValueError(
            f"meta lists {len(meta)} groups but replica_seconds "
            f"lists {len(replica_seconds)}")
    wall = max((r.total_time_s for r in replica_results), default=0.0)
    breakdowns = []
    for index, (name, cost_rate) in enumerate(meta):
        results = [result for group, result
                   in zip(group_ids, replica_results) if group == index]
        finished = [r for result in results for r in result.finished]
        seconds = replica_seconds[index]
        breakdowns.append(GroupBreakdown(
            group=index,
            name=name,
            replica_count=len(results),
            finished_requests=len(finished),
            replica_seconds=seconds,
            cost=seconds * cost_rate,
            qos=compute_qos(finished, wall)
            if finished and wall > 0 else None,
        ))
    return tuple(breakdowns)


@dataclass(frozen=True)
class ScaleEvent:
    """One enacted autoscaler decision."""

    clock_s: float
    kind: str                    # "up" | "down"
    delta: int                   # signed replica-count change
    replicas_after: int          # launched (ready + provisioning) after
    warm_used: int               # scale-up launches served from the pool
    replica_ids: tuple[int, ...]  # launched / drained / cancelled ids


@dataclass(frozen=True)
class FleetSample:
    """The fleet at one decision instant of an autoscaled run.

    Composition (``ready`` / ``provisioning`` / ``draining``) is the
    state *after* the decision was enacted; ``outstanding_requests`` is
    the load the policy based the decision on, and ``utilization`` is
    the fleet busy time over the replica-seconds alive in the elapsed
    interval — the per-interval efficiency an autoscaler exists to keep
    high.
    """

    clock_s: float
    ready: int
    provisioning: int
    draining: int
    outstanding_requests: int
    utilization: float


@dataclass(frozen=True)
class AutoscaleTrace:
    """Scaling history of one autoscaled cluster run.

    ``replica_seconds`` integrates fleet size over the run's wall clock
    (provisioning time included — capacity is paid for from launch, and
    a drained replica stops costing the moment its last admitted request
    finished).  A fixed fleet of N over wall time T costs exactly
    ``N * T``; the committed autoscale bench compares the two.
    """

    events: tuple[ScaleEvent, ...]
    timeline: tuple[FleetSample, ...]
    replica_seconds: float
    launched: int                # replicas ever created (initial + ups)
    retired: int                 # drained or cancelled before the end
    peak_replicas: int           # max launched count over the timeline
    warm_launches: int
    cold_launches: int

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.events if e.kind == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.events if e.kind == "down")


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster simulation.

    ``autoscale`` is ``None`` for fixed fleets; autoscaled runs carry
    the full scaling history.  ``faults`` is ``None`` for fault-free
    runs; fault-injected runs carry the event log, retry counters and
    the failed (abandoned) requests.  ``groups`` is ``None`` on
    homogeneous fleets; heterogeneous runs carry one
    :class:`GroupBreakdown` per replica group.
    """

    replica_results: tuple[SimulationResult, ...]
    merged: SimulationResult
    load: LoadImbalanceStats
    autoscale: AutoscaleTrace | None = None
    faults: FaultTrace | None = None
    groups: tuple[GroupBreakdown, ...] | None = None

    def qos(self) -> QoSReport:
        """Fleet QoS over every finished request, against the fleet wall
        time — the cluster analogue of the single-endpoint report.
        Fault-injected runs also carry the failed-request count."""
        failed = len(self.faults.failed) if self.faults is not None else 0
        return compute_qos(self.merged.finished, self.merged.total_time_s,
                           failed_requests=failed)


def aggregate_cluster(replica_results: Sequence[SimulationResult],
                      autoscale: AutoscaleTrace | None = None,
                      faults: FaultTrace | None = None,
                      groups: tuple[GroupBreakdown, ...] | None = None
                      ) -> ClusterResult:
    """Bundle per-replica results with their merged view and load stats.

    ``groups`` (heterogeneous runs only) attaches the per-group
    breakdowns.
    """
    return ClusterResult(
        replica_results=tuple(replica_results),
        merged=merge_results(replica_results),
        load=load_imbalance(replica_results),
        autoscale=autoscale,
        faults=faults,
        groups=groups,
    )
