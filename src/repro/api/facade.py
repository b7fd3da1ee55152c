"""The ``simulate()`` facade: one call from specs to a full QoS report.

This replaces the six-object chain every experiment used to hand-wire
(chip preset -> device model -> model config -> scheduler limits ->
request generator -> engine -> QoS/utilization calculators) with::

    from repro.api import DeploymentSpec, WorkloadSpec, simulate

    report = simulate(DeploymentSpec(chip="ador"),
                      WorkloadSpec(rate_per_s=15.0, num_requests=200))
    print(report.qos.ttft_p95_s)

Everything stays deterministic: the workload seed fully determines the
request stream, so a spec serialized to JSON and reloaded elsewhere
reproduces the identical :class:`ServingReport`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.analysis.sweep import sweep
from repro.api.specs import (
    CapacitySpec,
    DeploymentSpec,
    Experiment,
    FleetSpec,
    WorkloadSpec,
)
from repro.cluster.engine import ClusterEngine, EngineGroup
from repro.cluster.report import (
    AutoscaleTrace,
    ClusterResult,
    LoadImbalanceStats,
    aggregate_cluster,
)
from repro.core.scheduling import device_model_for
from repro.hardware.chip import ChipSpec
from repro.models.config import ModelConfig
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.capacity import (
    CapacityResult,
    EndpointUnservable,
    max_capacity_under_slo,
    meets_slo,
)
from repro.serving.engine import ServingEngine, SimulationResult
from repro.serving.policies import simulate_no_batching, simulate_static
from repro.serving.qos import QoSReport, compute_qos, goodput_per_s
from repro.serving.request import Request
from repro.serving.utilization import UtilizationReport, utilization_report


class EndpointOverloaded(RuntimeError):
    """No request finished inside the horizon: the load is unsustainable."""


def _prefix_cache_lines(stats) -> list[str]:
    """Summary lines for a run's prefix-cache stats ([] when it ran cold)."""
    if stats is None:
        return []
    return [
        f"  prefix cache  : {stats.hit_rate:.0%} hit rate "
        f"({stats.hits}/{stats.eligible} prefix-bearing turns), "
        f"{stats.saved_prefill_tokens:,} prefill tokens saved",
        f"                  {stats.stashed} prefixes stashed, "
        f"{stats.evictions} evicted "
        f"({stats.reclaimed_blocks:,} blocks reclaimed), "
        f"{stats.preemptions} preemptions",
    ]


def _qos_lines(qos: QoSReport) -> list[str]:
    """The TTFT / TBT / E2E / throughput lines of a run summary."""
    return [
        f"  TTFT mean/p95 : {qos.ttft_mean_s * 1e3:.1f} / "
        f"{qos.ttft_p95_s * 1e3:.1f} ms",
        f"  TBT  mean/p95 : {qos.tbt_mean_s * 1e3:.2f} / "
        f"{qos.tbt_p95_s * 1e3:.2f} ms",
        f"  E2E  mean     : {qos.e2e_mean_s:.2f} s",
        f"  throughput    : {qos.tokens_per_s:,.0f} tokens/s",
    ]


def _mix_label(groups, counts=None) -> str:
    """``"2xador+1xa100"``: each fleet group's replica count (from
    ``counts`` when given, else the group's own) and label."""
    if counts is None:
        counts = [group.count for group in groups]
    return "+".join(f"{count}x{group.label}"
                    for count, group in zip(counts, groups))


def _device_for(chip: ChipSpec, sim_cache: bool,
                context_bucket: int):
    """The device model for one run: fast path (memoized, with compiled
    prefill and decode kernels) or the uncompiled reference
    implementation."""
    from repro.hardware.chip import ChipKind

    if not sim_cache:
        if context_bucket != 1:
            # a silently ignored bucket would make a bucketing-error
            # study compare the reference against itself
            raise ValueError(
                "context_bucket requires the sim cache; drop "
                "sim_cache=False / --no-sim-cache or use context_bucket=1")
        if chip.kind == ChipKind.ADOR_HDA:
            return device_model_for(chip, compiled=False)
        return device_model_for(chip)
    return CachedDeviceModel(device_model_for(chip),
                             context_bucket=context_bucket)


def build_cluster_engine(deployment: DeploymentSpec, *,
                         sim_cache: bool = True,
                         context_bucket: int = 1) -> ClusterEngine:
    """The :class:`ClusterEngine` a deployment spec describes.

    The one place deployment specs turn into engine fleets: every
    :class:`~repro.api.specs.ReplicaGroupSpec` of
    :meth:`~repro.api.specs.DeploymentSpec.fleet_groups` (a legacy
    ``replicas=N`` deployment is one N-replica group) resolves to its
    own device model / model config / scheduler limits.  Shared by
    :func:`simulate_cluster`, its shard workers and the mixed-fleet
    capacity search, so every path sizes a fleet the same way.
    """
    if deployment.batching != "continuous":
        # the spec already rejects any bigger fleet under another
        # discipline; a one-endpoint spec must not run here as
        # continuous batching under the other discipline's name
        raise ValueError(
            f"cluster serving requires continuous batching, "
            f"got {deployment.batching!r}")
    groups = [
        EngineGroup(
            group.label,
            _device_for(group.chip_spec(), sim_cache, context_bucket),
            get_model(group.model), group.scheduler_limits(),
            num_devices=group.num_devices, count=group.count,
            cost_per_replica_s=group.cost_per_replica_s,
            min_count=group.min_count, max_count=group.max_count,
            provision_latency_s=group.provision_latency_s)
        for group in deployment.fleet_groups()]
    return ClusterEngine(
        groups,
        router=deployment.router,
        fast_forward=sim_cache,
        autoscale=deployment.autoscale,
        prefix_cache=deployment.prefix_cache,
        faults=deployment.faults,
    )


@dataclass(frozen=True)
class ServingReport:
    """Unified outcome of one serving experiment.

    Bundles the raw :class:`SimulationResult`, the QoS percentiles and
    the vendor-side utilization report, together with the specs that
    produced them — a self-describing record suitable for sweeps.
    """

    deployment: DeploymentSpec
    workload: WorkloadSpec
    chip: ChipSpec
    result: SimulationResult
    qos: QoSReport
    utilization: UtilizationReport

    def summary_lines(self) -> list[str]:
        """The human-readable report the CLI and examples print."""
        lines = [
            f"simulated {len(self.result.finished)} requests at "
            f"{self.workload.rate_per_s:g} req/s on {self.chip.name} "
            f"({self.deployment.num_devices} device(s), "
            f"{self.deployment.batching} batching):",
            *_qos_lines(self.qos),
        ]
        lines += _prefix_cache_lines(self.result.prefix_cache)
        lines += [f"  {key}: {value:.2f}"
                  for key, value in self.utilization.as_dict().items()]
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


def simulate(deployment: DeploymentSpec, workload: WorkloadSpec,
             max_sim_seconds: float = 600.0, *,
             sim_cache: bool = True,
             context_bucket: int = 1,
             shards: int = 1,
             progress=None) -> "ServingReport | ClusterReport":
    """Run one serving experiment end-to-end and report QoS + utilization.

    Dispatches to :func:`simulate_cluster` when the deployment asks for
    more than one replica, an explicit fleet, an autoscaled fleet (even
    one that starts at a single replica: it can grow) or faults.  A
    single endpoint runs its ``batching`` discipline: the
    :class:`~repro.serving.engine.ServingEngine` for continuous
    batching, else one of the two loops of
    :mod:`repro.serving.policies`.  Raises
    :class:`EndpointOverloaded` if not a single request finishes within
    the horizon — the spec'd endpoint cannot sustain the load.

    ``sim_cache`` enables the simulator fast path: device-model
    memoization (:class:`~repro.perf.cache.CachedDeviceModel`) plus the
    engines' multi-step decode fast-forward.  With the default
    ``context_bucket=1`` the fast path is bit-identical to the reference
    loop (``sim_cache=False``); larger buckets quantize the decode
    context for higher hit rates at a small, measured latency error.
    Bucket 32 measured 1.17-1.61x faster than exact on the seed-0
    ``perfbench`` fleet inputs (the most on multi-turn sessions), at the
    ~1% max QoS error ``BENCH_sim_speed.json`` records (see
    ``benchmarks/bench_sim_speed.py``).

    With continuous batching, arrivals are generated lazily and
    consumed through a bounded look-ahead window, at constant memory;
    the batch loops slice and sort, so they take the materialized
    list.  ``shards`` (cluster runs only) partitions the
    fleet over worker processes (see :func:`simulate_cluster`);
    ``progress`` is a ``progress(sim_time, done_count)`` heartbeat
    callback (see :class:`repro.perf.scale.ProgressReporter`), which
    only continuous batching drives.
    """
    if deployment.replicas > 1 or deployment.fleet is not None \
            or deployment.autoscale is not None \
            or deployment.faults is not None:
        # fault injection lives in the cluster engine — a single faulty
        # endpoint is a fleet of one; an explicit fleet always is a
        # cluster, even a fleet of one group of one
        return simulate_cluster(deployment, workload,
                                max_sim_seconds=max_sim_seconds,
                                sim_cache=sim_cache,
                                context_bucket=context_bucket,
                                shards=shards,
                                progress=progress)
    if shards != 1:
        raise ValueError(
            "shards apply to multi-replica cluster deployments only")
    chip = deployment.chip_spec()
    model = get_model(deployment.model)
    device = _device_for(chip, sim_cache, context_bucket)
    limits = deployment.scheduler_limits()
    if deployment.batching == "continuous":
        engine = ServingEngine(device, model, limits, deployment.num_devices,
                               fast_forward=sim_cache,
                               prefix_cache=deployment.prefix_cache)
        result = engine.run(workload.request_stream(),
                            max_sim_seconds=max_sim_seconds,
                            progress=progress)
    elif progress is not None:
        raise ValueError(
            "the progress heartbeat requires continuous batching")
    elif deployment.batching == "static":
        result = simulate_static(device, model, workload.build_requests(),
                                 limits.max_batch, deployment.num_devices,
                                 max_sim_seconds)
    else:
        result = simulate_no_batching(device, model,
                                      workload.build_requests(),
                                      deployment.num_devices,
                                      max_sim_seconds)
    if not result.finished:
        raise EndpointOverloaded(
            f"no requests finished within {max_sim_seconds:g} s — "
            f"{chip.name} cannot sustain {workload.rate_per_s:g} req/s")
    qos = compute_qos(result.finished, result.total_time_s)
    util = utilization_report(result, model, chip, deployment.num_devices)
    return ServingReport(
        deployment=deployment,
        workload=workload,
        chip=chip,
        result=result,
        qos=qos,
        utilization=util,
    )


# --------------------------------------------------------------------- #
# Capacity search                                                        #
# --------------------------------------------------------------------- #

def _capacity_spec(capacity: CapacitySpec | None,
                   overrides: dict[str, Any]) -> CapacitySpec:
    """The spec a search runs: ``capacity`` (default
    :class:`CapacitySpec`) with keyword ``overrides`` replacing fields."""
    base = capacity if capacity is not None else CapacitySpec()
    return dataclasses.replace(base, **overrides) if overrides else base


def _slo_label(spec: CapacitySpec) -> str:
    """The SLO a capacity summary names, e.g. ``TBT p95 <= 50 ms``."""
    slo = f"TBT {spec.percentile} <= {spec.slo_tbt_s * 1e3:g} ms"
    if spec.slo_ttft_s is not None:
        slo += f", TTFT <= {spec.slo_ttft_s * 1e3:g} ms"
    return slo


@dataclass(frozen=True)
class CapacityReport:
    """Unified outcome of one capacity search (paper Fig. 16).

    The capacity analogue of :class:`ServingReport`: the highest
    sustainable Poisson arrival rate under the spec'd SLO, the QoS
    measured at that rate, and the probe log of the search that found
    it.
    """

    deployment: DeploymentSpec
    workload: WorkloadSpec
    capacity_spec: CapacitySpec
    chip: ChipSpec
    model: ModelConfig
    capacity: CapacityResult

    @property
    def qos(self) -> QoSReport:
        return self.capacity.qos_at_max

    def summary_lines(self) -> list[str]:
        qos = self.qos
        probes = self.capacity.probes
        aborted = sum(1 for probe in probes if probe.aborted)
        return [
            f"capacity of {self.chip.name} serving {self.model.name} "
            f"({self.deployment.num_devices} device(s), "
            f"{_slo_label(self.capacity_spec)}, "
            f"{self.workload.num_requests} requests/probe):",
            f"  max sustainable rate : "
            f"{self.capacity.max_requests_per_s:.2f} req/s",
            f"  TTFT p95 at max      : {qos.ttft_p95_s * 1e3:.1f} ms",
            f"  TBT  p95 at max      : {qos.tbt_p95_s * 1e3:.2f} ms",
            f"  throughput at max    : {qos.tokens_per_s:,.0f} tokens/s",
            f"  probes               : {len(probes)} "
            f"({aborted} aborted early, "
            f"{self.capacity.simulations} simulations)",
        ]

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


def find_capacity(deployment: DeploymentSpec, workload: WorkloadSpec,
                  capacity: CapacitySpec | None = None,
                  max_sim_seconds: float = 600.0, *,
                  sim_cache: bool = True,
                  context_bucket: int = 1,
                  **overrides: Any
                  ) -> "CapacityReport | FleetCapacityReport":
    """Search the highest SLO-compliant arrival rate for a deployment.

    ``capacity`` carries the SLO and search knobs (keyword
    ``overrides`` replace individual fields, e.g.
    ``find_capacity(dep, wl, slo_tbt_s=0.025)``).  The workload's
    ``rate_per_s`` is ignored — its trace, request count and seed
    define the probe workload.  The endpoint's scheduler limits follow
    the capacity engine's memory-derived admission policy (paper
    Fig. 16), so a deployment whose ``max_batch``,
    ``prefill_chunk_tokens`` or ``kv_budget_bytes`` is not the default
    is rejected rather than silently searched under other limits; the
    chip, model and ``num_devices`` are honoured.  The search runs
    continuous batching on a single fault-free, cold-cache endpoint,
    and rejects any other deployment.

    A deployment with an explicit ``fleet`` dispatches to
    :func:`find_fleet_capacity` instead: the workload's ``rate_per_s``
    is then the *fixed* demand and the search finds the cheapest group
    mix sustaining it.
    """
    if deployment.fleet is not None:
        return find_fleet_capacity(
            deployment, workload, capacity,
            max_sim_seconds=max_sim_seconds, sim_cache=sim_cache,
            context_bucket=context_bucket, **overrides)
    if deployment.replicas > 1 or deployment.autoscale is not None:
        raise ValueError(
            "capacity search simulates a single endpoint; "
            "set replicas=1 and drop the autoscale spec (scale the "
            "found rate by the fleet size)")
    defaults = DeploymentSpec.__dataclass_fields__
    for knob in ("max_batch", "prefill_chunk_tokens", "kv_budget_bytes"):
        value = getattr(deployment, knob)
        if value != defaults[knob].default:
            raise ValueError(
                f"capacity search and {knob}={value!r}: the search "
                f"derives its admission limits from memory (paper "
                f"Fig. 16) and ignores {knob} — leave it at its default")
    if deployment.batching != "continuous":
        # the capacity engine is iteration-faithful only for continuous
        # batching; a capacity figure silently measured under a
        # different policy than the spec declares would be a lie
        raise ValueError(
            f"capacity search requires continuous batching, "
            f"got {deployment.batching!r}")
    if deployment.prefix_cache is not None:
        # the capacity engine derives its own memory-based admission
        # limits and probes single-turn Poisson streams — a prefix
        # cache would be silently inert, faking a cold-path capacity
        # as a reuse result.  Bisect simulate() over session rates
        # instead (benchmarks/bench_prefix_reuse.py shows how).
        raise ValueError(
            "capacity search does not model prefix caching; drop the "
            "prefix_cache spec (or bisect simulate() over session "
            "rates, as benchmarks/bench_prefix_reuse.py does)")
    if deployment.faults is not None:
        # a capacity figure quietly measured on a fault-free endpoint
        # while the spec asks for crashes would overstate resilience;
        # sweep simulate() under the fault spec instead
        raise ValueError(
            "capacity search models a fault-free endpoint; drop the "
            "faults spec (benchmarks/bench_resilience.py sweeps "
            "goodput under faults instead)")
    capacity = _capacity_spec(capacity, overrides)
    chip = deployment.chip_spec()
    model = get_model(deployment.model)
    device = _device_for(chip, sim_cache, context_bucket)
    result = max_capacity_under_slo(
        device, model, workload.trace_config(),
        slo_tbt_s=capacity.slo_tbt_s,
        slo_ttft_s=capacity.slo_ttft_s,
        num_devices=deployment.num_devices,
        request_count=workload.num_requests,
        seed=workload.seed,
        percentile=capacity.percentile,
        rate_bounds=(capacity.rate_low, capacity.rate_high),
        iterations=capacity.iterations,
        max_sim_seconds=max_sim_seconds,
        early_abort=capacity.early_abort,
        sim_cache=sim_cache,
    )
    return CapacityReport(
        deployment=deployment,
        workload=workload,
        capacity_spec=capacity,
        chip=chip,
        model=model,
        capacity=result,
    )


@dataclass(frozen=True)
class FleetProbe:
    """Outcome of one mixed-fleet probe (one simulated group-count mix)."""

    counts: tuple    # replicas per group, fleet-spec order
    cost_rate: float  # sum(count * cost_per_replica_s) over groups
    feasible: bool
    qos: QoSReport | None
    total_time_s: float


@dataclass(frozen=True)
class FleetCapacityReport:
    """Unified outcome of one mixed-fleet capacity search.

    The fleet analogue of :class:`CapacityReport` with the axes
    swapped: the arrival rate is fixed (``workload.rate_per_s``) and
    the search variable is the fleet itself.  ``counts`` is the
    cheapest per-group replica mix that sustains the rate under the
    SLO, in fleet-spec group order, and ``qos`` the QoS measured at
    it.  ``cost_rate`` is the mix's replica cost per second of wall
    clock (the ranking key); ``replica_seconds`` and ``cost`` are that
    mix integrated over the winning run's wall clock.  ``probes`` logs
    every judged :class:`FleetProbe` in counts order, and
    ``simulations`` counts the cluster runs the search paid for
    (probe cache hits excluded).
    """

    deployment: DeploymentSpec
    workload: WorkloadSpec
    capacity_spec: CapacitySpec
    counts: tuple
    cost_rate: float
    replica_seconds: float
    cost: float
    qos: QoSReport
    probes: tuple
    simulations: int

    def mix_label(self) -> str:
        """``"2xador+1xa100"``-style label of the winning mix."""
        return _mix_label(self.deployment.fleet.groups, self.counts)

    def summary_lines(self) -> list[str]:
        qos = self.qos
        return [
            f"cost-optimal fleet for {self.workload.rate_per_s:g} "
            f"req/s ({_slo_label(self.capacity_spec)}, "
            f"{self.workload.num_requests} requests/probe):",
            f"  cheapest mix    : {self.mix_label()} "
            f"(cost rate {self.cost_rate:g}/s)",
            f"  replica-seconds : {self.replica_seconds:.1f} "
            f"(cost {self.cost:.1f})",
            f"  TTFT p95 at mix : {qos.ttft_p95_s * 1e3:.1f} ms",
            f"  TBT  p95 at mix : {qos.tbt_p95_s * 1e3:.2f} ms",
            f"  throughput      : {qos.tokens_per_s:,.0f} tokens/s",
            f"  probes          : {len(self.probes)} "
            f"({self.simulations} simulations)",
        ]

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


#: the most trailing-group lattice columns a fleet search walks
_MAX_FLEET_COLUMNS = 256


def find_fleet_capacity(deployment: DeploymentSpec,
                        workload: WorkloadSpec,
                        capacity: CapacitySpec | None = None,
                        max_sim_seconds: float = 600.0, *,
                        sim_cache: bool = True,
                        context_bucket: int = 1,
                        **overrides: Any) -> FleetCapacityReport:
    """Find the cheapest group mix of a fleet that meets the SLO.

    :func:`find_capacity` holds the hardware fixed and bisects over the
    arrival *rate*; this search inverts the question.  The workload's
    ``rate_per_s`` is the fixed demand, and the search bisects over a
    **group-count lattice**: each group's candidate counts span
    ``[min_count or 0, max_count or count]`` (the spec'd ``count``
    doubles as the ceiling when no ``max_count`` is given).  Every
    combination of the trailing groups forms one lattice *column*;
    within a column the leading group's count is bisected (capacity is
    monotone in fleet size), so each column costs ``O(log range)``
    cluster simulations instead of ``O(range)``.  Columns whose
    cheapest point already costs more than the incumbent winner are
    skipped without simulating.

    A mix is feasible when a full :func:`simulate_cluster` run of it
    passes :func:`~repro.serving.capacity.meets_slo`, the verdict a
    rate probe gets, so routing, per-group capability and KV limits
    all count.  Mixes rank by ``cost_rate`` (sum of ``count *
    cost_per_replica_s``), ties by total replica count, then
    lexicographically by counts — fully deterministic.

    Raises :class:`~repro.serving.capacity.EndpointUnservable` when no
    lattice point meets the SLO, and ``ValueError`` for a deployment
    without an explicit :class:`FleetSpec`, with autoscaling or
    faults, or whose trailing-group lattice exceeds 256
    columns (tighten per-group ``min_count`` / ``max_count`` bounds).
    """
    capacity = _capacity_spec(capacity, overrides)
    if deployment.fleet is None:
        raise ValueError(
            "mixed-fleet capacity search needs an explicit fleet; "
            "give the deployment a FleetSpec (a legacy replicas=N "
            "deployment has nothing to mix — use find_capacity)")
    if deployment.autoscale is not None:
        raise ValueError(
            "mixed-fleet capacity search sizes a *fixed* fleet; drop "
            "the autoscale spec (the search itself explores fleet "
            "sizes)")
    if deployment.faults is not None:
        raise ValueError(
            "mixed-fleet capacity search models a fault-free fleet; "
            "drop the faults spec (benchmarks/bench_resilience.py "
            "sweeps goodput under faults instead)")

    groups = deployment.fleet.groups
    bounds = []
    for group in groups:
        lo = group.min_count if group.min_count is not None else 0
        hi = group.max_count if group.max_count is not None \
            else max(group.count, lo)
        bounds.append((lo, hi))
    columns = math.prod(hi - lo + 1 for lo, hi in bounds[1:])
    if columns > _MAX_FLEET_COLUMNS:
        raise ValueError(
            f"mixed-fleet search lattice has {columns} trailing-group "
            f"columns (> {_MAX_FLEET_COLUMNS}); tighten per-group "
            f"min_count/max_count bounds")

    def cost_rate(counts: tuple) -> float:
        return sum(count * group.cost_per_replica_s
                   for count, group in zip(counts, groups))

    cache: dict[tuple, FleetProbe] = {}
    simulations = 0

    def probe(counts: tuple) -> FleetProbe:
        nonlocal simulations
        cached = cache.get(counts)
        if cached is not None:
            return cached
        if sum(counts) < 1:
            # an empty fleet serves nothing; no simulation needed
            outcome = FleetProbe(counts, 0.0, False, None, 0.0)
            cache[counts] = outcome
            return outcome
        mix = FleetSpec(groups=tuple(
            dataclasses.replace(group, count=count)
            for group, count in zip(groups, counts)))
        simulations += 1
        try:
            report = simulate_cluster(
                dataclasses.replace(deployment, fleet=mix), workload,
                max_sim_seconds=max_sim_seconds, sim_cache=sim_cache,
                context_bucket=context_bucket)
        except EndpointOverloaded:
            outcome = FleetProbe(counts, cost_rate(counts), False,
                                 None, 0.0)
        else:
            merged = report.result
            ok = meets_slo(merged, report.qos, workload.num_requests,
                           capacity.slo_tbt_s, capacity.slo_ttft_s,
                           capacity.percentile)
            outcome = FleetProbe(counts, cost_rate(counts), ok,
                                 report.qos, merged.total_time_s)
        cache[counts] = outcome
        return outcome

    def rank(entry: FleetProbe) -> tuple:
        return (entry.cost_rate, sum(entry.counts), entry.counts)

    lo0, hi0 = bounds[0]
    best: FleetProbe | None = None
    for tail in itertools.product(*(range(lo, hi + 1)
                                    for lo, hi in bounds[1:])):
        floor_counts = (lo0, *tail)
        if best is not None and cost_rate(floor_counts) > best.cost_rate:
            continue   # even the column's cheapest point loses
        if not probe((hi0, *tail)).feasible:
            continue   # the column's best-provisioned point fails
        low, high = lo0, hi0
        while low < high:
            mid = (low + high) // 2
            if probe((mid, *tail)).feasible:
                high = mid
            else:
                low = mid + 1
        winner = cache[(high, *tail)]
        if best is None or rank(winner) < rank(best):
            best = winner
    if best is None:
        raise EndpointUnservable(
            f"no fleet in the group-count lattice sustains "
            f"{workload.rate_per_s:g} req/s under the SLO; raise the "
            f"per-group max_count ceilings or relax the SLO")
    assert best.qos is not None
    return FleetCapacityReport(
        deployment=deployment,
        workload=workload,
        capacity_spec=capacity,
        counts=best.counts,
        cost_rate=best.cost_rate,
        replica_seconds=best.total_time_s * sum(best.counts),
        cost=best.total_time_s * best.cost_rate,
        qos=best.qos,
        probes=tuple(sorted(cache.values(), key=lambda p: p.counts)),
        simulations=simulations,
    )


# --------------------------------------------------------------------- #
# Cluster experiments                                                    #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ClusterReport:
    """Unified outcome of one multi-replica serving experiment.

    The fleet-level analogue of :class:`ServingReport`: cluster QoS is
    computed over every finished request against the slowest replica's
    wall clock, and ``load`` summarizes how evenly the router spread the
    work.  ``result`` is the merged fleet view; per-replica results stay
    available in ``cluster.replica_results``.  Autoscaled deployments
    additionally expose the scaling history as ``autoscale``
    (:class:`~repro.cluster.report.AutoscaleTrace`).
    """

    deployment: DeploymentSpec
    workload: WorkloadSpec
    cluster: ClusterResult
    qos: QoSReport

    @property
    def result(self) -> SimulationResult:
        return self.cluster.merged

    @property
    def load(self) -> LoadImbalanceStats:
        return self.cluster.load

    @property
    def autoscale(self) -> AutoscaleTrace | None:
        return self.cluster.autoscale

    @property
    def groups(self):
        """Per-group :class:`~repro.cluster.report.GroupBreakdown`
        tuple (``None`` on homogeneous fleets)."""
        return self.cluster.groups

    def summary_lines(self) -> list[str]:
        qos, load = self.qos, self.load
        requests = ", ".join(str(n) for n in load.requests_per_replica)
        busy = ", ".join(f"{b:.2f}"
                         for b in load.busy_fraction_per_replica)
        trace = self.autoscale
        if self.deployment.fleet is not None:
            groups = self.deployment.fleet.groups
            mix = _mix_label(groups)
            fleet = mix if trace is None else \
                f"autoscaled (start {mix}, peak {trace.peak_replicas})"
            endpoint = "fleet"
            # one count when the groups agree, else one per group
            counts = [str(group.num_devices) for group in groups]
            devices = counts[0] if len(set(counts)) == 1 \
                else "/".join(counts)
        else:
            fleet = f"{self.deployment.replicas}x" if trace is None else \
                f"autoscaled (start {self.deployment.replicas}, " \
                f"peak {trace.peak_replicas})"
            endpoint = self.deployment.chip_spec().name
            devices = str(self.deployment.num_devices)
        lines = [
            f"simulated {len(self.result.finished)} requests at "
            f"{self.workload.rate_per_s:g} req/s on "
            f"{fleet} {endpoint} "
            f"({devices} device(s)/replica, "
            f"{self.deployment.router} routing):",
            *_qos_lines(qos),
            f"  requests/replica : {requests} "
            f"(imbalance {load.request_imbalance:.2f})",
            f"  busy fraction/replica : {busy}",
        ]
        if self.cluster.groups is not None:
            for group in self.cluster.groups:
                if group.qos is None:
                    tail = "no finished requests"
                else:
                    tail = (f"TTFT p95 {group.qos.ttft_p95_s * 1e3:.1f} "
                            f"ms, {group.qos.tokens_per_s:,.0f} tokens/s")
                lines.append(
                    f"  group {group.group} [{group.name}] : "
                    f"{group.replica_count} replica(s), "
                    f"{group.finished_requests} finished, "
                    f"{group.replica_seconds:.1f} replica-s "
                    f"(cost {group.cost:.1f}); {tail}")
        lines += _prefix_cache_lines(self.result.prefix_cache)
        if trace is not None:
            spec = self.deployment.autoscale
            lines += [
                f"  autoscaler : {spec.policy} every "
                f"{spec.decision_interval_s:g} s, range "
                f"[{spec.min_replicas}, {spec.max_replicas}], "
                f"{trace.scale_ups} up / {trace.scale_downs} down "
                f"({trace.warm_launches} warm, {trace.cold_launches} "
                f"cold launches)",
                f"  replica-seconds : {trace.replica_seconds:.1f} "
                f"(fixed fleet of {spec.max_replicas} would cost "
                f"{spec.max_replicas * self.result.total_time_s:.1f})",
            ]
        faults = self.cluster.faults
        if faults is not None:
            fault_spec = self.deployment.faults
            goodput = goodput_per_s(self.result.finished,
                                    self.result.total_time_s,
                                    fault_spec.slo_ttft_s)
            lines += [
                f"  goodput       : {goodput:.2f} req/s meeting "
                f"TTFT <= {fault_spec.slo_ttft_s * 1e3:g} ms "
                f"(raw {qos.requests_per_s:.2f} req/s, "
                f"{qos.failed_requests} failed)",
                f"  faults        : {faults.crashes} crashes "
                f"({faults.lost_requests} requests lost), "
                f"{faults.slowdowns} slowdowns, "
                f"{faults.stalls} stalls; {faults.retries} retries",
            ]
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


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


def _simulate_shard(deployment: DeploymentSpec, workload: WorkloadSpec,
                    max_sim_seconds: float, shards: int, sim_cache: bool,
                    context_bucket: int,
                    shard: int) -> tuple[SimulationResult, ...]:
    """Run one shard's replica subset over its traffic slice: the
    deployment's one group, resized to the shard's replica count.

    Module-level so the pool can pickle it (frozen specs pickle by
    value).
    """
    (group,) = deployment.fleet_groups()
    count = shard_replica_count(group.count, shard, shards)
    engine = build_cluster_engine(
        deployment.with_fleet(FleetSpec(
            groups=(dataclasses.replace(group, count=count),))),
        sim_cache=sim_cache, context_bucket=context_bucket)
    result = engine.run(shard_requests(workload, shard, shards),
                        max_sim_seconds=max_sim_seconds)
    return result.replica_results


def simulate_cluster(deployment: DeploymentSpec, workload: WorkloadSpec,
                     max_sim_seconds: float = 600.0, *,
                     sim_cache: bool = True,
                     context_bucket: int = 1,
                     shards: int = 1,
                     progress=None) -> ClusterReport:
    """Run one cluster experiment: N replicas behind the spec'd router.

    The cluster engine is iteration-faithful only for continuous
    batching (each replica is a live, steppable endpoint);
    :func:`build_cluster_engine` rejects other disciplines loudly
    rather than silently approximating them.  ``sim_cache`` /
    ``context_bucket`` behave as in :func:`simulate`; the memoized
    device model is shared by every replica, so one replica's decode
    evaluations warm the whole fleet.

    ``shards > 1`` partitions a fixed one-group fleet (``replicas=N``
    or a one-group :class:`FleetSpec`) and its traffic over ``shards``
    :func:`~repro.analysis.sweep.sweep` worker processes: replicas
    split near-evenly (:func:`shard_replica_count`), traffic follows
    :func:`shard_requests`, and the per-shard replica results are
    concatenated in shard order and merged by
    :func:`~repro.cluster.report.aggregate_cluster` — same spec, same
    shard count, same report.  Sharding is a **modeled**
    approximation: each shard routes only its own traffic slice over
    its own replicas, so cross-shard load balancing disappears.
    Autoscaling and fault injection coordinate the whole fleet each
    decision interval, which a shard cannot see, and capability-aware
    routing needs the whole mixed fleet, so all three are rejected
    loudly.  ``shards=1`` (default) takes the exact engine path.
    """
    groups = deployment.fleet_groups()
    # resolve the lead group here, so an unknown chip or model fails
    # before any shard's worker process starts
    chip = groups[0].chip_spec()
    get_model(groups[0].model)
    fleet_label = f"{deployment.replicas}x {chip.name}" \
        if deployment.fleet is None else _mix_label(deployment.fleet.groups)
    if shards != 1:
        if progress is not None:
            raise ValueError(
                "the progress heartbeat is per-process; run sharded "
                "simulations without it (shards report on completion)")
        if shards < 1:
            raise ValueError("shards must be >= 1")
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
        if deployment.faults is not None:
            raise ValueError(
                "sharding cannot run fault injection: the fault "
                "coordinator replays retries against the whole fleet")
        shard_results = sweep(
            range(shards),
            functools.partial(_simulate_shard, deployment, workload,
                              max_sim_seconds, shards, sim_cache,
                              context_bucket),
            workers=shards)
        cluster = aggregate_cluster([
            replica for _, replicas in shard_results for replica in replicas])
    else:
        requests = workload.request_stream()
        engine = build_cluster_engine(deployment, sim_cache=sim_cache,
                                      context_bucket=context_bucket)
        cluster = engine.run(requests, max_sim_seconds=max_sim_seconds,
                             progress=progress)
    if not cluster.merged.finished:
        raise EndpointOverloaded(
            f"no requests finished within {max_sim_seconds:g} s — "
            f"{fleet_label} cannot sustain "
            f"{workload.rate_per_s:g} req/s")
    return ClusterReport(
        deployment=deployment,
        workload=workload,
        cluster=cluster,
        qos=cluster.qos(),
    )


# --------------------------------------------------------------------- #
# Experiment files                                                       #
# --------------------------------------------------------------------- #

def load_experiment(path: str | pathlib.Path) -> Experiment:
    """Load a declarative ``experiment.json`` file."""
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: experiment file must hold a JSON object")
    return Experiment.from_dict(data)


def save_experiment(experiment: Experiment,
                    path: str | pathlib.Path) -> pathlib.Path:
    """Write an experiment as formatted JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(experiment.to_dict(), indent=2) + "\n")
    return path


def run_experiment(source: Experiment | str | pathlib.Path, *,
                   sim_cache: bool = True,
                   context_bucket: int = 1,
                   shards: int = 1,
                   progress=None
                   ) -> "ServingReport | ClusterReport | CapacityReport":
    """Execute an :class:`Experiment` (or a path to one) end-to-end.

    An experiment with a ``capacity`` section runs the SLO-capacity
    search and returns a :class:`CapacityReport`; otherwise the fixed-
    rate simulation runs as before.  ``shards`` / ``progress`` forward
    to :func:`simulate` (fixed-rate runs only — the capacity search
    runs in one process).
    """
    experiment = source if isinstance(source, Experiment) \
        else load_experiment(source)
    if experiment.capacity is not None:
        if shards != 1:
            raise ValueError(
                "shards apply to fixed-rate cluster runs; the capacity "
                "search runs in one process")
        return find_capacity(experiment.deployment, experiment.workload,
                             experiment.capacity,
                             max_sim_seconds=experiment.max_sim_seconds,
                             sim_cache=sim_cache,
                             context_bucket=context_bucket)
    return simulate(experiment.deployment, experiment.workload,
                    max_sim_seconds=experiment.max_sim_seconds,
                    sim_cache=sim_cache, context_bucket=context_bucket,
                    shards=shards, progress=progress)
