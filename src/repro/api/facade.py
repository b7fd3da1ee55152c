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
import json
import pathlib
from dataclasses import dataclass

from repro.api.specs import (
    CapacitySpec,
    DeploymentSpec,
    Experiment,
    WorkloadSpec,
)
from repro.cluster.engine import ClusterEngine, EngineGroup
from repro.cluster.report import ClusterResult, LoadImbalanceStats
from repro.core.scheduling import device_model_for
from repro.hardware.chip import ChipSpec
from repro.models.config import ModelConfig
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.capacity import CapacityResult, FleetCapacityResult
from repro.serving.engine import SimulationResult
from repro.serving.policies import get_policy
from repro.serving.qos import QoSReport, compute_qos, goodput_per_s
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
    :func:`simulate_cluster`, the sharded runner and the mixed-fleet
    capacity search, so every path sizes a fleet the same way.
    """
    groups = []
    for index, group in enumerate(deployment.fleet_groups()):
        chip = group.chip_spec()
        groups.append(EngineGroup(
            index, group.label, chip.name,
            _device_for(chip, sim_cache, context_bucket),
            get_model(group.model), group.scheduler_limits(),
            num_devices=group.num_devices, count=group.count,
            cost_per_replica_s=group.cost_per_replica_s,
            min_count=group.min_count, max_count=group.max_count,
            provision_latency_s=group.provision_latency_s))
    return ClusterEngine.from_groups(
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
    model: ModelConfig
    result: SimulationResult
    qos: QoSReport
    utilization: UtilizationReport

    def summary_lines(self) -> list[str]:
        """The human-readable report the CLI and examples print."""
        qos, util = self.qos, self.utilization
        lines = [
            f"simulated {len(self.result.finished)} requests at "
            f"{self.workload.rate_per_s:g} req/s on {self.chip.name} "
            f"({self.deployment.num_devices} device(s), "
            f"{self.deployment.batching} batching):",
            f"  TTFT mean/p95 : {qos.ttft_mean_s * 1e3:.1f} / "
            f"{qos.ttft_p95_s * 1e3:.1f} ms",
            f"  TBT  mean/p95 : {qos.tbt_mean_s * 1e3:.2f} / "
            f"{qos.tbt_p95_s * 1e3:.2f} ms",
            f"  E2E  mean     : {qos.e2e_mean_s:.2f} s",
            f"  throughput    : {qos.tokens_per_s:,.0f} tokens/s",
        ]
        lines += _prefix_cache_lines(self.result.prefix_cache)
        lines += [f"  {key}: {value:.2f}"
                  for key, value in util.as_dict().items()]
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
    more than one replica — or for an autoscaled fleet (even one that
    starts at a single replica: it can grow).  Raises
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
    the batch policies slice and sort, so they take the materialized
    list.  ``shards`` (cluster runs only) partitions the
    fleet over worker processes (see
    :func:`repro.perf.scale.run_sharded_cluster`); ``progress`` is a
    ``progress(sim_time, done_count)`` heartbeat callback (see
    :class:`repro.perf.scale.ProgressReporter`).
    """
    if deployment.replicas > 1 or deployment.fleet is not None \
            or deployment.autoscale is not None \
            or (deployment.faults is not None
                and deployment.faults.enabled):
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
    runner = get_policy(deployment.batching)
    requests = workload.request_stream() \
        if deployment.batching == "continuous" else workload.build_requests()
    extra = {}
    if deployment.prefix_cache is not None \
            and deployment.prefix_cache.enabled:
        # only passed when live, so runners that predate the knob (and
        # disabled specs, which mean the cold path) see the unchanged
        # call signature
        extra["prefix_cache"] = deployment.prefix_cache
    if progress is not None:
        if deployment.batching != "continuous":
            raise ValueError(
                "the progress heartbeat requires continuous batching")
        extra["progress"] = progress
    result = runner(device, model, requests, deployment.scheduler_limits(),
                    num_devices=deployment.num_devices,
                    max_sim_seconds=max_sim_seconds,
                    fast_forward=sim_cache, **extra)
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
        model=model,
        result=result,
        qos=qos,
        utilization=util,
    )


# --------------------------------------------------------------------- #
# Capacity search                                                        #
# --------------------------------------------------------------------- #

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
    def max_requests_per_s(self) -> float:
        return self.capacity.max_requests_per_s

    @property
    def qos(self) -> QoSReport:
        return self.capacity.qos_at_max

    def summary_lines(self) -> list[str]:
        spec = self.capacity_spec
        qos = self.qos
        probes = self.capacity.probes
        aborted = sum(1 for probe in probes if probe.aborted)
        slo = f"TBT p95 <= {spec.slo_tbt_s * 1e3:g} ms" \
            if spec.percentile == "p95" \
            else f"TBT {spec.percentile} <= {spec.slo_tbt_s * 1e3:g} ms"
        if spec.slo_ttft_s is not None:
            slo += f", TTFT <= {spec.slo_ttft_s * 1e3:g} ms"
        return [
            f"capacity of {self.chip.name} serving {self.model.name} "
            f"({self.deployment.num_devices} device(s), {slo}, "
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
                  **overrides) -> CapacityReport:
    """Search the highest SLO-compliant arrival rate for a deployment.

    ``capacity`` carries the SLO and search knobs (keyword
    ``overrides`` replace individual fields, e.g.
    ``find_capacity(dep, wl, slo_tbt_s=0.025)``).  The workload's
    ``rate_per_s`` is ignored — its trace, request count and seed
    define the probe workload.  The endpoint's scheduler limits follow
    the capacity engine's memory-derived admission policy (paper
    Fig. 16), not ``deployment.max_batch``.

    A deployment with an explicit ``fleet`` dispatches to
    :func:`find_fleet_capacity` instead: the workload's ``rate_per_s``
    is then the *fixed* demand and the search finds the cheapest group
    mix sustaining it.
    """
    from repro.serving.capacity import max_capacity_under_slo

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
    if deployment.batching != "continuous":
        # the capacity engine is iteration-faithful only for continuous
        # batching; a capacity figure silently measured under a
        # different policy than the spec declares would be a lie
        raise ValueError(
            f"capacity search requires continuous batching, "
            f"got {deployment.batching!r}")
    if deployment.prefix_cache is not None \
            and deployment.prefix_cache.enabled:
        # the capacity engine derives its own memory-based admission
        # limits and probes single-turn Poisson streams — a prefix
        # cache would be silently inert, faking a cold-path capacity
        # as a reuse result.  Bisect simulate() over session rates
        # instead (benchmarks/bench_prefix_reuse.py shows how).
        raise ValueError(
            "capacity search does not model prefix caching; drop the "
            "prefix_cache spec (or bisect simulate() over session "
            "rates, as benchmarks/bench_prefix_reuse.py does)")
    if deployment.faults is not None and deployment.faults.enabled:
        # a capacity figure quietly measured on a fault-free endpoint
        # while the spec asks for crashes would overstate resilience;
        # sweep simulate() under the fault spec instead
        raise ValueError(
            "capacity search models a fault-free endpoint; drop the "
            "faults spec (benchmarks/bench_resilience.py sweeps "
            "goodput under faults instead)")
    if overrides:
        base = capacity if capacity is not None else CapacitySpec()
        capacity = dataclasses.replace(base, **overrides)
    elif capacity is None:
        capacity = CapacitySpec()
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
class FleetCapacityReport:
    """Unified outcome of one mixed-fleet capacity search.

    The fleet analogue of :class:`CapacityReport` with the axes
    swapped: the arrival rate is fixed (``workload.rate_per_s``) and
    the search variable is the fleet itself — the report names the
    cheapest per-group replica mix that sustains the rate under the
    SLO, and the QoS measured at that mix.
    """

    deployment: DeploymentSpec
    workload: WorkloadSpec
    capacity_spec: CapacitySpec
    fleet: FleetCapacityResult

    @property
    def counts(self) -> tuple:
        return self.fleet.counts

    @property
    def qos(self) -> QoSReport:
        return self.fleet.qos_at_best

    @property
    def cost(self) -> float:
        return self.fleet.cost

    def mix_label(self) -> str:
        """``"2xador+1xa100"``-style label of the winning mix."""
        return "+".join(
            f"{count}x{group.label}"
            for count, group in zip(self.fleet.counts,
                                    self.deployment.fleet.groups))

    def summary_lines(self) -> list[str]:
        spec = self.capacity_spec
        qos = self.qos
        slo = f"TBT {spec.percentile} <= {spec.slo_tbt_s * 1e3:g} ms"
        if spec.slo_ttft_s is not None:
            slo += f", TTFT <= {spec.slo_ttft_s * 1e3:g} ms"
        return [
            f"cost-optimal fleet for {self.workload.rate_per_s:g} "
            f"req/s ({slo}, {self.workload.num_requests} "
            f"requests/probe):",
            f"  cheapest mix    : {self.mix_label()} "
            f"(cost rate {self.fleet.cost_rate:g}/s)",
            f"  replica-seconds : {self.fleet.replica_seconds:.1f} "
            f"(cost {self.fleet.cost:.1f})",
            f"  TTFT p95 at mix : {qos.ttft_p95_s * 1e3:.1f} ms",
            f"  TBT  p95 at mix : {qos.tbt_p95_s * 1e3:.2f} ms",
            f"  throughput      : {qos.tokens_per_s:,.0f} tokens/s",
            f"  probes          : {len(self.fleet.probes)} "
            f"({self.fleet.simulations} simulations)",
        ]

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


def find_fleet_capacity(deployment: DeploymentSpec,
                        workload: WorkloadSpec,
                        capacity: CapacitySpec | None = None,
                        max_sim_seconds: float = 600.0, *,
                        sim_cache: bool = True,
                        context_bucket: int = 1,
                        **overrides) -> FleetCapacityReport:
    """Find the cheapest group mix of a fleet meeting the SLO.

    The deployment must carry an explicit :class:`FleetSpec`; each
    group's candidate count ranges over ``[min_count or 0, max_count
    or count]`` and the search
    (:func:`repro.serving.capacity.cost_optimal_fleet`) bisects the
    leading group's count within every combination of the others,
    ranking feasible mixes by ``sum(count * cost_per_replica_s)``.
    Unlike :func:`find_capacity`, the workload's ``rate_per_s`` is
    honored — it is the demand the mix must sustain.
    """
    from repro.serving.capacity import cost_optimal_fleet

    if overrides:
        base = capacity if capacity is not None else CapacitySpec()
        capacity = dataclasses.replace(base, **overrides)
    elif capacity is None:
        capacity = CapacitySpec()
    result = cost_optimal_fleet(
        deployment, workload, capacity,
        max_sim_seconds=max_sim_seconds,
        sim_cache=sim_cache, context_bucket=context_bucket)
    return FleetCapacityReport(
        deployment=deployment,
        workload=workload,
        capacity_spec=capacity,
        fleet=result,
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
    chip: ChipSpec
    model: ModelConfig
    cluster: ClusterResult
    qos: QoSReport

    @property
    def result(self) -> SimulationResult:
        return self.cluster.merged

    @property
    def load(self) -> LoadImbalanceStats:
        return self.cluster.load

    @property
    def autoscale(self):
        return self.cluster.autoscale

    @property
    def faults(self):
        """The run's :class:`~repro.cluster.faults.FaultTrace`
        (``None`` when fault injection was off)."""
        return self.cluster.faults

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
            mix = "+".join(f"{g.count}x{g.label}"
                           for g in self.deployment.fleet.groups)
            fleet = mix if trace is None else \
                f"autoscaled (start {mix}, peak {trace.peak_replicas})"
            endpoint = "fleet"
        else:
            fleet = f"{self.deployment.replicas}x" if trace is None else \
                f"autoscaled (start {self.deployment.replicas}, " \
                f"peak {trace.peak_replicas})"
            endpoint = self.chip.name
        lines = [
            f"simulated {len(self.result.finished)} requests at "
            f"{self.workload.rate_per_s:g} req/s on "
            f"{fleet} {endpoint} "
            f"({self.deployment.num_devices} device(s)/replica, "
            f"{self.deployment.router} routing):",
            f"  TTFT mean/p95 : {qos.ttft_mean_s * 1e3:.1f} / "
            f"{qos.ttft_p95_s * 1e3:.1f} ms",
            f"  TBT  mean/p95 : {qos.tbt_mean_s * 1e3:.2f} / "
            f"{qos.tbt_p95_s * 1e3:.2f} ms",
            f"  E2E  mean     : {qos.e2e_mean_s:.2f} s",
            f"  throughput    : {qos.tokens_per_s:,.0f} tokens/s",
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


def simulate_cluster(deployment: DeploymentSpec, workload: WorkloadSpec,
                     max_sim_seconds: float = 600.0, *,
                     sim_cache: bool = True,
                     context_bucket: int = 1,
                     shards: int = 1,
                     progress=None) -> ClusterReport:
    """Run one cluster experiment: N replicas behind the spec'd router.

    The cluster engine is iteration-faithful only for continuous
    batching (each replica is a live, steppable endpoint); other
    batching policies are rejected loudly rather than silently
    approximated.  ``sim_cache`` / ``context_bucket`` behave as in
    :func:`simulate`; the memoized device model is shared by every
    replica, so one replica's decode evaluations warm the whole fleet.

    ``shards > 1`` partitions the fleet and its traffic over worker
    processes via :func:`repro.perf.scale.run_sharded_cluster` — a
    modeled approximation (per-shard routing), rejected loudly for
    autoscaled or fault-injected deployments.  ``shards=1`` (default)
    takes the exact engine path.
    """
    if deployment.batching != "continuous":
        raise ValueError(
            f"cluster serving requires continuous batching, "
            f"got {deployment.batching!r}")
    lead = deployment.fleet_groups()[0]
    chip = lead.chip_spec()
    model = get_model(lead.model)
    fleet_label = f"{deployment.replicas}x {chip.name}" \
        if deployment.fleet is None else \
        "+".join(f"{g.count}x{g.label}"
                 for g in deployment.fleet.groups)
    if shards != 1:
        from repro.perf.scale import run_sharded_cluster

        if progress is not None:
            raise ValueError(
                "the progress heartbeat is per-process; run sharded "
                "simulations without it (shards report on completion)")
        cluster = run_sharded_cluster(
            deployment, workload, max_sim_seconds, shards,
            sim_cache=sim_cache, context_bucket=context_bucket)
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
        chip=chip,
        model=model,
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
