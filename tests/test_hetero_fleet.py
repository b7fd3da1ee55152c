"""Heterogeneous-fleet suite: specs, routing, scaling, capacity.

The refactor's contract has two halves and each gets its own teeth:

* **Homogeneous parity** — a one-group :class:`FleetSpec` is the legacy
  ``replicas=N`` deployment spelled explicitly, so both must drive the
  cluster engine to the same bits (a Hypothesis property across trace
  shapes, fleet sizes, and the elastic features), and the legacy JSON
  shape must round-trip untouched.
* **Mixed fleets do something** — groups carry their own chip / knobs,
  the ``hetero-aware`` router places by probed capability, autoscaling
  grows the cheapest group first, reports break QoS and cost out per
  group, and the capacity search returns the cheapest mix meeting the
  SLO.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    DeploymentSpec,
    Experiment,
    FleetCapacityReport,
    FleetSpec,
    ReplicaGroupSpec,
    WorkloadSpec,
    build_cluster_engine,
    find_capacity,
    find_fleet_capacity,
    simulate,
)
from repro.cluster.autoscaler import AutoscaleSpec
from repro.cluster.faults import FaultSpec
from repro.cluster.router import ReplicaSnapshot, make_router
from repro.serving.capacity import EndpointUnservable
from repro.serving.dataset import ULTRACHAT_LIKE, ChatTraceConfig
from repro.serving.generator import (
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.request import Request
from repro.serving.sessions import SessionConfig, iter_session_requests

BURSTY = ChatTraceConfig(
    name="bursty-hetero",
    input_median=300.0,
    input_sigma=0.6,
    output_median=60.0,
    output_sigma=0.9,
)


def request_fingerprints(requests):
    return sorted(
        (r.request_id, r.generated_tokens, r.prefilled_tokens,
         r.first_token_time, r.last_token_time, r.finish_time,
         r.state.value)
        for r in requests)


def cluster_fingerprint(result):
    return tuple(
        (rep.total_time_s, rep.iterations, rep.decode_steps,
         request_fingerprints(rep.finished),
         request_fingerprints(rep.unfinished))
        for rep in result.replica_results)


# --------------------------------------------------------------------- #
# Specs: validation and strict JSON round-trips                          #
# --------------------------------------------------------------------- #

class TestSpecs:
    def test_group_round_trip(self):
        group = ReplicaGroupSpec(chip="a100", model="llama3-8b", count=3,
                                 num_devices=2, max_batch=64,
                                 cost_per_replica_s=2.5, min_count=1,
                                 max_count=5, provision_latency_s=4.0,
                                 name="gpu-pool")
        data = json.loads(json.dumps(group.to_dict()))
        assert ReplicaGroupSpec.from_dict(data) == group

    def test_fleet_round_trip(self):
        fleet = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=2),
            ReplicaGroupSpec(chip="a100", count=1, cost_per_replica_s=0.8),
        ))
        data = json.loads(json.dumps(fleet.to_dict()))
        assert FleetSpec.from_dict(data) == fleet

    def test_deployment_with_fleet_round_trips_via_experiment(self):
        experiment = Experiment(
            deployment=DeploymentSpec(fleet=FleetSpec(groups=(
                ReplicaGroupSpec(chip="ador", count=2),
                ReplicaGroupSpec(chip="a100", count=1),
            )), router="hetero-aware"),
            workload=WorkloadSpec(rate_per_s=5.0, num_requests=50, seed=1),
        )
        data = json.loads(json.dumps(experiment.to_dict()))
        assert Experiment.from_dict(data) == experiment

    def test_legacy_json_without_fleet_still_loads(self):
        # the refactor's compatibility bar: existing experiment files
        # carry no "fleet" key and must parse to fleet=None
        spec = DeploymentSpec.from_dict(
            {"chip": "ador", "replicas": 4, "router": "round-robin"})
        assert spec.fleet is None
        assert spec.replicas == 4
        assert "fleet" in spec.to_dict()

    def test_unknown_group_key_rejected(self):
        with pytest.raises(ValueError, match="cheap"):
            ReplicaGroupSpec.from_dict({"chip": "ador", "cheap": True})

    def test_fleet_needs_groups(self):
        with pytest.raises(ValueError, match="group"):
            FleetSpec(groups=())
        with pytest.raises(ValueError, match="group"):
            FleetSpec.from_dict({"groups": []})

    def test_fleet_conflicts_with_replicas(self):
        with pytest.raises(ValueError, match="replicas"):
            DeploymentSpec(replicas=2,
                           fleet=FleetSpec(groups=(ReplicaGroupSpec(),)))

    @pytest.mark.parametrize("knob, value", [
        ("chip", "a100"), ("model", "llama3-70b"), ("num_devices", 2),
        ("max_batch", 8), ("prefill_chunk_tokens", 256),
        ("kv_budget_bytes", 2.0 ** 30)])
    def test_fleet_rejects_top_level_endpoint_knobs(self, knob, value):
        fleet = FleetSpec(groups=(ReplicaGroupSpec(),))
        with pytest.raises(ValueError, match=f"fleet and {knob}="):
            DeploymentSpec(fleet=fleet, **{knob: value})

    def test_fleet_accepts_top_level_defaults_spelt_out(self):
        fleet = FleetSpec(groups=(ReplicaGroupSpec(),))
        spec = DeploymentSpec(fleet=fleet, chip="ador",
                              kv_budget_bytes=float("inf"))
        assert spec == DeploymentSpec(fleet=fleet)

    def test_group_count_bounds_validated(self):
        with pytest.raises(ValueError, match="min_count"):
            ReplicaGroupSpec(min_count=2, max_count=1)
        with pytest.raises(ValueError, match="count"):
            ReplicaGroupSpec(count=-1)

    def test_legacy_fields_fold_to_one_group(self):
        spec = DeploymentSpec(chip="a100", replicas=3, max_batch=64)
        groups = spec.fleet_groups()
        assert len(groups) == 1
        assert groups[0].chip == "a100"
        assert groups[0].count == 3
        assert groups[0].max_batch == 64
        assert spec.total_replicas == 3

    def test_with_fleet_keeps_sections_and_resets_endpoint_knobs(self):
        """What a sharded run builds: the deployment's batching, router
        and sections over the given fleet, everything else default."""
        faults = FaultSpec(crash_mtbf_s=30.0)
        spec = DeploymentSpec(chip="a100", replicas=3, max_batch=64,
                              router="least-outstanding", faults=faults)
        fleet = FleetSpec(groups=spec.fleet_groups())
        assert spec.with_fleet(fleet) == DeploymentSpec(
            router="least-outstanding", faults=faults, fleet=fleet)

    def test_explicit_fleet_total(self):
        spec = DeploymentSpec(fleet=FleetSpec(groups=(
            ReplicaGroupSpec(count=2), ReplicaGroupSpec(chip="a100"))))
        assert spec.total_replicas == 3
        assert [g.count for g in spec.fleet_groups()] == [2, 1]


# --------------------------------------------------------------------- #
# The parity property: one-group fleet == legacy replicas=N, bit for bit #
# --------------------------------------------------------------------- #

ELASTIC = {
    "none": {},
    "autoscale": {"autoscale": AutoscaleSpec(
        policy="queue-depth", min_replicas=1, max_replicas=4,
        provision_latency_s=3.0)},
    "faults": {"faults": FaultSpec(seed=3, crash_mtbf_s=40.0,
                                   restart_delay_s=2.0)},
}


def _trace_requests(kind, seed, count):
    if kind == "steady":
        return list(iter_poisson_requests(ULTRACHAT_LIKE, 10.0, seed, count))
    if kind == "bursty":
        return list(iter_onoff_requests(
            BURSTY, on_rate_per_s=30.0, off_rate_per_s=2.0,
            phase_seconds=2.0, seed=seed, count=count))
    return list(iter_session_requests(SessionConfig(), max(1, count // 3),
                                      3.0, seed))


class _RecordingRouter:
    """Routes like the named router and keeps every snapshot it sees."""

    def __init__(self, name):
        self.inner = make_router(name)
        self.snapshots = []

    def route(self, request, replicas):
        self.snapshots.append(tuple(replicas))
        return self.inner.route(request, replicas)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["steady", "bursty", "sessions"]),
    replicas=st.sampled_from([1, 4]),
    elastic=st.sampled_from(sorted(ELASTIC)),
    seed=st.integers(0, 2**16),
    count=st.integers(3, 20),
)
def test_one_group_fleet_bit_identical_to_legacy(kind, replicas, elastic,
                                                 seed, count):
    """The refactor's homogeneous-parity bar: spelling the fleet as one
    explicit group must not move a single bit anywhere in the engine —
    across trace shapes, fleet sizes, and the elastic features — and
    the router must see the same snapshots."""
    def run(spelling):
        if spelling == "fleet":
            deployment = DeploymentSpec(
                fleet=FleetSpec(groups=(
                    ReplicaGroupSpec(chip="ador", count=replicas,
                                     max_batch=8),)),
                **ELASTIC[elastic])
        else:
            deployment = DeploymentSpec(replicas=replicas, max_batch=8,
                                        **ELASTIC[elastic])
        engine = build_cluster_engine(deployment)
        router = engine.router = _RecordingRouter(engine.router)
        result = engine.run(_trace_requests(kind, seed, count),
                            max_sim_seconds=120.0)
        return result, router.snapshots

    (legacy, legacy_seen), (fleet, fleet_seen) = run("legacy"), run("fleet")
    assert legacy_seen == fleet_seen
    assert cluster_fingerprint(legacy) == cluster_fingerprint(fleet)
    assert legacy.merged.total_time_s == fleet.merged.total_time_s
    if legacy.autoscale is not None:
        assert legacy.autoscale.events == fleet.autoscale.events
    # the one-group path must also keep the legacy report shape: no
    # per-group breakdown appears until a fleet actually mixes groups
    assert fleet.groups is None


def test_slo_aware_default_threshold_is_the_knob_default():
    # satellite contract: exposing the threshold must not move the
    # default behavior — "slo-aware" and "slo-aware:256" are the same
    # policy, decision for decision
    requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 10.0, 11, 80))
    snapshots = tuple(
        ReplicaSnapshot(replica_id=i,
                        outstanding_requests=int(pick[0]),
                        outstanding_tokens=int(pick[1]))
        for i, pick in enumerate(
            np.random.default_rng(12).integers(0, 500, size=(4, 2))))
    default = make_router("slo-aware")
    parametric = make_router("slo-aware:256")
    assert default.short_input_tokens == parametric.short_input_tokens
    for request in requests:
        assert default.route(request, snapshots) \
            == parametric.route(request, snapshots)


def test_parametric_router_name_errors():
    with pytest.raises(ValueError, match="integer token"):
        make_router("slo-aware:fast")
    with pytest.raises(ValueError, match="short_input_tokens"):
        make_router("hetero-aware:0")
    with pytest.raises(KeyError):
        make_router("round-robin:3")   # not a threshold router


# --------------------------------------------------------------------- #
# Capability-aware routing                                               #
# --------------------------------------------------------------------- #

def _snapshot(replica_id, outstanding, tokens, prefill=0.0, decode=0.0):
    return ReplicaSnapshot(
        replica_id=replica_id,
        outstanding_requests=outstanding, outstanding_tokens=tokens,
        prefill_tokens_per_s=prefill, decode_tokens_per_s=decode)


def _request(request_id, input_tokens):
    return Request(request_id=request_id, arrival_time=0.0,
                   input_tokens=input_tokens, output_tokens=8)


class TestHeteroAwareRouter:
    def test_long_prompts_prefer_prefill_fast_groups(self):
        # replica 0 is less loaded, but replica 1 prefills 8x faster:
        # the normalized backlog (tokens / rate) favors the fast group
        replicas = (_snapshot(0, 1, 1000, prefill=1000.0, decode=100.0),
                    _snapshot(1, 2, 2000, prefill=8000.0, decode=100.0))
        router = make_router("hetero-aware")
        assert router.route(_request(0, 2048), replicas) == 1

    def test_short_prompts_prefer_decode_fast_queues(self):
        replicas = (_snapshot(0, 2, 500, prefill=1000.0, decode=50.0),
                    _snapshot(1, 3, 500, prefill=1000.0, decode=400.0))
        router = make_router("hetero-aware")
        assert router.route(_request(0, 64), replicas) == 1

    def test_without_capability_falls_back_to_slo_aware(self):
        # the homogeneous path leaves the rates at 0.0; every decision
        # must then match slo-aware exactly (group-blindness contract)
        rng = np.random.default_rng(21)
        loads = rng.integers(0, 300, size=(5, 2))
        replicas = tuple(_snapshot(i, int(a), int(b))
                         for i, (a, b) in enumerate(loads))
        hetero = make_router("hetero-aware")
        slo = make_router("slo-aware")
        for request_id, tokens in enumerate([16, 256, 257, 4096]):
            request = _request(request_id, tokens)
            assert hetero.route(request, replicas) \
                == slo.route(request, replicas)

    def test_mixed_known_unknown_prefers_probed_groups(self):
        replicas = (_snapshot(0, 0, 0),                       # unknown
                    _snapshot(1, 5, 5000, prefill=4000.0,
                              decode=200.0))
        router = make_router("hetero-aware")
        # unknown capability compares as an infinite drain, so the
        # probed replica wins despite its deeper queue
        assert router.route(_request(0, 1024), replicas) == 1


# --------------------------------------------------------------------- #
# Mixed fleets end to end: reports, scaling, capacity                    #
# --------------------------------------------------------------------- #

MIXED = FleetSpec(groups=(
    ReplicaGroupSpec(chip="ador", count=2, cost_per_replica_s=1.0),
    ReplicaGroupSpec(chip="a100", count=1, cost_per_replica_s=0.8),
))
WORKLOAD = WorkloadSpec(rate_per_s=6.0, num_requests=90, seed=5)


class TestMixedFleet:
    def test_group_breakdowns_in_report(self):
        report = simulate(DeploymentSpec(fleet=MIXED,
                                         router="hetero-aware"), WORKLOAD)
        groups = report.groups
        assert [g.name for g in groups] == ["ador", "a100"]
        assert [g.replica_count for g in groups] == [2, 1]
        assert sum(g.finished_requests for g in groups) \
            == len(report.result.finished)
        wall = report.result.total_time_s
        assert groups[0].replica_seconds == pytest.approx(2 * wall)
        assert groups[1].cost == pytest.approx(0.8 * wall)
        text = report.summary()
        assert "2xador+1xa100" in text
        assert "group 0 [ador]" in text and "group 1 [a100]" in text

    def test_summary_takes_device_counts_from_the_groups(self):
        workload = WorkloadSpec(rate_per_s=4.0, num_requests=12, seed=3)
        one = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=2, num_devices=2),))
        text = simulate(DeploymentSpec(fleet=one), workload).summary()
        assert "on 2xador fleet (2 device(s)/replica," in text
        mixed = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", num_devices=2),
            ReplicaGroupSpec(chip="a100"),
        ))
        text = simulate(DeploymentSpec(fleet=mixed, router="hetero-aware"),
                        workload).summary()
        assert "1xador+1xa100 fleet (2/1 device(s)/replica," in text

    def test_mixed_fleet_is_deterministic(self):
        deployment = DeploymentSpec(fleet=MIXED, router="hetero-aware")
        first = simulate(deployment, WORKLOAD)
        second = simulate(deployment, WORKLOAD)
        assert cluster_fingerprint(first.cluster) \
            == cluster_fingerprint(second.cluster)

    def test_autoscale_grows_cheapest_group_first(self):
        fleet = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=1, cost_per_replica_s=1.0,
                             max_count=4),
            ReplicaGroupSpec(chip="a100", count=1, cost_per_replica_s=3.0,
                             max_count=4),
        ))
        deployment = DeploymentSpec(
            fleet=fleet, router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=2,
                                    max_replicas=4,
                                    provision_latency_s=1.0,
                                    decision_interval_s=1.0))
        report = simulate(
            deployment,
            WorkloadSpec(rate_per_s=25.0, num_requests=150, seed=9))
        trace = report.autoscale
        assert trace.scale_ups > 0
        groups = {g.name: g for g in report.groups}
        # the fleet cap (4) leaves headroom inside the cheap ador group
        # (max_count=4), so every scale-up must land there; the
        # expensive a100 group never grows beyond its spec'd single
        # replica
        assert groups["ador"].replica_count > 1
        assert groups["a100"].replica_count == 1

    def test_scale_down_retires_most_expensive_group(self):
        fleet = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=2, cost_per_replica_s=1.0,
                             min_count=1),
            ReplicaGroupSpec(chip="a100", count=2, cost_per_replica_s=3.0,
                             min_count=0),
        ))
        deployment = DeploymentSpec(
            fleet=fleet, router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=4,
                                    decision_interval_s=1.0))
        # a trickle load: the fleet should shrink, shedding the
        # expensive a100 replicas before any cheap ador one
        report = simulate(
            deployment,
            WorkloadSpec(rate_per_s=1.0, num_requests=40, seed=3))
        assert report.autoscale.scale_downs > 0
        groups = {g.name: g for g in report.groups}
        assert groups["a100"].replica_seconds \
            < groups["ador"].replica_seconds

    def test_fleet_capacity_returns_cheapest_feasible_mix(self):
        fleet = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=2, max_count=3,
                             cost_per_replica_s=1.0),
            ReplicaGroupSpec(chip="a100", count=1, max_count=1,
                             cost_per_replica_s=0.8),
        ))
        deployment = DeploymentSpec(fleet=fleet, router="hetero-aware")
        workload = WorkloadSpec(rate_per_s=5.0, num_requests=60, seed=3)
        report = find_fleet_capacity(deployment, workload,
                                     slo_tbt_s=0.05)
        lo_hi = [(0, 3), (0, 1)]
        for count, (lo, hi) in zip(report.counts, lo_hi):
            assert lo <= count <= hi
        # optimality within the probe log: no feasible probe is cheaper
        feasible = [p for p in report.probes if p.feasible]
        assert report.counts in [p.counts for p in feasible]
        assert report.cost_rate == min(p.cost_rate for p in feasible)
        winner = next(p for p in feasible if p.counts == report.counts)
        assert report.qos == winner.qos
        assert report.cost == pytest.approx(
            winner.total_time_s * report.cost_rate)
        assert report.replica_seconds == pytest.approx(
            winner.total_time_s * sum(report.counts))
        # the winning mix re-probes from cache: simulations < probes
        assert report.simulations <= len(report.probes)
        assert report.mix_label().count("x") == 2

    def test_find_capacity_dispatches_on_fleet(self):
        deployment = DeploymentSpec(fleet=MIXED, router="hetero-aware")
        report = find_capacity(deployment, WORKLOAD, slo_tbt_s=0.06)
        assert isinstance(report, FleetCapacityReport)
        assert report == find_fleet_capacity(deployment, WORKLOAD,
                                             slo_tbt_s=0.06)

    def test_fleet_capacity_unservable_when_slo_impossible(self):
        deployment = DeploymentSpec(fleet=FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=1, max_count=1),)))
        from repro.api.specs import CapacitySpec

        with pytest.raises(EndpointUnservable):
            find_fleet_capacity(
                deployment,
                WorkloadSpec(rate_per_s=50.0, num_requests=60, seed=1),
                CapacitySpec(slo_tbt_s=1e-6),
                max_sim_seconds=30.0)

    def test_fleet_capacity_rejects_autoscale_and_lattice_blowup(self):
        deployment = DeploymentSpec(
            fleet=MIXED, autoscale=AutoscaleSpec(policy="queue-depth"))
        with pytest.raises(ValueError, match="autoscale"):
            find_fleet_capacity(deployment, WORKLOAD)
        # 17 x 17 = 289 trailing-group columns, past the 256 cap; the
        # check runs before any probe is simulated
        wide = DeploymentSpec(fleet=FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=1),
            ReplicaGroupSpec(chip="a100", count=1, max_count=16),
            ReplicaGroupSpec(chip="h100", count=1, max_count=16),
        )))
        with pytest.raises(ValueError, match="lattice has 289"):
            find_fleet_capacity(wide, WORKLOAD)
        legacy = DeploymentSpec(replicas=1)
        with pytest.raises(ValueError, match="fleet"):
            find_fleet_capacity(legacy, WORKLOAD)
