"""Tests for the multi-replica cluster layer (repro.cluster)."""

import json
import math
import pathlib

import pytest

from repro.api import (
    ClusterReport,
    DeploymentSpec,
    Experiment,
    ServingReport,
    WorkloadSpec,
    build_cluster_engine,
    run_experiment,
    simulate,
    simulate_cluster,
)
from repro.cluster import (
    AutoscaleSpec,
    ClusterEngine,
    EngineGroup,
    FaultEvent,
    FaultSpec,
    FleetObservation,
    ReplicaSim,
    ReplicaSnapshot,
    list_autoscalers,
    list_routers,
    make_autoscaler,
    make_router,
)
from repro.core.scheduling import device_model_for
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.serving.dataset import ChatTraceConfig, ULTRACHAT_LIKE
from repro.serving.engine import ServingEngine
from repro.serving.generator import (
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.qos import compute_qos
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits
from repro.serving.sessions import SessionConfig, iter_session_requests

EXPERIMENTS = pathlib.Path(__file__).parent.parent / "experiments"


@pytest.fixture(scope="module")
def llama3():
    return get_model("llama3-8b")


@pytest.fixture(scope="module")
def ador_device():
    return device_model_for(get_chip("ador"))


def poisson_requests(rate, count, seed=7, trace=ULTRACHAT_LIKE):
    return list(iter_poisson_requests(trace, rate, seed, count))


def snapshots(outstanding, tokens=None):
    tokens = tokens if tokens is not None else [o * 100 for o in outstanding]
    return [
        ReplicaSnapshot(replica_id=i,
                        outstanding_requests=o, outstanding_tokens=t)
        for i, (o, t) in enumerate(zip(outstanding, tokens))
    ]


def uniform_fleet(device, model, limits, count, **knobs):
    """An engine over one group of ``count`` identical replicas."""
    return ClusterEngine(
        [EngineGroup("ador", device, model, limits, count=count)], **knobs)


def request(i=0, session=None, input_tokens=64, output_tokens=16,
            arrival=0.0):
    return Request(request_id=i, arrival_time=arrival,
                   input_tokens=input_tokens, output_tokens=output_tokens,
                   session_id=session)


class TestRouterPolicies:
    def test_builtins_registered(self):
        assert {"round-robin", "least-outstanding", "session-affinity",
                "slo-aware"} <= set(list_routers())

    def test_round_robin_cycles(self):
        router = make_router("round-robin")
        picks = [router.route(request(i), snapshots([0, 0, 0]))
                 for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_joins_shortest_queue(self):
        router = make_router("least-outstanding")
        assert router.route(request(), snapshots([3, 1, 2])) == 1

    def test_least_outstanding_ties_break_deterministically(self):
        router = make_router("least-outstanding")
        assert router.route(request(), snapshots([2, 2, 2])) == 0

    def test_session_affinity_sticks(self):
        router = make_router("session-affinity")
        first = router.route(request(0, session=42), snapshots([5, 0, 0]))
        assert first == 1  # first turn joins the shortest queue
        # later turns follow the session even when load has shifted
        assert router.route(request(1, session=42),
                            snapshots([0, 9, 0])) == 1

    def test_session_affinity_without_session_uses_load(self):
        router = make_router("session-affinity")
        assert router.route(request(session=None), snapshots([4, 0, 1])) == 1

    def test_slo_aware_splits_by_prompt_length(self):
        router = make_router("slo-aware")
        short = request(input_tokens=32)
        long = request(input_tokens=2048)
        # short prompt: fewest outstanding requests (replica 1)
        # long prompt: least outstanding token mass (replica 0)
        snaps = snapshots([2, 1, 3], tokens=[50, 5000, 9000])
        assert router.route(short, snaps) == 1
        assert router.route(long, snaps) == 0

    def test_unknown_router_fails_loudly(self):
        with pytest.raises(KeyError, match="router policy"):
            make_router("no-such-router")


class TestClusterEngine:
    def test_single_replica_matches_serving_engine(self, ador_device,
                                                   llama3):
        limits = SchedulerLimits(max_batch=256, prefill_chunk_tokens=512)
        single = ServingEngine(ador_device, llama3, limits).run(
            poisson_requests(10.0, 80), max_sim_seconds=600.0)
        cluster = uniform_fleet(ador_device, llama3, limits, 1).run(
            poisson_requests(10.0, 80), max_sim_seconds=600.0)
        assert len(cluster.merged.finished) == len(single.finished)
        assert cluster.merged.total_time_s \
            == pytest.approx(single.total_time_s)
        assert cluster.merged.iterations == single.iterations
        single_qos = compute_qos(single.finished, single.total_time_s)
        cluster_qos = cluster.qos()
        assert cluster_qos.ttft_p95_s == pytest.approx(single_qos.ttft_p95_s)

    def test_deterministic_across_runs(self, ador_device, llama3):
        limits = SchedulerLimits(max_batch=64)

        def run_once():
            engine = uniform_fleet(ador_device, llama3, limits, 3,
                                   router="least-outstanding")
            result = engine.run(poisson_requests(30.0, 150),
                                max_sim_seconds=600.0)
            qos = result.qos()
            return (qos.ttft_p95_s, qos.tbt_p95_s,
                    result.load.requests_per_replica)

        assert run_once() == run_once()

    def test_round_robin_balances_request_counts(self, ador_device, llama3):
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 4,
                               router="round-robin")
        result = engine.run(poisson_requests(40.0, 202),
                            max_sim_seconds=600.0)
        counts = result.load.requests_per_replica
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 202

    def test_least_outstanding_keeps_fleet_balanced(self, ador_device,
                                                    llama3):
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 4,
                               router="least-outstanding")
        result = engine.run(poisson_requests(40.0, 200),
                            max_sim_seconds=600.0)
        assert result.load.request_imbalance < 1.25

    def test_session_affinity_is_sticky(self, ador_device, llama3):
        requests = list(iter_session_requests(
            SessionConfig(), sessions=60, session_rate_per_s=5.0, seed=11))
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 4,
                               router="session-affinity")
        result = engine.run(requests, max_sim_seconds=600.0)
        homes = {}
        for index, replica in enumerate(result.replica_results):
            for r in replica.finished + replica.unfinished:
                homes.setdefault(r.session_id, set()).add(index)
        assert homes, "expected multi-turn sessions in the stream"
        assert all(len(replicas) == 1 for replicas in homes.values())

    def test_no_request_lost_or_duplicated(self, ador_device, llama3):
        requests = poisson_requests(40.0, 120)
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 3,
                               router="slo-aware")
        result = engine.run(requests, max_sim_seconds=600.0)
        seen = result.merged.finished + result.merged.unfinished
        assert len(seen) == len(requests)
        assert len(set(seen)) == len(requests)  # identity-unique

    def test_bad_router_index_rejected(self, ador_device, llama3):
        class BadRouter:
            def route(self, request, replicas):
                return len(replicas)  # out of range

        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 2,
                               router=BadRouter())
        with pytest.raises(ValueError, match="replica index"):
            engine.run(poisson_requests(5.0, 4), max_sim_seconds=600.0)

    def test_replicas_must_be_positive(self, ador_device, llama3):
        with pytest.raises(ValueError):
            uniform_fleet(ador_device, llama3, SchedulerLimits(), 0)

    def test_groups_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClusterEngine([])

    def test_unknown_router_rejected_at_construction(self, ador_device,
                                                     llama3):
        with pytest.raises(KeyError, match="router policy"):
            uniform_fleet(ador_device, llama3, SchedulerLimits(), 2,
                          router="no-such-router")

    def test_run_is_reusable(self, ador_device, llama3):
        """A second run() must not inherit the first run's clocks,
        schedulers or finished requests."""
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 2,
                               router="session-affinity")
        first = engine.run(poisson_requests(10.0, 30, seed=1),
                           max_sim_seconds=600.0)
        second = engine.run(poisson_requests(10.0, 30, seed=1),
                            max_sim_seconds=600.0)
        assert len(second.merged.finished) == len(first.merged.finished) == 30
        assert second.merged.total_time_s \
            == pytest.approx(first.merged.total_time_s)
        assert second.load.requests_per_replica \
            == first.load.requests_per_replica

    def test_post_horizon_arrival_clamps_like_serving_engine(
            self, ador_device, llama3):
        """Parity holds even with an arrival past the horizon: both the
        single engine and the 1-replica cluster clamp the clock to
        max_sim_seconds instead of tracking the late arrival."""
        def stream():
            return [
                Request(request_id=0, arrival_time=0.0,
                        input_tokens=64, output_tokens=4),
                Request(request_id=1, arrival_time=10_000.0,
                        input_tokens=64, output_tokens=4),
            ]

        limits = SchedulerLimits()
        single = ServingEngine(ador_device, llama3, limits).run(
            stream(), max_sim_seconds=600.0)
        cluster = uniform_fleet(ador_device, llama3, limits, 1).run(
            stream(), max_sim_seconds=600.0)
        assert single.total_time_s == pytest.approx(600.0)
        assert cluster.merged.total_time_s \
            == pytest.approx(single.total_time_s)
        assert len(cluster.merged.finished) == len(single.finished) == 1

    def test_busy_fractions_share_the_fleet_wall_clock(self, ador_device,
                                                       llama3):
        """An early-idle replica must report low utilization, not 1.0
        against its own stopped clock."""
        # session 7 pins almost all load to one replica; the other
        # serves a single early request then idles
        requests = [request(i, session=7, arrival=0.05 * i,
                            input_tokens=512, output_tokens=64)
                    for i in range(30)]
        requests.append(request(30, session=8, arrival=0.0,
                                input_tokens=32, output_tokens=2))
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 2,
                               router="session-affinity")
        result = engine.run(requests, max_sim_seconds=600.0)
        busy = sorted(result.load.busy_fraction_per_replica)
        assert busy[0] < 0.2    # the idle replica
        assert busy[1] > 0.8    # the pinned replica


class TestSnapshotCounters:
    """Every snapshot's outstanding counters equal a recompute over the
    requests its replica still holds — routed but not yet enqueued,
    queued, prefilling or decoding — on fixed, autoscaled and crashing
    fleets."""

    @pytest.fixture
    def snapshots(self, monkeypatch):
        original = ReplicaSim.snapshot
        taken = []

        def checked(replica):
            snapshot = original(replica)
            scheduler = replica.scheduler
            held = [*replica.pending, *scheduler.queued,
                    *scheduler.prefilling, *scheduler.decoding]
            assert snapshot.outstanding_requests == len(held)
            assert snapshot.outstanding_tokens \
                == sum(r.input_tokens + r.output_tokens for r in held)
            taken.append(snapshot)
            return snapshot

        monkeypatch.setattr(ReplicaSim, "snapshot", checked)
        return taken

    def test_fixed_slo_aware_fleet(self, snapshots, ador_device, llama3):
        result = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 3,
            router="slo-aware").run(poisson_requests(30.0, 200),
                                    max_sim_seconds=600.0)
        assert len(result.merged.finished) == 200
        assert any(s.outstanding_tokens for s in snapshots)

    def test_autoscaled_fleet(self, snapshots, ador_device, llama3):
        result = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 1,
            router="slo-aware",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=4,
                                    decision_interval_s=1.0,
                                    provision_latency_s=1.0)).run(
            poisson_requests(30.0, 200), max_sim_seconds=600.0)
        trace = result.autoscale
        assert trace.scale_ups >= 1 and trace.scale_downs >= 1
        assert len(result.merged.finished) == 200
        assert any(s.outstanding_tokens for s in snapshots)

    def test_fleet_with_crashes(self, snapshots, ador_device, llama3):
        crashed = (0, 2)
        faults = FaultSpec(restart_delay_s=2.0, events=tuple(
            FaultEvent("crash", replica_id=replica, time_s=1.0 + replica)
            for replica in crashed))
        result = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 3,
            router="slo-aware", faults=faults).run(
            poisson_requests(30.0, 200), max_sim_seconds=600.0)
        assert result.faults.crashes == 2 and result.faults.retries > 0
        # replica results are in id order on a fixed fleet: some retried
        # requests finished away from the replica that lost them
        assert any(r.retries
                   for index, replica in enumerate(result.replica_results)
                   if index not in crashed for r in replica.finished)
        assert snapshots


class TestClusterParity:
    def test_4x_cluster_ttft_within_25pct_of_single(self):
        """The ISSUE acceptance bar: a 4-replica fleet at 4x the rate
        keeps aggregate p95 TTFT within 25% of one replica at rate r."""
        rate = 10.0
        single = simulate(DeploymentSpec(chip="ador"),
                          WorkloadSpec(rate_per_s=rate, num_requests=100))
        cluster = simulate(
            DeploymentSpec(chip="ador", replicas=4, router="round-robin"),
            WorkloadSpec(rate_per_s=4 * rate, num_requests=400))
        assert isinstance(cluster, ClusterReport)
        assert cluster.qos.ttft_p95_s <= 1.25 * single.qos.ttft_p95_s
        # and the fleet actually serves ~4x the token throughput
        assert cluster.qos.tokens_per_s > 2.5 * single.qos.tokens_per_s


class TestBurstyRouting:
    def test_least_outstanding_beats_round_robin_p99_on_bursts(
            self, ador_device, llama3):
        """Bursty on/off traffic with heavy-tailed outputs and a
        constrained per-replica batch: join-shortest-queue routes around
        backlogged replicas, round-robin feeds them blindly."""
        trace = ChatTraceConfig(name="bursty-heavy", input_median=550.0,
                                input_sigma=0.8, output_median=180.0,
                                output_sigma=1.1)
        limits = SchedulerLimits(max_batch=12, prefill_chunk_tokens=512)

        def mean_p99(router):
            values = []
            for seed in (3, 7, 19):
                requests = list(iter_onoff_requests(
                    trace, on_rate_per_s=60.0, off_rate_per_s=4.0,
                    phase_seconds=3.0, seed=seed, count=400))
                engine = uniform_fleet(ador_device, llama3, limits, 4,
                                       router=router)
                result = engine.run(requests, max_sim_seconds=600.0)
                values.append(result.qos().ttft_p99_s)
            return sum(values) / len(values)

        assert mean_p99("least-outstanding") < mean_p99("round-robin")


class TestClusterSpecsAndFacade:
    def test_deployment_spec_cluster_fields_round_trip(self):
        spec = DeploymentSpec(chip="ador", replicas=4,
                              router="least-outstanding")
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_old_deployment_dicts_default_to_single_replica(self):
        spec = DeploymentSpec.from_dict({"chip": "ador"})
        assert spec.replicas == 1
        assert spec.router == "round-robin"

    def test_unknown_deployment_field_still_rejected(self):
        with pytest.raises(ValueError, match="unknown deployment field"):
            DeploymentSpec.from_dict({"chip": "ador", "replicass": 2})

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError):
            DeploymentSpec(replicas=0)

    def test_simulate_dispatches_on_replicas(self):
        workload = WorkloadSpec(rate_per_s=10.0, num_requests=40)
        single = simulate(DeploymentSpec(chip="ador"), workload)
        cluster = simulate(DeploymentSpec(chip="ador", replicas=2), workload)
        assert isinstance(single, ServingReport)
        assert isinstance(cluster, ClusterReport)

    def test_cluster_requires_continuous_batching(self):
        # the spec rejects a static fleet; a one-endpoint static spec
        # handed straight to the cluster path fails there instead of
        # running continuous batching under the static name
        static = DeploymentSpec(chip="ador", batching="static")
        with pytest.raises(ValueError, match="continuous"):
            simulate_cluster(static,
                             WorkloadSpec(rate_per_s=5.0, num_requests=10))
        with pytest.raises(ValueError, match="continuous"):
            build_cluster_engine(static)

    def test_cluster_report_summary_mentions_fleet(self):
        report = simulate(
            DeploymentSpec(chip="ador", replicas=2,
                           router="least-outstanding"),
            WorkloadSpec(rate_per_s=10.0, num_requests=40))
        text = report.summary()
        assert "2x" in text
        assert "least-outstanding" in text
        assert "requests/replica" in text

    def test_committed_cluster_experiment_runs(self):
        path = EXPERIMENTS / "cluster_ador_4x.json"
        data = json.loads(path.read_text())
        experiment = Experiment.from_dict(data)
        assert experiment.deployment.replicas == 4
        report = run_experiment(path)
        assert isinstance(report, ClusterReport)
        assert len(report.result.finished) > 0
        assert not math.isnan(report.qos.ttft_p95_s)


# --------------------------------------------------------------------- #
# Router contract: positions, not replica ids                            #
# --------------------------------------------------------------------- #

def snapshot_for(replica_id, outstanding, tokens=None):
    """A snapshot with an explicit (possibly non-contiguous) replica id."""
    tokens = tokens if tokens is not None else outstanding * 100
    return ReplicaSnapshot(replica_id=replica_id,
                           outstanding_requests=outstanding,
                           outstanding_tokens=tokens)


def _legacy_least_outstanding(replicas):
    """The pre-fix id-returning JSQ — correct only while ids == positions."""
    return min(replicas,
               key=lambda s: (s.outstanding_requests, s.replica_id)
               ).replica_id


class LegacyRoundRobin:
    """Verbatim pre-fix round-robin (bare counter, no epoch reset)."""

    def __init__(self):
        self._next = 0

    def route(self, request, replicas):
        index = self._next % len(replicas)
        self._next += 1
        return index


class LegacyLeastOutstanding:
    def route(self, request, replicas):
        return _legacy_least_outstanding(replicas)


class LegacySessionAffinity:
    """Verbatim pre-fix stickiness: homes stored as ids, length guard."""

    def __init__(self):
        self._home = {}

    def route(self, request, replicas):
        if request.session_id is None:
            return _legacy_least_outstanding(replicas)
        home = self._home.get(request.session_id)
        if home is None or home >= len(replicas):
            home = _legacy_least_outstanding(replicas)
            self._home[request.session_id] = home
        return home


class LegacySloAware:
    def __init__(self, short_input_tokens=256):
        self.short_input_tokens = short_input_tokens

    def route(self, request, replicas):
        if request.input_tokens <= self.short_input_tokens:
            return _legacy_least_outstanding(replicas)
        return min(replicas,
                   key=lambda s: (s.outstanding_tokens, s.replica_id)
                   ).replica_id


class TestRouterContractParity:
    """Fixed-fleet runs are bit-identical across the id->position fix.

    The legacy routers return ``replica_id``s (the pre-fix semantics);
    on a static fleet ids and positions coincide, so running them
    through the position-based engine must reproduce the exact
    assignment and QoS of the fixed builtins.
    """

    LEGACY = {
        "round-robin": LegacyRoundRobin,
        "least-outstanding": LegacyLeastOutstanding,
        "session-affinity": LegacySessionAffinity,
        "slo-aware": LegacySloAware,
    }

    @staticmethod
    def _session_stream():
        return list(iter_session_requests(
            SessionConfig(), sessions=50, session_rate_per_s=6.0, seed=23))

    @staticmethod
    def _assignment(result):
        return tuple(
            tuple(sorted(r.request_id
                         for r in replica.finished + replica.unfinished))
            for replica in result.replica_results)

    @pytest.mark.parametrize("router", sorted(LEGACY))
    def test_fixed_fleet_bit_identical(self, ador_device, llama3, router):
        limits = SchedulerLimits(max_batch=32)
        new = uniform_fleet(ador_device, llama3, limits, 4,
                            router=router).run(
            self._session_stream(), max_sim_seconds=600.0)
        legacy = uniform_fleet(ador_device, llama3, limits, 4,
                               router=self.LEGACY[router]()).run(
            self._session_stream(), max_sim_seconds=600.0)
        assert self._assignment(new) == self._assignment(legacy)
        assert new.qos() == legacy.qos()
        assert new.merged.total_time_s == legacy.merged.total_time_s
        assert new.merged.iterations == legacy.merged.iterations


class TestRoutersOnDynamicFleets:
    def test_round_robin_cycles_cleanly_across_size_epochs(self):
        router = make_router("round-robin")
        three = snapshots([0, 0, 0])
        assert [router.route(request(i), three) for i in range(4)] \
            == [0, 1, 2, 0]
        # fleet grows mid-cycle: the cursor keeps its phase and the new
        # position joins the rotation this lap
        four = snapshots([0, 0, 0, 0])
        assert [router.route(request(i), four) for i in range(4)] \
            == [1, 2, 3, 0]
        # a shrink clamps the out-of-range cursor and cycles cleanly
        # over the smaller fleet
        two = snapshots([0, 0])
        assert [router.route(request(i), two) for i in range(4)] \
            == [1, 0, 1, 0]

    def test_round_robin_oscillating_size_does_not_pin_position_zero(self):
        """Replicas finishing provisioning / starting to drain flip the
        routable count between consecutive arrivals; the cursor must
        keep rotating instead of resetting to position 0 every time."""
        router = make_router("round-robin")
        picks = []
        for i in range(8):
            size = 3 if i % 2 else 2
            picks.append(router.route(request(i), snapshots([0] * size)))
        assert picks.count(0) <= len(picks) // 2

    def test_round_robin_fixed_fleet_unchanged(self):
        router = make_router("round-robin")
        three = snapshots([0, 0, 0])
        assert [router.route(request(i), three) for i in range(7)] \
            == [0, 1, 2, 0, 1, 2, 0]

    def test_least_outstanding_returns_position_not_id(self):
        router = make_router("least-outstanding")
        # after a scale-down the fleet keeps non-contiguous ids; the
        # emptiest replica (id 7) sits at position 1
        snaps = [snapshot_for(2, 4), snapshot_for(7, 0), snapshot_for(9, 2)]
        assert router.route(request(), snaps) == 1

    def test_session_affinity_follows_home_to_its_new_position(self):
        router = make_router("session-affinity")
        full = [snapshot_for(0, 5), snapshot_for(1, 2), snapshot_for(2, 0),
                snapshot_for(3, 1)]
        assert router.route(request(0, session=9), full) == 2  # home id 2
        # replicas 0 and 1 scaled away: id 2 now sits at position 0
        shrunk = [snapshot_for(2, 9), snapshot_for(3, 0)]
        assert router.route(request(1, session=9), shrunk) == 0

    def test_session_affinity_repins_when_home_scaled_away(self):
        router = make_router("session-affinity")
        full = [snapshot_for(0, 5), snapshot_for(1, 0), snapshot_for(2, 1),
                snapshot_for(3, 2)]
        assert router.route(request(0, session=9), full) == 1  # home id 1
        # id 1 was scaled away; ids are non-contiguous, so the old
        # `home >= len(replicas)` guard would have silently followed
        # position 1 (now id 2) — membership re-pins instead
        shrunk = [snapshot_for(0, 5), snapshot_for(2, 3), snapshot_for(3, 0)]
        assert router.route(request(1, session=9), shrunk) == 2  # id 3
        # the re-pin is sticky by id even when load shifts
        shifted = [snapshot_for(0, 0), snapshot_for(2, 0), snapshot_for(3, 9)]
        assert router.route(request(2, session=9), shifted) == 2


# --------------------------------------------------------------------- #
# Autoscaling                                                            #
# --------------------------------------------------------------------- #

class SchedulePolicy:
    """Test autoscaler: desired size follows an explicit time schedule."""

    def __init__(self, schedule):
        self.schedule = schedule  # [(from_clock_s, desired), ...]

    def desired_replicas(self, observation):
        desired = observation.launched
        for start, target in self.schedule:
            if observation.clock_s >= start:
                desired = target
        return desired


def observation(outstanding_each, clock=10.0, provisioning=0, ttfts=()):
    return FleetObservation(
        clock_s=clock,
        replicas=tuple(snapshot_for(i, o)
                       for i, o in enumerate(outstanding_each)),
        provisioning=provisioning, interval_ttft_s=tuple(ttfts))


class TestAutoscalerPolicies:
    def test_builtins_registered(self):
        assert {"queue-depth", "slo-attainment"} <= set(list_autoscalers())

    def test_unknown_policy_fails_loudly(self):
        with pytest.raises(KeyError, match="autoscaler policy"):
            make_autoscaler("no-such-policy")

    def test_queue_depth_scales_to_the_backlog_in_one_step(self):
        policy = make_autoscaler("queue-depth")  # target 4 per replica
        assert policy.desired_replicas(observation([10, 10])) == 5

    def test_queue_depth_holds_inside_hysteresis_band(self):
        policy = make_autoscaler("queue-depth")
        # 3 per replica: under target (4) but over the shrink bar (2)
        assert policy.desired_replicas(observation([3, 3, 3])) == 3

    def test_queue_depth_shrinks_when_comfortably_idle(self):
        policy = make_autoscaler("queue-depth")
        assert policy.desired_replicas(observation([1, 0, 0])) == 1
        assert policy.desired_replicas(observation([0, 0, 0])) == 0  # clamped by engine

    def test_slo_attainment_grows_on_missed_ttft(self):
        policy = make_autoscaler("slo-attainment")  # slo 0.5s, target 95%
        obs = observation([2, 2], ttfts=(0.1, 0.2, 0.9, 1.5))  # 50% attained
        assert policy.desired_replicas(obs) == 4  # +step_up (2)

    def test_slo_attainment_holds_when_attaining(self):
        policy = make_autoscaler("slo-attainment")
        obs = observation([2, 2], ttfts=(0.1, 0.2, 0.3))
        assert policy.desired_replicas(obs) == 2

    def test_slo_attainment_shrinks_when_attaining_and_idle(self):
        policy = make_autoscaler("slo-attainment")
        obs = observation([1, 0, 0], ttfts=(0.1, 0.2))
        assert policy.desired_replicas(obs) == 2

    def test_slo_attainment_treats_blind_backlog_as_risk(self):
        policy = make_autoscaler("slo-attainment")
        obs = observation([5, 4], ttfts=())  # burst onset
        assert policy.desired_replicas(obs) == 4

    def test_slo_attainment_shrinks_an_idle_fleet(self):
        """A post-burst lull has no completions at all; the fleet must
        still converge to the minimum rather than idling at its peak."""
        policy = make_autoscaler("slo-attainment")
        obs = observation([0, 0, 0, 0], ttfts=())
        assert policy.desired_replicas(obs) == 3


class TestAutoscaleSpecValidation:
    def test_defaults_valid(self):
        AutoscaleSpec()

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscaleSpec(min_replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            AutoscaleSpec(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError, match="decision_interval_s"):
            AutoscaleSpec(decision_interval_s=0.0)
        for name in ("decision_interval_s", "provision_latency_s",
                     "warm_provision_s"):
            with pytest.raises(ValueError, match=name):
                AutoscaleSpec(**{name: float("nan")})
        with pytest.raises(ValueError, match="warm_provision_s"):
            AutoscaleSpec(provision_latency_s=1.0, warm_provision_s=2.0,
                          warm_pool_size=1)

    def test_float_replica_counts_rejected_at_spec_load(self):
        """JSON yields 8.0 where 8 was meant; that must fail loudly at
        the spec, not as a range() TypeError mid-simulation."""
        with pytest.raises(ValueError, match="max_replicas.*integer"):
            AutoscaleSpec.from_dict({"policy": "queue-depth",
                                     "min_replicas": 2,
                                     "max_replicas": 8.0})
        with pytest.raises(ValueError, match="warm_pool_size.*integer"):
            AutoscaleSpec(warm_pool_size=1.5)

    def test_disabled_warm_pool_does_not_constrain_cold_latency(self):
        """Sub-second cold starts must not require tuning the (unused)
        warm latency when the pool is disabled."""
        spec = AutoscaleSpec(provision_latency_s=0.5)
        assert spec.warm_pool_size == 0

    def test_engine_rejects_initial_size_outside_range(self, ador_device,
                                                       llama3):
        with pytest.raises(ValueError, match="autoscale range"):
            uniform_fleet(ador_device, llama3, SchedulerLimits(), 9,
                          autoscale=AutoscaleSpec(max_replicas=4))

    def test_engine_rejects_unknown_policy_at_construction(
            self, ador_device, llama3):
        with pytest.raises(KeyError, match="autoscaler policy"):
            uniform_fleet(ador_device, llama3, SchedulerLimits(), 1,
                          autoscale=AutoscaleSpec(policy="nope"))


class TestAutoscaledCluster:
    SPEC = AutoscaleSpec(policy="queue-depth", min_replicas=1,
                         max_replicas=6, decision_interval_s=1.0,
                         provision_latency_s=3.0, warm_pool_size=2,
                         warm_provision_s=0.5)

    def _engine(self, device, model, **kwargs):
        defaults = dict(router="least-outstanding", autoscale=self.SPEC)
        defaults.update(kwargs)
        return uniform_fleet(device, model, SchedulerLimits(max_batch=32),
                             1, **defaults)

    def test_fleet_grows_under_load_then_drains(self, ador_device, llama3):
        result = self._engine(ador_device, llama3).run(
            poisson_requests(40.0, 300), max_sim_seconds=600.0)
        trace = result.autoscale
        assert trace is not None
        assert trace.peak_replicas > 1
        assert trace.scale_ups >= 1
        assert trace.scale_downs >= 1
        assert trace.launched > 1
        # the timeline ends with the fleet back at the minimum
        assert trace.timeline[-1].ready == self.SPEC.min_replicas
        assert len(result.merged.finished) == 300

    def test_static_results_carry_no_trace(self, ador_device, llama3):
        result = uniform_fleet(ador_device, llama3, SchedulerLimits(), 2).run(
            poisson_requests(10.0, 40), max_sim_seconds=600.0)
        assert result.autoscale is None

    def test_deterministic_scaling_history(self, ador_device, llama3):
        def run_once():
            result = self._engine(ador_device, llama3).run(
                poisson_requests(40.0, 300), max_sim_seconds=600.0)
            return result.autoscale, result.qos()

        first_trace, first_qos = run_once()
        second_trace, second_qos = run_once()
        assert first_trace == second_trace
        assert first_qos == second_qos

    def test_drain_loses_no_request(self, ador_device, llama3):
        """Scale-downs while work is in flight: every routed request is
        served exactly once, and drained replicas finish their work."""
        requests = poisson_requests(25.0, 250)  # ~10 s of traffic
        engine = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 4,
            router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=4,
                                    decision_interval_s=1.0,
                                    provision_latency_s=1.0),
            # forced shrink mid-traffic: replicas drain while loaded
            autoscaler=SchedulePolicy([(3.0, 1)]))
        result = engine.run(requests, max_sim_seconds=600.0)
        trace = result.autoscale
        last_arrival = max(r.arrival_time for r in requests)
        in_flight_downs = [e for e in trace.events
                           if e.kind == "down" and e.clock_s <= last_arrival]
        assert in_flight_downs, "expected scale-downs during traffic"
        seen = result.merged.finished + result.merged.unfinished
        assert len(seen) == len(requests)
        assert len(set(seen)) == len(requests)
        assert not result.merged.unfinished
        assert trace.retired >= len(in_flight_downs)

    def test_scale_down_with_session_affinity_repins(self, ador_device,
                                                     llama3):
        """Sessions homed on a drained replica re-pin and finish."""
        requests = list(iter_session_requests(
            SessionConfig(), sessions=60, session_rate_per_s=6.0, seed=11))
        result = self._engine(ador_device, llama3,
                              router="session-affinity").run(
            requests, max_sim_seconds=600.0)
        assert result.autoscale.scale_downs >= 1
        assert len(result.merged.finished) == len(requests)

    def test_warm_pool_shortens_provisioning(self, ador_device, llama3):
        """With warm stock the first decision's launches come up at the
        warm latency; the cold fleet is still provisioning then."""
        spec = AutoscaleSpec(policy="queue-depth", min_replicas=1,
                             max_replicas=4, decision_interval_s=1.0,
                             provision_latency_s=4.0, warm_pool_size=2,
                             warm_provision_s=0.5)
        cold_spec = AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                  max_replicas=4, decision_interval_s=1.0,
                                  provision_latency_s=4.0)

        def timeline(autoscale_spec):
            engine = uniform_fleet(ador_device, llama3,
                                   SchedulerLimits(max_batch=32), 1,
                                   autoscale=autoscale_spec,
                                   autoscaler=SchedulePolicy([(1.0, 3)]))
            result = engine.run(poisson_requests(6.0, 60),
                                max_sim_seconds=600.0)
            return result.autoscale

        warm = timeline(spec)
        cold = timeline(cold_spec)
        assert warm.warm_launches == 2 and warm.cold_launches == 0
        assert cold.warm_launches == 0 and cold.cold_launches == 2
        up = next(e for e in warm.events if e.kind == "up")
        assert up.warm_used == 2

        def ready_at(trace, clock):
            return next(s.ready for s in trace.timeline
                        if s.clock_s == pytest.approx(clock))

        # launch happens at t=1: warm replicas (0.5 s) are ready by the
        # t=2 decision; cold ones (4 s) are still provisioning until t=5
        assert ready_at(warm, 2.0) == 3
        assert ready_at(cold, 2.0) == 1
        assert ready_at(cold, 5.0) == 3

    def test_scale_down_cancels_provisioning_before_draining(
            self, ador_device, llama3):
        """An up immediately followed by a down cancels the launches
        that never became ready, and the cancelled replicas carry no
        per-replica result."""
        engine = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 2,
            router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=6,
                                    decision_interval_s=1.0,
                                    provision_latency_s=30.0),
            autoscaler=SchedulePolicy([(1.0, 6), (2.0, 1)]))
        requests = poisson_requests(6.0, 60)
        result = engine.run(requests, max_sim_seconds=600.0)
        trace = result.autoscale
        assert trace.launched == 6          # 2 initial + 4 provisioned
        # the 4 cancelled launches never served traffic -> no results
        assert len(result.replica_results) <= 2
        assert len(result.merged.finished) == 60

    def test_min_and_max_clamp_the_policy(self, ador_device, llama3):
        engine = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 2,
            router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=2,
                                    max_replicas=3,
                                    decision_interval_s=1.0,
                                    provision_latency_s=0.5,
                                    warm_provision_s=0.5),
            autoscaler=SchedulePolicy([(1.0, 50), (4.0, 0)]))
        result = engine.run(poisson_requests(20.0, 150),
                            max_sim_seconds=600.0)
        trace = result.autoscale
        sizes = [s.ready + s.provisioning for s in trace.timeline]
        assert max(sizes) <= 3
        assert min(sizes) >= 2

    def test_replica_seconds_below_fixed_fleet_cost(self, ador_device,
                                                    llama3):
        """The autoscaler's reason to exist: a fleet that tracks load
        costs less than holding the peak all run long."""
        result = self._engine(ador_device, llama3).run(
            poisson_requests(40.0, 300), max_sim_seconds=600.0)
        trace = result.autoscale
        fixed_cost = trace.peak_replicas * result.merged.total_time_s
        assert trace.replica_seconds < fixed_cost

    def test_peak_replicas_counts_the_initial_fleet(self, ador_device,
                                                    llama3):
        """A fleet that starts large and immediately shrinks still ran
        its initial size before the first decision — the timeline only
        samples post-decision states, so the peak must floor there."""
        engine = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 6,
            router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=6,
                                    decision_interval_s=1.0,
                                    provision_latency_s=1.0),
            autoscaler=SchedulePolicy([(1.0, 1)]))
        result = engine.run(poisson_requests(2.0, 30),
                            max_sim_seconds=600.0)
        assert result.autoscale.peak_replicas == 6

    def test_cancelled_cold_launch_mints_no_warm_slot(self, ador_device,
                                                      llama3):
        """Cancelling a cold launch mid-provision returns nothing to the
        warm pool — no warm machine ever existed — so the next scale-up
        pays the cold latency again (a cancelled *warm* launch would
        return the slot it took)."""
        engine = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 2,
            router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=6,
                                    decision_interval_s=1.0,
                                    provision_latency_s=30.0,
                                    warm_pool_size=2,
                                    warm_provision_s=5.0),
            # t=1: +3 (2 warm + 1 cold, stock 0); t=2: cancel the two
            # newest launches mid-provision (the cold id 4 and warm
            # id 3 — only the warm one returns a slot, stock 1);
            # t=3: +2 again (1 warm + 1 cold)
            autoscaler=SchedulePolicy([(1.0, 5), (2.0, 3), (3.0, 5)]))
        result = engine.run(poisson_requests(8.0, 80),
                            max_sim_seconds=600.0)
        trace = result.autoscale
        # a cancelled-cold refill would have left stock 2 at t=3 and
        # made both relaunches warm (4 warm / 1 cold)
        assert trace.warm_launches == 3
        assert trace.cold_launches == 2

    def test_still_provisioning_at_run_end_carries_no_result(
            self, ador_device, llama3):
        """Replicas whose cold provision outlives the traffic never
        served anything: no ghost all-zero per-replica results skewing
        the load stats (they still cost replica-seconds)."""
        engine = uniform_fleet(
            ador_device, llama3, SchedulerLimits(max_batch=32), 1,
            router="least-outstanding",
            autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                    max_replicas=3,
                                    decision_interval_s=1.0,
                                    provision_latency_s=100.0),
            autoscaler=SchedulePolicy([(1.0, 3)]))
        result = engine.run(poisson_requests(4.0, 30),
                            max_sim_seconds=600.0)
        trace = result.autoscale
        assert trace.launched == 3
        assert len(result.replica_results) == 1
        assert result.load.requests_per_replica == (30,)
        assert result.load.request_imbalance == 1.0
        # the ghosts' provisioning time is still paid for
        assert trace.replica_seconds > result.merged.total_time_s

    @pytest.mark.parametrize("horizon", [5.0, 60.0])
    def test_truncated_run_reports_late_ready_replicas(self, horizon):
        """A replica that only became ready after a truncated run's wall
        clock still holds the requests routed to it after the horizon:
        the report accounts for every one of them."""
        deployment = DeploymentSpec(
            chip="ador", max_batch=1, replicas=1,
            autoscale=AutoscaleSpec(policy="slo-attainment",
                                    max_replicas=4))
        workload = WorkloadSpec(arrival="sessions", session=SessionConfig(),
                                num_requests=5, seed=0)
        requests = workload.build_requests()
        assert len(requests) == 27
        result = build_cluster_engine(deployment).run(
            requests, max_sim_seconds=horizon)
        seen = result.merged.finished + result.merged.unfinished
        assert len(seen) == 27
        assert len(set(seen)) == 27

    def test_conservation_is_checked_at_the_end_of_every_run(
            self, ador_device, llama3, monkeypatch):
        """A report that loses a request fails the run loudly, naming
        both counts, instead of quietly under-counting the QoS."""
        from repro.cluster.engine import ReplicaSim

        result = ReplicaSim.result

        def leaky(self):
            outcome = result(self)
            outcome.finished = outcome.finished[1:]
            return outcome

        monkeypatch.setattr(ReplicaSim, "result", leaky)
        engine = uniform_fleet(ador_device, llama3, SchedulerLimits(), 1)
        with pytest.raises(RuntimeError, match=r"\b9\b.*\b10\b"):
            engine.run(poisson_requests(5.0, 10), max_sim_seconds=600.0)

    def test_mixed_fleet_parks_arrivals_while_replacement_provisions(
            self, llama3):
        """A scale-down drains the only ready replica of the expensive
        group while the cheap group's replacement still provisions: the
        arrivals in between wait for it instead of failing the run."""
        limits = SchedulerLimits(max_batch=8)
        groups = [
            EngineGroup("a100", device_model_for(get_chip("a100")), llama3,
                        limits, count=1, cost_per_replica_s=2.5),
            EngineGroup("ador", device_model_for(get_chip("ador")), llama3,
                        limits, count=0, cost_per_replica_s=1.0),
        ]
        engine = ClusterEngine(
            groups,
            autoscale=AutoscaleSpec(min_replicas=1, max_replicas=3,
                                    decision_interval_s=1.0,
                                    provision_latency_s=10.0),
            autoscaler=SchedulePolicy([(1.0, 2), (2.0, 1)]))
        requests = [request(i, arrival=0.5 * i) for i in range(10)]
        result = engine.run(requests, max_sim_seconds=60.0)
        assert len(result.merged.finished) == 10
        # the A100 drained at t=2; the ADOR replica served the rest
        assert result.groups[1].finished_requests > 0

