"""Tests for deterministic fault injection (repro.cluster.faults).

Covers the FaultSpec/FaultEvent serialization contract, the seeded
per-replica schedule, crash/slowdown/stall semantics on fixed and
autoscaled fleets, retry/timeout accounting (no request is ever lost
silently), and the drain-during-crash interaction with scale-downs.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    AutoscaleSpec,
    DeploymentSpec,
    FaultEvent,
    FaultSpec,
    WorkloadSpec,
    find_capacity,
    simulate,
)
from repro.api.specs import CapacitySpec
from repro.cluster.engine import ClusterEngine, EngineGroup
from repro.cluster.faults import FaultInjector, ReplicaFaultPlan
from repro.core.scheduling import device_model_for
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.serving.dataset import ChatTraceConfig, ULTRACHAT_LIKE
from repro.serving.engine import ServingEngine
from repro.serving.generator import (
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.prefix_cache import PrefixCacheSpec
from repro.serving.qos import goodput_per_s
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import SchedulerLimits

MODEL = get_model("llama3-8b")
LIMITS = SchedulerLimits(max_batch=16, prefill_chunk_tokens=512)
NAN = float("nan")

BURSTY_TRACE = ChatTraceConfig(
    name="bursty-faults",
    input_median=400.0,
    input_sigma=0.7,
    output_median=90.0,
    output_sigma=1.0,
)


@pytest.fixture(scope="module")
def ador_device():
    return device_model_for(get_chip("ador"))


def steady_requests(count=40, rate=15.0, seed=11):
    return list(iter_poisson_requests(ULTRACHAT_LIKE, rate, seed, count))


def bursty_requests(count=40, seed=13):
    return list(iter_onoff_requests(
        BURSTY_TRACE, on_rate_per_s=30.0, off_rate_per_s=2.0,
        phase_seconds=2.0, seed=seed, count=count))


def request_fingerprints(requests):
    return sorted(
        (r.request_id, r.generated_tokens, r.prefilled_tokens,
         r.first_token_time, r.last_token_time, r.finish_time,
         r.state.value)
        for r in requests)


def result_fingerprint(result):
    return (
        result.total_time_s, result.iterations, result.decode_steps,
        result.busy_time_s, result.decode_time_s, result.prefill_time_s,
        request_fingerprints(result.finished),
        request_fingerprints(result.unfinished),
    )


def trace_fingerprint(trace):
    return (trace.records, trace.retries, trace.downtime_by_replica,
            tuple(sorted(r.request_id for r in trace.failed)))


def run_cluster(requests, device, replicas=2, faults=None, autoscale=None,
                router="round-robin", horizon=600.0):
    engine = ClusterEngine(
        [EngineGroup("ador", ServingEngine(device, MODEL, LIMITS),
                     count=replicas)],
        router=router, autoscale=autoscale, faults=faults)
    return engine.run(copy.deepcopy(requests), max_sim_seconds=horizon)


def assert_conserved(result, admitted):
    """Every admitted request ends finished, unfinished, or failed."""
    failed = result.faults.failed_count if result.faults else 0
    assert len(result.merged.finished) + len(result.merged.unfinished) \
        + failed == admitted
    if result.faults:
        for request in result.faults.failed:
            assert request.state is RequestState.FAILED


# --------------------------------------------------------------------- #
# Spec contract                                                          #
# --------------------------------------------------------------------- #

class TestFaultSpecContract:
    def test_round_trip_through_json(self):
        spec = FaultSpec(seed=5, crash_mtbf_s=60.0, restart_delay_s=4.0,
                         slowdown_mtbf_s=30.0, slowdown_factor=3.0,
                         stall_mtbf_s=45.0, max_retries=1,
                         request_timeout_s=20.0, slo_ttft_s=0.5)
        assert FaultSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_round_trip_with_explicit_events(self):
        spec = FaultSpec(events=(
            FaultEvent(kind="crash", replica_id=0, time_s=1.0),
            FaultEvent(kind="slowdown", replica_id=1, time_s=2.0,
                       duration_s=3.0, factor=4.0),
        ))
        restored = FaultSpec.from_dict(json.loads(json.dumps(
            spec.to_dict())))
        assert restored == spec
        assert restored.events[1].factor == 4.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"crash_rate": 0.1})
        with pytest.raises(ValueError, match="unknown"):
            FaultEvent.from_dict({"kind": "crash", "replica_id": 0,
                                  "time_s": 1.0, "severity": 2})

    @pytest.mark.parametrize("bad", [
        {"seed": -1}, {"seed": True},
        {"crash_mtbf_s": 0.0}, {"slowdown_mtbf_s": -2.0},
        {"slowdown_factor": 0.5}, {"slowdown_duration_s": 0.0},
        {"stall_duration_s": -1.0}, {"restart_delay_s": -0.1},
        {"max_retries": -1}, {"max_retries": 1.5},
        {"request_timeout_s": 0.0}, {"slo_ttft_s": 0.0},
        {"events": (("crash", 0, 1.0),)},
        # NaN fails every float range check
        {"crash_mtbf_s": NAN}, {"slowdown_mtbf_s": NAN},
        {"stall_mtbf_s": NAN}, {"request_timeout_s": NAN},
        {"restart_delay_s": NAN}, {"slowdown_factor": NAN},
        {"slowdown_duration_s": NAN}, {"stall_duration_s": NAN},
        {"slo_ttft_s": NAN},
    ])
    def test_invalid_spec_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            FaultSpec(**bad)

    @pytest.mark.parametrize("bad", [
        {"kind": "meteor", "replica_id": 0, "time_s": 1.0},
        {"kind": "crash", "replica_id": -1, "time_s": 1.0},
        {"kind": "crash", "replica_id": 0, "time_s": -1.0},
        {"kind": "slowdown", "replica_id": 0, "time_s": 1.0,
         "duration_s": 0.0},
        {"kind": "stall", "replica_id": 0, "time_s": 1.0,
         "duration_s": 2.0, "factor": 0.0},
        {"kind": "crash", "replica_id": 0, "time_s": NAN},
        {"kind": "crash", "replica_id": 0, "time_s": 1.0,
         "duration_s": NAN},
        {"kind": "slowdown", "replica_id": 0, "time_s": 1.0,
         "duration_s": NAN},
        {"kind": "slowdown", "replica_id": 0, "time_s": 1.0,
         "duration_s": 2.0, "factor": NAN},
    ])
    def test_invalid_event_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultEvent(**bad)

    def test_deployment_spec_nests_faults(self):
        deployment = DeploymentSpec(
            replicas=2, faults=FaultSpec(seed=9, crash_mtbf_s=120.0))
        restored = DeploymentSpec.from_dict(
            json.loads(json.dumps(deployment.to_dict())))
        assert restored == deployment
        assert restored.faults.crash_mtbf_s == pytest.approx(120.0)

    def test_old_deployment_dicts_default_to_no_faults(self):
        data = DeploymentSpec(replicas=2).to_dict()
        del data["faults"]
        assert DeploymentSpec.from_dict(data).faults is None

    def test_faults_require_continuous_batching(self):
        with pytest.raises(ValueError, match="continuous"):
            DeploymentSpec(batching="static", faults=FaultSpec())


# --------------------------------------------------------------------- #
# Seeded schedule                                                        #
# --------------------------------------------------------------------- #

class TestFaultPlan:
    SPEC = FaultSpec(seed=7, crash_mtbf_s=40.0, slowdown_mtbf_s=25.0,
                     stall_mtbf_s=35.0)

    def test_same_seed_same_schedule(self):
        first = ReplicaFaultPlan(self.SPEC, 0, 0.0, 600.0)
        second = ReplicaFaultPlan(self.SPEC, 0, 0.0, 600.0)
        assert first.windows == second.windows
        assert first.crash_at == second.crash_at

    def test_replicas_get_independent_streams(self):
        zero = ReplicaFaultPlan(self.SPEC, 0, 0.0, 600.0)
        one = ReplicaFaultPlan(self.SPEC, 1, 0.0, 600.0)
        assert zero.windows != one.windows

    def test_schedule_independent_of_start_for_windows(self):
        # windows are drawn from replica identity, not launch order:
        # the same replica id launched later still draws the same
        # renewal process from its own substream
        early = ReplicaFaultPlan(self.SPEC, 3, 0.0, 600.0)
        late = ReplicaFaultPlan(self.SPEC, 3, 0.0, 600.0)
        assert early.windows == late.windows

    def test_crash_redraw_after_restart_is_deterministic(self):
        first = ReplicaFaultPlan(self.SPEC, 0, 0.0, 600.0)
        second = ReplicaFaultPlan(self.SPEC, 0, 0.0, 600.0)
        crash = first.crash_at
        first.note_crash(crash + 5.0)
        second.note_crash(crash + 5.0)
        assert first.crash_at == second.crash_at
        assert first.crash_at > crash

    def test_stall_wins_over_overlapping_slowdown(self):
        spec = FaultSpec(events=(
            FaultEvent(kind="slowdown", replica_id=0, time_s=1.0,
                       duration_s=10.0, factor=3.0),
            FaultEvent(kind="stall", replica_id=0, time_s=4.0,
                       duration_s=2.0),
        ))
        plan = ReplicaFaultPlan(spec, 0, 0.0, 600.0)
        assert plan.window_at(2.0).kind == "slowdown"
        assert plan.window_at(5.0).kind == "stall"
        assert plan.window_at(20.0) is None

    def test_no_rates_means_no_faults(self):
        plan = ReplicaFaultPlan(FaultSpec(seed=3), 0, 0.0, 600.0)
        assert plan.windows == ()
        assert plan.crash_at is None


# --------------------------------------------------------------------- #
# Crash semantics on a fixed fleet                                       #
# --------------------------------------------------------------------- #

CRASH_SPEC = FaultSpec(
    seed=3, restart_delay_s=5.0, max_retries=2,
    events=(FaultEvent(kind="crash", replica_id=0, time_s=1.0),))


class TestExplicitCrash:
    def test_crash_requeues_and_everything_finishes(self, ador_device):
        requests = steady_requests(count=60, rate=20.0)
        result = run_cluster(requests, ador_device, faults=CRASH_SPEC)
        trace = result.faults
        assert trace.crashes == 1
        assert trace.lost_requests > 0
        assert trace.retries == trace.lost_requests
        assert trace.failed_count == 0
        assert dict(trace.downtime_by_replica)[0] == pytest.approx(5.0)
        assert_conserved(result, 60)

    def test_crash_is_deterministic(self, ador_device):
        requests = steady_requests(count=60, rate=20.0)
        first = run_cluster(requests, ador_device, faults=CRASH_SPEC)
        second = run_cluster(requests, ador_device, faults=CRASH_SPEC)
        assert trace_fingerprint(first.faults) \
            == trace_fingerprint(second.faults)
        assert result_fingerprint(first.merged) \
            == result_fingerprint(second.merged)
        assert first.qos() == second.qos()

    def test_retry_budget_zero_fails_lost_requests(self, ador_device):
        spec = dataclasses.replace(CRASH_SPEC, max_retries=0)
        requests = steady_requests(count=60, rate=20.0)
        result = run_cluster(requests, ador_device, faults=spec)
        trace = result.faults
        assert trace.failed_count == trace.lost_requests > 0
        assert trace.retries == 0
        assert result.qos().failed_requests == trace.failed_count
        assert_conserved(result, 60)

    @pytest.mark.parametrize("crash, hits", ((False, 1), (True, 0)))
    def test_crash_restarts_the_prefix_cache_cold(self, ador_device, crash,
                                                  hits):
        """A session's second turn hits the prefix its first turn left
        behind, unless the replica crashed in between: the restart
        builds a fresh cache, and the stats merge both incarnations."""
        endpoint = ServingEngine(ador_device, MODEL,
                                 SchedulerLimits(kv_budget_bytes=8e9),
                                 prefix_cache=PrefixCacheSpec())
        events = (FaultEvent("crash", 0, 5.0),) if crash else ()
        engine = ClusterEngine(
            [EngineGroup("ador", endpoint)],
            faults=FaultSpec(restart_delay_s=1.0, events=events))
        turns = [Request(0, 0.0, 200, 50, session_id=1),
                 Request(1, 10.0, 300, 50, session_id=1, turn_index=1,
                         history_tokens=250)]
        result = engine.run(turns, max_sim_seconds=600.0)
        assert result.faults.crashes == int(crash)
        assert len(result.merged.finished) == 2
        stats = result.merged.prefix_cache
        assert (stats.lookups, stats.stashed) == (2, 2)
        assert stats.hits == hits
        assert stats.saved_prefill_tokens == 240 * hits

    def test_timeout_fails_late_retries(self, ador_device):
        spec = dataclasses.replace(CRASH_SPEC, request_timeout_s=1.0,
                                   restart_delay_s=30.0)
        requests = steady_requests(count=60, rate=20.0)
        result = run_cluster(requests, ador_device, faults=spec)
        assert result.faults.failed_count > 0
        assert_conserved(result, 60)

    def test_retry_keeps_user_perceived_arrival(self, ador_device):
        requests = steady_requests(count=60, rate=20.0)
        arrivals = {r.request_id: r.arrival_time for r in requests}
        result = run_cluster(requests, ador_device, faults=CRASH_SPEC)
        for request in result.merged.finished:
            assert request.arrival_time \
                == pytest.approx(arrivals[request.request_id])

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a retried request is enqueued at the idle "
        "replica's stale clock, before the instant it was routed, so "
        "its first token predates the crash; fixing it changes the "
        "elastic-faults goldens"))
    def test_retry_emits_no_token_before_the_crash(self, ador_device):
        engine = ClusterEngine(
            [EngineGroup("ador", ServingEngine(ador_device, MODEL,
                                               SchedulerLimits()),
                         count=2)],
            router="round-robin",
            faults=FaultSpec(events=(
                FaultEvent("crash", replica_id=1, time_s=3.0),)))
        result = engine.run([Request(0, 0.0, 64, 8),
                             Request(1, 0.1, 64, 4000)],
                            max_sim_seconds=600.0)
        (crash,) = result.faults.records
        assert crash.lost_requests == 1 and result.faults.retries == 1
        retried = next(r for r in result.merged.finished
                       if r.request_id == 1)
        assert retried.first_token_time >= crash.time_s

    def test_whole_fleet_down_defers_routing(self, ador_device):
        spec = FaultSpec(
            seed=1, restart_delay_s=3.0, max_retries=3,
            events=(FaultEvent(kind="crash", replica_id=0, time_s=0.5),
                    FaultEvent(kind="crash", replica_id=1, time_s=0.5)))
        requests = steady_requests(count=30, rate=20.0)
        result = run_cluster(requests, ador_device, faults=spec)
        assert result.faults.crashes == 2
        assert_conserved(result, 30)


# --------------------------------------------------------------------- #
# Slowdown / stall semantics                                             #
# --------------------------------------------------------------------- #

class TestSlowdownAndStall:
    def test_slowdown_degrades_latency_without_losses(self, ador_device):
        slow = FaultSpec(events=(
            FaultEvent(kind="slowdown", replica_id=0, time_s=0.0,
                       duration_s=120.0, factor=4.0),
            FaultEvent(kind="slowdown", replica_id=1, time_s=0.0,
                       duration_s=120.0, factor=4.0)))
        requests = steady_requests(count=40, rate=15.0)
        degraded = run_cluster(requests, ador_device, faults=slow)
        clean = run_cluster(requests, ador_device)
        assert degraded.faults.slowdowns == 2
        assert degraded.faults.retries == 0
        assert degraded.qos().ttft_mean_s > clean.qos().ttft_mean_s
        assert_conserved(degraded, 40)

    def test_stall_pauses_then_recovers(self, ador_device):
        stall = FaultSpec(events=(
            FaultEvent(kind="stall", replica_id=0, time_s=1.0,
                       duration_s=4.0),))
        requests = steady_requests(count=40, rate=15.0)
        stalled = run_cluster(requests, ador_device, faults=stall)
        clean = run_cluster(requests, ador_device)
        assert stalled.faults.stalls == 1
        assert stalled.faults.lost_requests == 0
        assert dict(stalled.faults.downtime_by_replica)[0] \
            == pytest.approx(4.0)
        assert stalled.qos().e2e_mean_s > clean.qos().e2e_mean_s
        assert_conserved(stalled, 40)

    def test_goodput_never_exceeds_throughput(self, ador_device):
        requests = steady_requests(count=40, rate=15.0)
        result = run_cluster(requests, ador_device, faults=CRASH_SPEC)
        wall = result.merged.total_time_s
        goodput = goodput_per_s(result.merged.finished, wall, 1.0)
        assert goodput <= len(result.merged.finished) / wall + 1e-12


# --------------------------------------------------------------------- #
# Autoscaled fleets: crashes are capacity loss                           #
# --------------------------------------------------------------------- #

AUTOSCALE = AutoscaleSpec(policy="queue-depth", min_replicas=1,
                          max_replicas=5, decision_interval_s=1.0,
                          provision_latency_s=4.0, warm_pool_size=2,
                          warm_provision_s=1.0)


class TestAutoscaledFaults:
    def test_crashed_replica_is_replaced(self, ador_device):
        spec = FaultSpec(
            seed=2, max_retries=3,
            events=(FaultEvent(kind="crash", replica_id=0, time_s=2.0),))
        requests = steady_requests(count=60, rate=20.0)
        result = run_cluster(requests, ador_device, replicas=2,
                             autoscale=AUTOSCALE, faults=spec,
                             router="least-outstanding")
        assert result.faults.crashes == 1
        # the fleet replaced lost capacity: more replicas were ever
        # launched than the initial fleet held
        assert result.autoscale.launched > 2
        assert_conserved(result, 60)

    def test_autoscaled_fault_run_is_deterministic(self, ador_device):
        spec = FaultSpec(seed=11, crash_mtbf_s=25.0,
                         slowdown_mtbf_s=30.0, stall_mtbf_s=40.0,
                         max_retries=3)
        requests = bursty_requests(count=50)
        first = run_cluster(requests, ador_device, replicas=2,
                            autoscale=AUTOSCALE, faults=spec,
                            router="least-outstanding")
        second = run_cluster(requests, ador_device, replicas=2,
                             autoscale=AUTOSCALE, faults=spec,
                             router="least-outstanding")
        assert trace_fingerprint(first.faults) \
            == trace_fingerprint(second.faults)
        assert result_fingerprint(first.merged) \
            == result_fingerprint(second.merged)
        assert first.qos() == second.qos()

    def test_crash_during_drain_loses_nothing(self, ador_device):
        """Satellite: a replica crashing *while draining* from a
        scale-down must still account for every admitted request —
        finished or failed, never silently dropped."""
        # front-loaded burst so the fleet scales down during the tail,
        # crashes timed to land while replicas drain
        spec = FaultSpec(
            seed=5, max_retries=3, restart_delay_s=2.0,
            events=(FaultEvent(kind="crash", replica_id=0, time_s=4.0),
                    FaultEvent(kind="crash", replica_id=1, time_s=4.5),
                    FaultEvent(kind="crash", replica_id=2, time_s=5.0)))
        requests = bursty_requests(count=60, seed=17)
        result = run_cluster(requests, ador_device, replicas=3,
                             autoscale=AUTOSCALE, faults=spec,
                             router="least-outstanding")
        assert result.faults.crashes >= 1
        assert result.autoscale.scale_downs >= 0  # trace is queryable
        assert_conserved(result, 60)


# --------------------------------------------------------------------- #
# Facade and reporting                                                   #
# --------------------------------------------------------------------- #

class TestFacade:
    def test_simulate_dispatches_single_replica_with_faults(self):
        report = simulate(
            DeploymentSpec(faults=CRASH_SPEC),
            WorkloadSpec(rate_per_s=15.0, num_requests=30, seed=7),
            max_sim_seconds=120.0)
        assert report.cluster.faults is not None
        text = report.summary()
        assert "goodput" in text
        assert "crash" in text

    def test_find_capacity_rejects_enabled_faults(self):
        with pytest.raises(ValueError, match="fault"):
            find_capacity(
                DeploymentSpec(faults=FaultSpec()),
                WorkloadSpec(num_requests=20, seed=7),
                CapacitySpec(slo_tbt_s=0.05, iterations=2))

    def test_committed_resilience_experiment_runs(self):
        import pathlib

        from repro.api import Experiment, run_experiment
        path = pathlib.Path(__file__).parent.parent / "experiments" \
            / "resilience_ador_4x.json"
        experiment = Experiment.from_dict(json.loads(path.read_text()))
        assert experiment.deployment.faults is not None
        assert experiment.deployment.faults.crash_mtbf_s \
            == pytest.approx(60.0)
        report = run_experiment(path)
        assert report.cluster.faults is not None
        assert "goodput" in report.summary()
        admitted = experiment.workload.num_requests
        finished = len(report.result.finished)
        unfinished = len(report.result.unfinished)
        failed = report.cluster.faults.failed_count
        assert finished + unfinished + failed == admitted

    def test_fault_free_summary_is_unchanged(self):
        report = simulate(
            DeploymentSpec(replicas=2),
            WorkloadSpec(rate_per_s=15.0, num_requests=30, seed=7),
            max_sim_seconds=120.0)
        text = report.summary()
        assert "goodput" not in text
        assert "faults" not in text


# --------------------------------------------------------------------- #
# Property tests (hypothesis)                                            #
# --------------------------------------------------------------------- #

mtbfs = st.one_of(st.none(), st.floats(min_value=5.0, max_value=500.0,
                                       allow_nan=False))


class TestScheduleProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31),
           replica_id=st.integers(min_value=0, max_value=16),
           crash=mtbfs, slowdown=mtbfs, stall=mtbfs)
    @settings(max_examples=40, deadline=None)
    def test_schedule_is_a_pure_function_of_spec_and_seed(
            self, seed, replica_id, crash, slowdown, stall):
        spec = FaultSpec(seed=seed, crash_mtbf_s=crash,
                         slowdown_mtbf_s=slowdown, stall_mtbf_s=stall)
        first = ReplicaFaultPlan(spec, replica_id, 0.0, 300.0)
        second = ReplicaFaultPlan(spec, replica_id, 0.0, 300.0)
        assert first.windows == second.windows
        assert first.crash_at == second.crash_at
        for window in first.windows:
            assert 0.0 <= window.start_s < window.end_s <= 300.0

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_injector_trace_is_deterministic(self, seed):
        spec = FaultSpec(seed=seed, crash_mtbf_s=30.0,
                         slowdown_mtbf_s=20.0, stall_mtbf_s=25.0)

        def build():
            injector = FaultInjector(spec, 300.0)
            for replica_id in range(3):
                injector.plan_for(replica_id, 0.0)
            return injector.trace(300.0)

        assert trace_fingerprint(build()) == trace_fingerprint(build())
