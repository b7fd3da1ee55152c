"""Sharded cluster simulation and the long-run progress heartbeat.

``simulate_cluster(..., shards=N)`` with ``N > 1`` is a *modeled*
approximation that must be deterministic, conserve every request, and
reject the elastic features it cannot see.  Plus units for the traffic
partition, the replica split, and :class:`ProgressReporter` throttling
with an injected clock.
"""

import io

import pytest

from repro.api import (
    ClusterReport,
    DeploymentSpec,
    Experiment,
    WorkloadSpec,
    run_experiment,
    simulate,
    simulate_cluster,
)
from repro.cluster.autoscaler import AutoscaleSpec
from repro.cluster.faults import FaultSpec
from repro.api.facade import shard_replica_count, shard_requests
from repro.perf.scale import ProgressReporter

DEPLOYMENT = DeploymentSpec(chip="ador", model="llama3-8b", replicas=4,
                            max_batch=8)
WORKLOAD = WorkloadSpec(rate_per_s=20.0, num_requests=48, seed=11)
SESSIONS = WorkloadSpec(arrival="sessions", rate_per_s=4.0,
                        num_requests=12, seed=5)


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
# Traffic partition + replica split                                      #
# --------------------------------------------------------------------- #

def test_shard_requests_partition_is_exact():
    shards = 3
    slices = [list(shard_requests(WORKLOAD, s, shards))
              for s in range(shards)]
    ids = sorted(r.request_id for part in slices for r in part)
    assert ids == [r.request_id for r in WORKLOAD.build_requests()]
    for shard, part in enumerate(slices):
        assert all(r.request_id % shards == shard for r in part)
        arrivals = [r.arrival_time for r in part]
        assert arrivals == sorted(arrivals)


def test_shard_requests_keep_sessions_whole():
    shards = 2
    for shard in range(shards):
        for r in shard_requests(SESSIONS, shard, shards):
            assert r.session_id % shards == shard


def test_shard_requests_rejects_bad_index():
    with pytest.raises(ValueError, match="outside"):
        next(shard_requests(WORKLOAD, 2, 2))


@pytest.mark.parametrize("replicas,shards", [(4, 2), (5, 2), (7, 3), (3, 3)])
def test_shard_replica_count_conserves_replicas(replicas, shards):
    counts = [shard_replica_count(replicas, s, shards)
              for s in range(shards)]
    assert sum(counts) == replicas
    assert max(counts) - min(counts) <= 1
    # remainder goes to the lowest-indexed shards, deterministically
    assert counts == sorted(counts, reverse=True)


# --------------------------------------------------------------------- #
# shards>1 : modeled, deterministic, conservative                        #
# --------------------------------------------------------------------- #

def test_sharded_run_is_deterministic_and_conserves_requests():
    first = simulate_cluster(DEPLOYMENT, WORKLOAD, shards=2).cluster
    second = simulate_cluster(DEPLOYMENT, WORKLOAD, shards=2).cluster
    assert cluster_fingerprint(first) == cluster_fingerprint(second)
    assert len(first.replica_results) == DEPLOYMENT.replicas
    total = len(first.merged.finished) + len(first.merged.unfinished)
    assert total == WORKLOAD.num_requests


def test_sharded_facade_returns_cluster_report():
    report = simulate(DEPLOYMENT, WORKLOAD, shards=2)
    assert isinstance(report, ClusterReport)
    finished = len(report.result.finished)
    assert finished + len(report.result.unfinished) \
        == WORKLOAD.num_requests
    assert report.qos.request_count == finished


def test_run_experiment_forwards_shards():
    experiment = Experiment(deployment=DEPLOYMENT, workload=WORKLOAD)
    report = run_experiment(experiment, shards=2)
    assert isinstance(report, ClusterReport)


# --------------------------------------------------------------------- #
# Rejections: what sharding must refuse                                  #
# --------------------------------------------------------------------- #

def test_sharding_rejects_autoscale():
    deployment = DeploymentSpec(chip="ador", model="llama3-8b", replicas=4,
                                autoscale=AutoscaleSpec())
    with pytest.raises(ValueError, match="autoscal"):
        simulate_cluster(deployment, WORKLOAD, shards=2)


def test_sharding_rejects_enabled_faults():
    deployment = DeploymentSpec(chip="ador", model="llama3-8b", replicas=4,
                                faults=FaultSpec(crash_mtbf_s=50.0))
    with pytest.raises(ValueError, match="fault"):
        simulate_cluster(deployment, WORKLOAD, shards=2)


def test_sharding_rejects_more_shards_than_replicas():
    with pytest.raises(ValueError, match="at least one replica"):
        simulate_cluster(DEPLOYMENT, WORKLOAD, shards=5)


def test_sharding_rejects_heterogeneous_fleet():
    from repro.api import FleetSpec, ReplicaGroupSpec

    deployment = DeploymentSpec(
        chip="ador", model="llama3-8b",
        fleet=FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=2),
            ReplicaGroupSpec(chip="a100", count=2),
        )))
    with pytest.raises(ValueError, match="homogeneous fleet"):
        simulate_cluster(deployment, WORKLOAD, shards=2)


def test_sharding_flattens_one_group_fleet():
    from repro.api import FleetSpec, ReplicaGroupSpec

    explicit = DeploymentSpec(
        chip="ador", model="llama3-8b",
        fleet=FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=DEPLOYMENT.replicas,
                             max_batch=DEPLOYMENT.max_batch),)))
    sharded = simulate_cluster(explicit, WORKLOAD, shards=2).cluster
    reference = simulate_cluster(DEPLOYMENT, WORKLOAD, shards=2).cluster
    assert cluster_fingerprint(sharded) == cluster_fingerprint(reference)


def test_sharding_rejects_non_continuous_batching():
    # a static fleet fails at the spec, before any shard could start
    with pytest.raises(ValueError, match="continuous"):
        simulate_cluster(DeploymentSpec(chip="ador", model="llama3-8b",
                                        replicas=4, batching="static"),
                         WORKLOAD, shards=2)


def test_sharding_rejects_bad_shard_count():
    with pytest.raises(ValueError, match="shards must be >= 1"):
        simulate_cluster(DEPLOYMENT, WORKLOAD, shards=0)


def test_facade_rejects_shards_on_single_endpoint():
    single = DeploymentSpec(chip="ador", model="llama3-8b")
    with pytest.raises(ValueError, match="multi-replica"):
        simulate(single, WORKLOAD, shards=2)


def test_facade_rejects_progress_with_shards():
    with pytest.raises(ValueError, match="per-process"):
        simulate(DEPLOYMENT, WORKLOAD, shards=2,
                 progress=ProgressReporter())


def test_capacity_experiment_rejects_shards():
    from repro.api.specs import CapacitySpec
    experiment = Experiment(deployment=DEPLOYMENT, workload=WORKLOAD,
                            capacity=CapacitySpec())
    with pytest.raises(ValueError, match="capacity"):
        run_experiment(experiment, shards=2)


# --------------------------------------------------------------------- #
# Progress heartbeat                                                     #
# --------------------------------------------------------------------- #

def test_progress_reporter_throttles_on_injected_clock():
    ticks = iter([0.0, 1.0, 4.9, 5.0, 5.1, 12.0])
    out = io.StringIO()
    reporter = ProgressReporter(interval_s=5.0, label="test", stream=out,
                                clock=lambda: next(ticks))
    for sim_time, done in [(1.0, 0), (2.0, 3), (3.0, 5), (4.0, 7),
                           (5.0, 9), (6.0, 11)]:
        reporter(sim_time, done)
    lines = out.getvalue().splitlines()
    # first call always prints; then only the >= 5s gaps (t=5.0, t=12.0)
    assert lines == [
        "[test] sim_time=1.0s requests_done=0",
        "[test] sim_time=4.0s requests_done=7",
        "[test] sim_time=6.0s requests_done=11",
    ]
    assert reporter.emitted == 3


def test_progress_reporter_zero_interval_prints_every_call():
    clock = iter(float(i) for i in range(10))
    out = io.StringIO()
    reporter = ProgressReporter(interval_s=0.0, stream=out,
                                clock=lambda: next(clock))
    for i in range(4):
        reporter(float(i), i)
    assert reporter.emitted == 4


def test_progress_reporter_rejects_negative_interval():
    with pytest.raises(ValueError, match="non-negative"):
        ProgressReporter(interval_s=-1.0)


def test_simulate_with_progress_heartbeat():
    out = io.StringIO()
    reporter = ProgressReporter(interval_s=0.0, label="hb", stream=out)
    simulate(DEPLOYMENT, WORKLOAD, progress=reporter)
    assert reporter.emitted > 0
    assert "[hb] sim_time=" in out.getvalue()


def test_progress_requires_continuous_batching():
    deployment = DeploymentSpec(chip="ador", model="llama3-8b",
                                batching="static")
    with pytest.raises(ValueError, match="continuous"):
        simulate(deployment, WORKLOAD, progress=ProgressReporter())
