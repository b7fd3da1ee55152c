"""Parity suite for the simulator fast path.

The fast path (device-model memoization, the compiled decode kernels,
multi-step decode fast-forward) must be *bit-identical* to the reference
one-iteration-at-a-time loop at ``context_bucket=1``: same
``SimulationResult`` counters, same per-request timestamps, same
``QoSReport`` / ``ClusterResult``.  These tests hold it to that across
every chip kind, steady and bursty traces, and single/multi-replica
deployments, plus unit coverage for the cache keying, bucket
quantization error bounds, and the fast-forward interruption cases.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    DeploymentSpec,
    FaultEvent,
    FaultSpec,
    WorkloadSpec,
    simulate,
)
from repro.api.facade import _device_for
from repro.cluster.engine import (
    ClusterEngine,
    EngineGroup,
    _sorted_by_arrival,
)
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.dataset import ULTRACHAT_LIKE, ChatTraceConfig
from repro.serving import engine as serving_engine
from repro.serving.engine import ServingEngine, run_decode_burst
from repro.serving.generator import (
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.qos import compute_qos
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerLimits,
)

#: one registry chip per ChipKind
CHIPS = ("ador", "a100", "tpuv4", "tsp")

BURSTY_TRACE = ChatTraceConfig(
    name="bursty-parity",
    input_median=400.0,
    input_sigma=0.7,
    output_median=90.0,
    output_sigma=1.0,
)

LIMITS = SchedulerLimits(max_batch=8, prefill_chunk_tokens=256)
MODEL = get_model("llama3-8b")


def steady_requests(count=36, rate=6.0, seed=11):
    return list(iter_poisson_requests(ULTRACHAT_LIKE, rate, seed, count))


def bursty_requests(count=36, seed=13):
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


def run_single(chip_name, requests, fast, horizon=600.0):
    chip = get_chip(chip_name)
    device = _device_for(chip, sim_cache=fast, context_bucket=1)
    engine = ServingEngine(device, MODEL, LIMITS, fast_forward=fast)
    return engine.run(copy.deepcopy(requests), max_sim_seconds=horizon)


def run_cluster(chip_name, requests, fast, replicas=4, horizon=600.0,
                faults=None, sim_cache=None):
    """``sim_cache`` defaults to ``fast``: the fast path on a memoized
    device, the reference loop on the uncompiled reference device."""
    chip = get_chip(chip_name)
    device = _device_for(chip, sim_cache=fast if sim_cache is None
                         else sim_cache, context_bucket=1)
    engine = ClusterEngine(
        [EngineGroup(chip_name, device, MODEL, LIMITS, count=replicas)],
        router="least-outstanding", fast_forward=fast, faults=faults)
    return engine.run(copy.deepcopy(requests), max_sim_seconds=horizon)


#: x2 straggler windows on replicas 0 and 1, inside the traffic
SLOWDOWNS = FaultSpec(events=(
    FaultEvent(kind="slowdown", replica_id=0, time_s=0.3, duration_s=1.5),
    FaultEvent(kind="slowdown", replica_id=1, time_s=0.8, duration_s=1.2)))


class TestParityMatrix:
    """Fast path == reference path, bit for bit."""

    @pytest.mark.parametrize("chip", CHIPS)
    @pytest.mark.parametrize("trace", ("steady", "bursty"))
    def test_single_engine(self, chip, trace):
        requests = steady_requests() if trace == "steady" \
            else bursty_requests()
        fast = run_single(chip, requests, fast=True)
        reference = run_single(chip, requests, fast=False)
        assert result_fingerprint(fast) == result_fingerprint(reference)
        if fast.finished:
            assert compute_qos(fast.finished, fast.total_time_s) \
                == compute_qos(reference.finished, reference.total_time_s)

    @pytest.mark.parametrize("chip", CHIPS)
    @pytest.mark.parametrize("trace", ("steady", "bursty"))
    def test_four_replica_cluster(self, chip, trace):
        requests = steady_requests(rate=20.0) if trace == "steady" \
            else bursty_requests()
        fast = run_cluster(chip, requests, fast=True)
        reference = run_cluster(chip, requests, fast=False)
        assert result_fingerprint(fast.merged) \
            == result_fingerprint(reference.merged)
        for fast_rep, ref_rep in zip(fast.replica_results,
                                     reference.replica_results):
            assert result_fingerprint(fast_rep) \
                == result_fingerprint(ref_rep)
        assert fast.load == reference.load
        assert fast.qos() == reference.qos()

    @pytest.mark.parametrize("replicas", (1, 4))
    @pytest.mark.parametrize("cached", (True, False),
                             ids=("memoized", "uncached"))
    def test_slowdown_windows_fast_forward(self, cached, replicas,
                                           monkeypatch):
        """Slowdown windows run decode bursts with their step-time
        factor and stay bit-identical to the per-iteration loop, on a
        memoized device (its seconds map) and an uncached one (a
        burst-local map)."""
        factors = []

        def recording_burst(*args):
            factors.append(args[-1])  # the stepper passes factor last
            return run_decode_burst(*args)

        monkeypatch.setattr(serving_engine, "run_decode_burst",
                            recording_burst)
        requests = steady_requests(rate=20.0)
        fast = run_cluster("ador", requests, fast=True, replicas=replicas,
                           faults=SLOWDOWNS, sim_cache=cached)
        reference = run_cluster("ador", requests, fast=False,
                                replicas=replicas, faults=SLOWDOWNS)
        assert 2.0 in factors
        assert result_fingerprint(fast.merged) \
            == result_fingerprint(reference.merged)
        for fast_rep, ref_rep in zip(fast.replica_results,
                                     reference.replica_results):
            assert result_fingerprint(fast_rep) \
                == result_fingerprint(ref_rep)
        assert fast.faults == reference.faults
        assert fast.faults.slowdowns == min(replicas, 2)
        assert fast.qos() == reference.qos()

    def test_single_replica_cluster_matches_engine(self):
        requests = steady_requests()
        cluster = run_cluster("ador", requests, fast=True, replicas=1)
        single = run_single("ador", requests, fast=True)
        assert result_fingerprint(cluster.merged) \
            == result_fingerprint(single)

    def test_reference_path_rejects_bucketing(self):
        with pytest.raises(ValueError, match="context_bucket requires"):
            simulate(DeploymentSpec(chip="ador"),
                     WorkloadSpec(num_requests=5),
                     sim_cache=False, context_bucket=32)

    def test_facade_parity(self):
        deployment = DeploymentSpec(chip="ador", replicas=4,
                                    router="least-outstanding", max_batch=8)
        workload = WorkloadSpec(rate_per_s=25.0, num_requests=80, seed=5)
        fast = simulate(deployment, workload)
        reference = simulate(deployment, workload, sim_cache=False)
        assert fast.qos == reference.qos
        assert result_fingerprint(fast.result) \
            == result_fingerprint(reference.result)


class TestCacheKeying:
    def _device(self, bucket=1):
        return CachedDeviceModel(AdorDeviceModel(ador_table3()),
                                 context_bucket=bucket)

    def test_hit_returns_identical_object(self):
        device = self._device()
        first = device.decode_step_time(MODEL, 4, 777)
        second = device.decode_step_time(MODEL, 4, 777)
        assert second is first
        assert device.stats.decode_hits == 1
        assert device.stats.decode_misses == 1

    def test_distinct_keys_miss(self):
        device = self._device()
        device.decode_step_time(MODEL, 4, 777)
        device.decode_step_time(MODEL, 5, 777)      # batch differs
        device.decode_step_time(MODEL, 4, 778)      # context differs
        device.decode_step_time(MODEL, 4, 777, 2)   # devices differ
        assert device.stats.decode_misses == 4
        assert device.stats.decode_hits == 0

    def test_prefill_and_decode_do_not_collide(self):
        device = self._device()
        decode = device.decode_step_time(MODEL, 1, 512)
        prefill = device.prefill_time(MODEL, 1, 512)
        assert decode.seconds != prefill.seconds
        assert device.stats.prefill_misses == 1

    def test_models_keyed_separately(self):
        device = self._device()
        other = get_model("llama3-70b")
        a = device.decode_step_time(MODEL, 4, 512)
        b = device.decode_step_time(other, 4, 512)
        assert a.seconds != b.seconds
        assert device.stats.decode_misses == 2

    def test_exact_bucket_matches_inner_model(self):
        inner = AdorDeviceModel(ador_table3())
        device = CachedDeviceModel(AdorDeviceModel(ador_table3()))
        for batch, ctx in ((1, 1), (8, 333), (32, 2048)):
            assert device.decode_step_time(MODEL, batch, ctx).seconds \
                == inner.decode_step_time(MODEL, batch, ctx).seconds
            assert device.prefill_time(MODEL, 1, ctx).seconds \
                == inner.prefill_time(MODEL, 1, ctx).seconds

    def test_rejects_double_wrap_and_bad_bucket(self):
        device = self._device()
        with pytest.raises(ValueError):
            CachedDeviceModel(device)
        with pytest.raises(ValueError):
            CachedDeviceModel(AdorDeviceModel(ador_table3()),
                              context_bucket=0)

    def test_every_decode_miss_passes_the_ador_entry_point(self,
                                                           monkeypatch):
        """perfbench's ``device.miss`` ledger row wraps
        ``AdorDeviceModel.decode_step_time``; a step evaluated by any
        other route would silently empty that row."""
        calls = []
        entry_point = AdorDeviceModel.decode_step_time

        def counting(self, *args, **kwargs):
            calls.append(args)
            return entry_point(self, *args, **kwargs)

        monkeypatch.setattr(AdorDeviceModel, "decode_step_time", counting)
        device = self._device()
        engine = ClusterEngine(
            [EngineGroup("ador", device, MODEL, LIMITS, count=2)],
            router="least-outstanding")
        result = engine.run(steady_requests(rate=20.0),
                            max_sim_seconds=600.0)
        assert result.merged.finished
        assert device.stats.decode_misses > 0
        assert len(calls) == device.stats.decode_misses

    def test_warmed_device_pickles(self):
        device = self._device()
        cached = device.decode_step_time(MODEL, 4, 777)
        device.decode_step_time(MODEL, 16, 90, 2)
        clone = pickle.loads(pickle.dumps(device))
        assert clone.decode_step_time(MODEL, 4, 777).seconds.hex() \
            == cached.seconds.hex()
        new = clone.decode_step_time(MODEL, 16, 91, 2)
        assert new.seconds.hex() \
            == device.decode_step_time(MODEL, 16, 91, 2).seconds.hex()


class TestContextBucketing:
    def test_bucket_snaps_to_nearest_multiple(self):
        device = CachedDeviceModel(AdorDeviceModel(ador_table3()),
                                   context_bucket=64)
        assert device.bucketed_context(1) == 1   # max(1, ...) floor
        assert device.bucketed_context(31) == 1
        assert device.bucketed_context(33) == 64
        assert device.bucketed_context(96) == 128
        assert device.bucketed_context(95) == 64
        assert device.bucketed_context(640) == 640

    def test_bucketed_latency_error_bounded(self):
        """Quantizing the context by B shifts the evaluated point by at
        most B/2 tokens; for B=64 at kilotoken contexts the latency error
        stays under a couple of percent."""
        exact = AdorDeviceModel(ador_table3())
        bucketed = CachedDeviceModel(AdorDeviceModel(ador_table3()),
                                     context_bucket=64)
        for ctx in (500, 811, 1203, 1999, 3017):
            want = exact.decode_step_time(MODEL, 8, ctx).seconds
            got = bucketed.decode_step_time(MODEL, 8, ctx).seconds
            assert abs(got - want) / want < 0.02, ctx

    def test_bucketed_hit_rate_improves(self):
        exact = CachedDeviceModel(AdorDeviceModel(ador_table3()))
        coarse = CachedDeviceModel(AdorDeviceModel(ador_table3()),
                                   context_bucket=64)
        for ctx in range(900, 1030):
            exact.decode_step_time(MODEL, 8, ctx)
            coarse.decode_step_time(MODEL, 8, ctx)
        assert exact.stats.decode_hits == 0
        assert coarse.stats.decode_hits > 100


class _CountingDevice:
    """An uncached device (no ``decode_seconds_map``) that records the
    arguments of every ``decode_step_time`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def decode_step_time(self, model, batch, context_len, num_devices=1):
        self.calls.append((batch, context_len, num_devices))
        return self.inner.decode_step_time(model, batch, context_len,
                                           num_devices)


class TestUncachedBurst:
    @pytest.mark.parametrize("factor", (1.0, 2.0))
    def test_one_device_call_per_step(self, factor):
        """On an uncached device a burst makes the calls the per-call
        loop made: one ``decode_step_time`` per step, at that step's
        mean context, each step's seconds scaled by ``factor``."""
        batch = [Request(request_id=i, arrival_time=0.0, input_tokens=inp,
                         output_tokens=out, state=RequestState.DECODING)
                 for i, (inp, out) in enumerate(((100, 40), (333, 25),
                                                 (57, 60)))]
        scheduler = decoding_scheduler(batch)
        plan = scheduler.plan_iteration()
        size, context_sum = plan.decode_batch, plan.decode_context_sum
        inner = AdorDeviceModel(ador_table3())
        device = _CountingDevice(inner)
        now, steps, busy, decode_time = run_decode_burst(
            scheduler, plan, [], device, MODEL, 1, 0.0, 600.0, 0.0, 0.0,
            [], factor=factor)
        assert steps == 25  # the earliest completion ends the burst
        expected = [(size, max(1, int((context_sum + k * size) / size)), 1)
                    for k in range(steps)]
        assert device.calls == expected
        clock = 0.0
        for _, context, _ in expected:
            clock += inner.decode_step_time(MODEL, size, context).seconds \
                * factor
        assert now == busy == decode_time == clock


class TestFastForwardInterruption:
    """The burst loop must stop exactly where the plain loop would."""

    def _requests(self, spec):
        return [Request(request_id=i, arrival_time=a, input_tokens=inp,
                        output_tokens=out, record_token_times=True)
                for i, (a, inp, out) in enumerate(spec)]

    def _pair(self, spec, horizon=600.0, max_batch=8):
        limits = SchedulerLimits(max_batch=max_batch,
                                 prefill_chunk_tokens=256)
        runs = []
        for fast in (True, False):
            device = _device_for(ador_table3(), sim_cache=fast,
                                 context_bucket=1)
            engine = ServingEngine(device, MODEL, limits, fast_forward=fast)
            runs.append(engine.run(self._requests(spec),
                                   max_sim_seconds=horizon))
        return runs

    def test_interrupted_by_arrival(self):
        # the second request lands mid-way through the first one's decode
        fast, reference = self._pair(
            [(0.0, 64, 120), (0.6, 64, 120), (1.1, 64, 40)])
        assert result_fingerprint(fast) == result_fingerprint(reference)
        for a, b in zip(fast.finished, reference.finished):
            assert a.token_times == b.token_times

    def test_interrupted_by_completion(self):
        # staggered output lengths: every completion ends a burst
        fast, reference = self._pair(
            [(0.0, 64, 10), (0.0, 64, 25), (0.0, 64, 60), (0.0, 64, 61)])
        assert result_fingerprint(fast) == result_fingerprint(reference)
        for a, b in zip(fast.finished, reference.finished):
            assert a.token_times == b.token_times

    def test_interrupted_by_horizon(self):
        fast, reference = self._pair(
            [(0.0, 64, 5000), (0.0, 64, 5000)], horizon=2.0)
        assert result_fingerprint(fast) == result_fingerprint(reference)
        assert fast.unfinished and reference.unfinished
        assert fast.total_time_s <= 2.0 + 1.0  # one iteration may overrun

    def test_blocked_queue_stays_blocked_through_burst(self):
        # max_batch=2 keeps a queue; admissions only on completions
        fast, reference = self._pair(
            [(0.0, 64, 30), (0.0, 64, 50), (0.05, 64, 30), (0.1, 64, 30)],
            max_batch=2)
        assert result_fingerprint(fast) == result_fingerprint(reference)


class TestClusterBookkeeping:
    def test_sorted_stream_is_not_copied(self):
        requests = steady_requests()
        assert _sorted_by_arrival(requests) is requests

    def test_unsorted_stream_is_sorted(self):
        requests = steady_requests()
        shuffled = list(reversed(requests))
        ordered = _sorted_by_arrival(shuffled)
        assert ordered is not shuffled
        assert [r.request_id for r in ordered] \
            == [r.request_id for r in requests]

    def test_idle_replicas_keep_zero_clock(self):
        # one early burst routed by session affinity pins work on one
        # replica; with least-outstanding all replicas share — here we
        # just check an idle fleet member is skipped, not advanced
        requests = [Request(request_id=0, arrival_time=0.0,
                            input_tokens=64, output_tokens=16)]
        device = CachedDeviceModel(AdorDeviceModel(ador_table3()))
        engine = ClusterEngine(
            [EngineGroup("ador", device, MODEL, LIMITS, count=3)],
            router="round-robin")
        result = engine.run(requests)
        clocks = [r.total_time_s for r in result.replica_results]
        assert clocks[0] > 0.0
        assert clocks[1] == 0.0 and clocks[2] == 0.0

    def test_snapshot_after_submit_counts_the_request(self):
        # snapshots are built from live counters at each call
        from repro.serving.engine import ServingEngine as SE
        device = CachedDeviceModel(AdorDeviceModel(ador_table3()))
        from repro.cluster.engine import ReplicaSim
        replica = ReplicaSim(0, SE(device, MODEL, LIMITS))
        first = replica.snapshot()
        assert (first.outstanding_requests, first.outstanding_tokens) \
            == (0, 0)
        replica.submit(Request(request_id=0, arrival_time=0.0,
                               input_tokens=8, output_tokens=2))
        second = replica.snapshot()
        assert (second.outstanding_requests, second.outstanding_tokens) \
            == (1, 10)


def decoding_scheduler(batch):
    """A scheduler whose decode batch is ``batch``, joined in order with
    the token counts and stamps the requests already carry."""
    scheduler = ContinuousBatchingScheduler(MODEL, LIMITS)
    for request in batch:
        request.prefilled_tokens = request.input_tokens
        scheduler._join(request)
    return scheduler


class TestRequestSlimming:
    def test_token_times_off_by_default(self):
        request = Request(request_id=0, arrival_time=0.0, input_tokens=4,
                          output_tokens=3)
        request.record_token(1.0)
        request.record_token(2.0)
        request.record_token(4.0)
        assert request.token_times == []
        assert request.first_token_time == 1.0
        assert request.last_token_time == 4.0
        assert request.tbt == pytest.approx(1.5)
        assert request.finish_time == 4.0

    def test_recording_flag_keeps_full_timeline(self):
        request = Request(request_id=0, arrival_time=0.0, input_tokens=4,
                          output_tokens=3, record_token_times=True)
        for t in (1.0, 2.0, 4.0):
            request.record_token(t)
        assert request.token_times == [1.0, 2.0, 4.0]
        assert request.tbt == pytest.approx(1.5)

    def test_burst_equals_repeated_single_tokens(self):
        single = Request(request_id=0, arrival_time=0.0, input_tokens=4,
                         output_tokens=5, record_token_times=True)
        burst = Request(request_id=1, arrival_time=0.0, input_tokens=4,
                        output_tokens=5, record_token_times=True)
        times = [0.5, 0.9, 1.6, 2.0, 2.7]
        for t in times:
            single.record_token(t)
        scheduler = decoding_scheduler([burst])
        finished = []
        scheduler.complete_burst(scheduler.plan_iteration(), times[:2],
                                 finished)
        assert finished == []
        scheduler.complete_burst(scheduler.plan_iteration(), times[2:],
                                 finished)
        assert finished == [burst]
        assert burst.token_times == single.token_times
        assert burst.tbt == single.tbt
        assert burst.finish_time == single.finish_time
        assert burst.state == single.state

    @settings(max_examples=60, deadline=None)
    @given(members=st.lists(
               st.tuples(st.integers(1, 12),    # output tokens
                         st.integers(0, 11),    # already generated
                         st.booleans(),         # record_token_times
                         st.booleans()),        # first token already set
               min_size=1, max_size=8),
           gaps=st.lists(st.floats(0.001, 1.0), min_size=12, max_size=12),
           raw_steps=st.integers(0, 100))
    def test_stamping_helper_equals_record_token_per_step(
            self, members, gaps, raw_steps):
        """A decode burst's stamping leaves every member and the
        finished list as per-step ``record_token`` would, for any step
        count that finishes members on the last step: the running
        members' derived progress before they are settled, and their
        written fields after."""

        def build():
            batch = []
            for rid, (output, generated, record, first) in \
                    enumerate(members):
                generated = min(generated, output - 1)
                request = Request(request_id=rid, arrival_time=0.0,
                                  input_tokens=4, output_tokens=output,
                                  state=RequestState.DECODING,
                                  generated_tokens=generated,
                                  record_token_times=record)
                if first or generated:
                    request.first_token_time = 0.25
                    request.last_token_time = 0.5
                    if record:
                        request.token_times = [0.5] * generated
                batch.append(request)
            return batch

        remaining = min(output - min(generated, output - 1)
                        for output, generated, _, _ in members)
        steps = 1 + raw_steps % remaining
        times = [1.0]
        for gap in gaps[:steps - 1]:
            times.append(times[-1] + gap)

        reference = build()
        ref_finished = []
        for request in reference:
            for t in times:
                request.record_token(t)
            if request.done:
                ref_finished.append(request.request_id)

        helped = build()
        scheduler = decoding_scheduler(helped)
        assert scheduler.steps_until_finish() == remaining
        finished = []
        scheduler.complete_burst(scheduler.plan_iteration(), times, finished)
        assert [r.request_id for r in finished] == ref_finished
        for ours, theirs in zip(helped, reference):
            if ours in scheduler.decoding:
                assert scheduler._progress(ours) \
                    == (theirs.generated_tokens, theirs.last_token_time)
        scheduler.settle()
        fields = ("generated_tokens", "token_times", "first_token_time",
                  "last_token_time", "finish_time", "state")
        for ours, theirs in zip(helped, reference):
            assert [getattr(ours, f) for f in fields] \
                == [getattr(theirs, f) for f in fields]

    def test_qos_identical_with_and_without_recording(self):
        requests = steady_requests(count=20)
        recorded = copy.deepcopy(requests)
        for request in recorded:
            request.record_token_times = True
        device = _device_for(ador_table3(), sim_cache=True,
                             context_bucket=1)
        engine = ServingEngine(device, MODEL, LIMITS)
        slim = engine.run(copy.deepcopy(requests))
        full = engine.run(recorded)
        assert compute_qos(slim.finished, slim.total_time_s) \
            == compute_qos(full.finished, full.total_time_s)
        assert all(r.token_times == [] for r in slim.finished)
        assert all(len(r.token_times) == r.generated_tokens
                   for r in full.finished)
