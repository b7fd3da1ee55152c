"""Streaming-arrival suite: the lazy generators and the engines'
stream input.

The arrival generators (:func:`iter_poisson_requests`,
:func:`iter_onoff_requests`, :func:`iter_session_requests`) replay a
fixed RNG draw order chunk by chunk.  Each is checked field-wise,
bit-for-bit, against one reference that draws whole arrays in that
order: the production :class:`PoissonArrivalTemplate` for Poisson, and
the array-drawing bodies below for on/off and sessions.  A full
simulation fed a stream must fingerprint identically to one fed a list
of the same requests.  On top of parity: the online out-of-order
check, the sink/monitor contract, and the tracemalloc guarantee that
streaming peak memory is flat in the request count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import DeploymentSpec, WorkloadSpec, simulate
from repro.api.facade import _device_for
from repro.cluster.autoscaler import AutoscaleSpec
from repro.cluster.engine import ClusterEngine, EngineGroup
from repro.cluster.faults import FaultEvent, FaultSpec
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.perf.scale import StreamStats
from repro.serving.dataset import ULTRACHAT_LIKE, ChatTraceConfig, sample_trace
from repro.serving.engine import ServingEngine
from repro.serving.generator import (
    PoissonArrivalTemplate,
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits
from repro.serving.sessions import (
    MultiTurnSessionGenerator,
    SessionConfig,
    SessionTurn,
    iter_session_requests,
)
from repro.serving.stream import OutOfOrderArrival, RequestStream, as_stream

MODEL = get_model("llama3-8b")
LIMITS = SchedulerLimits(max_batch=8, prefill_chunk_tokens=256)

BURSTY = ChatTraceConfig(
    name="bursty-stream",
    input_median=300.0,
    input_sigma=0.6,
    output_median=60.0,
    output_sigma=0.9,
)


def _device():
    return _device_for(get_chip("ador"), True, 1)


def request_fields(r):
    return (r.request_id, r.arrival_time, r.input_tokens, r.output_tokens,
            r.session_id, r.turn_index, r.history_tokens)


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
# Reference draw orders                                                  #
# --------------------------------------------------------------------- #
# The two bodies below are the array-drawing on/off and session
# generators the iter_* replays were first written against, kept
# verbatim (as functions of the seed) as the reference each replay must
# reproduce.  They are test oracles only; the library has one
# implementation of each arrival process.

def reference_onoff_requests(trace, on_rate, off_rate, phase_seconds,
                             seed, count):
    """Reference on/off draw order: all lengths, then one exponential
    per arrival, from one generator."""
    rng = np.random.default_rng(seed)
    lengths = sample_trace(trace, count, rng)
    now = 0.0
    arrivals = []
    for _ in range(count):
        phase = int(now / phase_seconds) % 2
        rate = on_rate if phase == 0 else off_rate
        now += float(rng.exponential(1.0 / rate))
        arrivals.append(now)
    return [
        Request(
            request_id=i,
            arrival_time=float(arrivals[i]),
            input_tokens=lengths[i][0],
            output_tokens=lengths[i][1],
        )
        for i in range(len(arrivals))
    ]


def reference_session_requests(config, sessions, session_rate_per_s, seed):
    """Reference session draw order: all start gaps, then each
    session's body in id order, then a stable sort by arrival."""
    rng = np.random.default_rng(seed)
    generator = MultiTurnSessionGenerator(config, rng)
    gaps = rng.exponential(1.0 / session_rate_per_s, size=sessions)
    starts = np.cumsum(gaps)
    turns: list[SessionTurn] = []
    for sid in range(sessions):
        turns.extend(generator.generate_session(sid, float(starts[sid])))
    turns.sort(key=lambda t: t.arrival_time)
    return [
        Request(
            request_id=i,
            arrival_time=turn.arrival_time,
            input_tokens=turn.input_tokens,
            output_tokens=turn.output_tokens,
            session_id=turn.session_id,
            turn_index=turn.turn_index,
            history_tokens=turn.history_tokens,
        )
        for i, turn in enumerate(turns)
    ]


# --------------------------------------------------------------------- #
# Generator parity (field-wise, every request)                           #
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("count", [0, 1, 7, 500, 5000])
@pytest.mark.parametrize("chunk", [13, 4096])
def test_iter_poisson_matches_materialized(count, chunk):
    reference = PoissonArrivalTemplate(
        ULTRACHAT_LIKE, count, 23).requests_at(12.0)
    streamed = list(iter_poisson_requests(
        ULTRACHAT_LIKE, 12.0, 23, count, chunk=chunk))
    assert [request_fields(r) for r in streamed] \
        == [request_fields(r) for r in reference]


@pytest.mark.parametrize("count", [0, 1, 500, 5000])
@pytest.mark.parametrize("chunk", [7, 4096])
def test_iter_onoff_matches_materialized(count, chunk):
    reference = reference_onoff_requests(BURSTY, 30.0, 2.0, 2.0, 5, count)
    streamed = list(iter_onoff_requests(
        BURSTY, 30.0, 2.0, 2.0, 5, count, chunk=chunk))
    assert [request_fields(r) for r in streamed] \
        == [request_fields(r) for r in reference]


@pytest.mark.parametrize("sessions", [0, 1, 40, 300])
def test_iter_sessions_matches_materialized(sessions):
    config = SessionConfig()
    reference = reference_session_requests(config, sessions, 4.0, 31)
    streamed = list(iter_session_requests(config, sessions, 4.0, 31))
    assert [request_fields(r) for r in streamed] \
        == [request_fields(r) for r in reference]


def test_workload_spec_iter_matches_build():
    for spec, reference in (
        (WorkloadSpec(rate_per_s=10.0, num_requests=300, seed=3),
         PoissonArrivalTemplate(ULTRACHAT_LIKE, 300, 3).requests_at(10.0)),
        (WorkloadSpec(arrival="sessions", rate_per_s=3.0,
                      num_requests=40, seed=9),
         reference_session_requests(SessionConfig(), 40, 3.0, 9)),
    ):
        expected = [request_fields(r) for r in reference]
        assert [request_fields(r) for r in spec.iter_requests()] == expected
        assert [request_fields(r) for r in spec.build_requests()] \
            == expected


# --------------------------------------------------------------------- #
# RequestStream ordering contract                                        #
# --------------------------------------------------------------------- #

def _requests(arrivals):
    return [Request(request_id=i, arrival_time=t, input_tokens=8,
                    output_tokens=2) for i, t in enumerate(arrivals)]


def test_out_of_order_stream_fails_loudly():
    stream = as_stream(iter(_requests([0.0, 2.0, 1.5])))
    with pytest.raises(OutOfOrderArrival) as excinfo:
        list(stream)
    # the offending timestamp and the high-water mark are both named
    assert "1.5" in str(excinfo.value)
    assert "2.0" in str(excinfo.value)


def test_engine_rejects_out_of_order_stream():
    engine = ServingEngine(_device(), MODEL, LIMITS)
    with pytest.raises(OutOfOrderArrival):
        engine.run(iter(_requests([1.0, 0.5])), max_sim_seconds=60.0)


def test_cluster_engine_rejects_out_of_order_stream():
    engine = ClusterEngine(
        [EngineGroup("ador", ServingEngine(_device(), MODEL, LIMITS),
                     count=2)])
    with pytest.raises(OutOfOrderArrival):
        engine.run(iter(_requests([3.0, 2.0])), max_sim_seconds=60.0)


def test_as_stream_is_idempotent_and_lazy():
    stream = as_stream(iter(_requests([0.0, 1.0])))
    assert as_stream(stream) is stream
    assert isinstance(stream, RequestStream)
    assert bool(stream)
    assert stream[0].request_id == 0
    assert stream.popleft().request_id == 0
    assert stream.popleft().request_id == 1
    assert not stream


def test_engine_list_input_keeps_materialized_path():
    # a plain list is NOT wrapped: the engine may index and sort it
    requests = _requests([1.0, 0.5])  # unsorted is fine for lists
    engine = ServingEngine(_device(), MODEL, LIMITS)
    result = engine.run(requests, max_sim_seconds=60.0)
    assert len(result.finished) == 2


# --------------------------------------------------------------------- #
# End-to-end bit-identity: stream vs list through full simulations       #
# --------------------------------------------------------------------- #

def test_simulate_streaming_knob_is_bit_identical():
    """The retired ``streaming`` key: a spec that still carries it
    (``false`` used to force the list path) runs exactly as one without
    it."""
    deployment = DeploymentSpec(chip="ador", model="llama3-8b",
                                max_batch=8)
    workload = WorkloadSpec(rate_per_s=10.0, num_requests=60, seed=17)
    on = simulate(deployment, workload)
    off = simulate(deployment, WorkloadSpec.from_dict(
        dict(workload.to_dict(), streaming=False)))
    assert request_fingerprints(on.result.finished) \
        == request_fingerprints(off.result.finished)
    assert on.result.total_time_s == off.result.total_time_s
    assert on.qos.ttft_mean_s == off.qos.ttft_mean_s


ELASTIC = {
    "none": {},
    "autoscale": {"autoscale": AutoscaleSpec(
        policy="queue-depth", min_replicas=1, max_replicas=4)},
    "faults": {"faults": FaultSpec(seed=3, crash_mtbf_s=40.0,
                                   restart_delay_s=2.0)},
}


def _trace_requests(kind, seed, count):
    if kind == "steady":
        return iter_poisson_requests(ULTRACHAT_LIKE, 10.0, seed, count)
    if kind == "bursty":
        return iter_onoff_requests(BURSTY, 30.0, 2.0, 2.0, seed, count)
    return iter_session_requests(SessionConfig(), max(1, count // 3), 3.0,
                                 seed)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["steady", "bursty", "sessions"]),
    replicas=st.sampled_from([1, 4]),
    elastic=st.sampled_from(sorted(ELASTIC)),
    seed=st.integers(0, 2**16),
    count=st.integers(3, 24),
)
def test_streaming_cluster_bit_identical(kind, replicas, elastic, seed,
                                         count):
    """A lazy stream and a list of the same request sequence drive any
    cluster configuration to the same bits — every replica's counters
    and every request's timeline."""
    def run(streaming):
        engine = ClusterEngine(
            [EngineGroup("ador", ServingEngine(_device(), MODEL, LIMITS),
                         count=replicas)],
            **ELASTIC[elastic])
        requests = _trace_requests(kind, seed, count)
        requests = as_stream(requests) if streaming else list(requests)
        return engine.run(requests, max_sim_seconds=120.0)

    streamed, materialized = run(True), run(False)
    assert cluster_fingerprint(streamed) == cluster_fingerprint(materialized)
    assert streamed.merged.total_time_s == materialized.merged.total_time_s


CRASH = FaultSpec(seed=3, restart_delay_s=5.0, max_retries=3,
                  events=(FaultEvent(kind="crash", replica_id=0,
                                     time_s=1.0),))


@pytest.mark.parametrize("autoscale", [None, AutoscaleSpec(
    policy="queue-depth", min_replicas=1, max_replicas=4,
    decision_interval_s=1.0, provision_latency_s=2.0)])
def test_fault_runs_pull_arrivals_lazily(autoscale):
    """Crash retries merge into the arrival stream instead of the whole
    stream being buffered first: the stream is never more than one
    request ahead of the requests routed so far."""
    count = 80
    stream = as_stream(iter_onoff_requests(BURSTY, 30.0, 2.0, 2.0, 5, count))
    routed = 0
    lead = []

    def progress(now, done):
        nonlocal routed
        routed += 1
        lead.append(stream.emitted - routed)

    engine = ClusterEngine(
        [EngineGroup("ador", ServingEngine(_device(), MODEL, LIMITS),
                     count=2)],
        router="least-outstanding", autoscale=autoscale, faults=CRASH)
    result = engine.run(stream, max_sim_seconds=120.0, progress=progress)
    assert result.faults.crashes == 1
    assert result.faults.retries > 0
    assert max(lead) <= 1
    assert stream.emitted == count
    assert len(result.merged.finished) + len(result.merged.unfinished) \
        + result.faults.failed_count == count


# --------------------------------------------------------------------- #
# Sink contract + constant-memory guarantee                              #
# --------------------------------------------------------------------- #

def test_sink_and_monitor_are_mutually_exclusive():
    engine = ServingEngine(_device(), MODEL, LIMITS)

    class Monitor:
        def on_iteration(self, *a):
            pass

    with pytest.raises(ValueError, match="sink"):
        engine.run(_requests([0.0]), monitor=Monitor(), sink=lambda r: None)


def test_sink_aggregates_match_retained_run():
    retained = ServingEngine(_device(), MODEL, LIMITS).run(
        list(iter_poisson_requests(ULTRACHAT_LIKE, 10.0, 7, 40)),
        max_sim_seconds=600.0)
    stats = StreamStats()
    sunk = ServingEngine(_device(), MODEL, LIMITS).run(
        iter_poisson_requests(ULTRACHAT_LIKE, 10.0, 7, 40),
        max_sim_seconds=600.0, sink=stats)
    assert stats.finished == len(retained.finished)
    assert stats.tokens == sum(r.generated_tokens
                               for r in retained.finished)
    assert sunk.sunk_tokens == stats.tokens
    assert not sunk.finished
    # finish order == list order, so the float sums are bit-identical
    assert stats.ttft_sum == sum(r.ttft for r in retained.finished)
    assert sunk.total_time_s == retained.total_time_s


def _wave_arrivals(count, wave=32, spacing=10.0):
    # stable load: waves of `wave` simultaneous requests, spaced far
    # enough apart that each wave drains before the next arrives, so
    # the in-flight window — the only thing the streaming engine keeps —
    # is bounded by the wave size regardless of `count`
    for i in range(count):
        yield Request(request_id=i, arrival_time=(i // wave) * spacing,
                      input_tokens=64, output_tokens=4)


def _streaming_peak(count):
    """Peak traced allocation of a sink-mode streaming run."""
    engine = ServingEngine(_device(), MODEL,
                           SchedulerLimits(max_batch=32))
    stats = StreamStats()
    tracemalloc.start()
    try:
        engine.run(_wave_arrivals(count),
                   max_sim_seconds=(count // 32 + 2) * 10.0,
                   sink=stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.finished == count
    return peak


def test_streaming_memory_constant_in_request_count():
    """The ISSUE's tracemalloc gate: 10x the requests must not cost
    10x the memory — streaming peak stays within 2x."""
    small = _streaming_peak(10_000)
    large = _streaming_peak(100_000)
    assert large < 2 * small, (
        f"streaming peak grew with request count: "
        f"{small} B @ 10k vs {large} B @ 100k")


def test_materialized_memory_grows_with_request_count():
    """Control for the test above: the list path DOES scale with count,
    so the constant-memory assertion is measuring something real."""

    def materialized(count):
        requests = list(_wave_arrivals(count))
        engine = ServingEngine(_device(), MODEL,
                               SchedulerLimits(max_batch=32))
        tracemalloc.start()
        try:
            engine.run(requests,
                       max_sim_seconds=(count // 32 + 2) * 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    assert materialized(20_000) > 1.5 * materialized(2_000)
