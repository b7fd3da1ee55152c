"""Property-based tests (hypothesis) on the serving stack and analysis."""

from hypothesis import given, settings, strategies as st

from repro.analysis.pareto import dominates, pareto_frontier
from repro.analysis.tables import format_table
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.zoo import get_model
from repro.serving.engine import ServingEngine
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerLimits,
)

LLAMA3 = get_model("llama3-8b")
DEVICE = AdorDeviceModel(ador_table3())

request_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),   # arrival
        st.integers(min_value=1, max_value=96),    # input tokens
        st.integers(min_value=1, max_value=12),    # output tokens
    ),
    min_size=1,
    max_size=10,
)


def build_requests(spec) -> list:
    return [Request(request_id=i, arrival_time=a, input_tokens=inp,
                    output_tokens=out, record_token_times=True)
            for i, (a, inp, out) in enumerate(spec)]


@settings(max_examples=20, deadline=None)
@given(spec=request_lists, max_batch=st.integers(1, 8))
def test_engine_conserves_tokens(spec, max_batch):
    """Every request finishes with exactly its requested token count and
    strictly increasing emission times."""
    engine = ServingEngine(DEVICE, LLAMA3,
                           SchedulerLimits(max_batch=max_batch))
    result = engine.run(build_requests(spec), max_sim_seconds=600.0)
    assert not result.unfinished
    for request in result.finished:
        assert request.generated_tokens == request.output_tokens
        times = request.token_times
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
        assert request.first_token_time >= request.arrival_time


@settings(max_examples=20, deadline=None)
@given(spec=request_lists)
def test_engine_time_accounting(spec):
    """Busy time never exceeds wall time; decode+prefill parts are
    consistent with the iteration totals (up to the overlap credit)."""
    engine = ServingEngine(DEVICE, LLAMA3, SchedulerLimits(max_batch=4))
    result = engine.run(build_requests(spec), max_sim_seconds=600.0)
    assert result.busy_time_s <= result.total_time_s + 1e-9
    assert result.busy_time_s <= result.decode_time_s \
        + result.prefill_time_s + 1e-9


@settings(max_examples=20, deadline=None)
@given(spec=request_lists, max_batch=st.integers(1, 6))
def test_scheduler_never_exceeds_batch_limit(spec, max_batch):
    """The batch limit holds at every plan, and the scheduler retires
    every request (at most 10 requests of one prefill chunk and 12
    decode steps each, so 200 iterations always suffice)."""
    scheduler = ContinuousBatchingScheduler(
        LLAMA3, SchedulerLimits(max_batch=max_batch))
    requests = build_requests(spec)
    for request in requests:
        scheduler.enqueue(request)
    for _ in range(200):
        plan = scheduler.plan_iteration()
        assert scheduler.active_count <= max_batch
        if not plan.has_work:
            break
        scheduler.complete_iteration(plan, 1.0, [])
    assert not scheduler.has_work
    assert all(r.state == RequestState.FINISHED
               and r.generated_tokens == r.output_tokens for r in requests)


# --------------------------------------------------------------------- #
# Pareto properties                                                      #
# --------------------------------------------------------------------- #

objective_points = st.lists(
    st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
    min_size=1, max_size=30,
)


@given(points=objective_points)
def test_frontier_is_subset_and_nondominated(points):
    frontier = pareto_frontier(points, lambda p: p)
    assert frontier
    for point in frontier:
        assert point in points
    for a in frontier:
        for b in frontier:
            if a is not b:
                assert not dominates(a, b) or a == b


@given(points=objective_points)
def test_adding_dominated_point_keeps_frontier(points):
    frontier = pareto_frontier(points, lambda p: p)
    worst = (max(p[0] for p in points) + 1.0,
             max(p[1] for p in points) + 1.0)
    bigger = pareto_frontier(points + [worst], lambda p: p)
    assert worst not in bigger
    assert set(bigger) == set(frontier)


# --------------------------------------------------------------------- #
# Table rendering robustness                                             #
# --------------------------------------------------------------------- #

cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e12, max_value=1e12),
    st.integers(-10**9, 10**9),
    st.text(alphabet="abcdefg XYZ0123-", max_size=12),
)


@settings(max_examples=30)
@given(rows=st.lists(st.lists(cells, min_size=2, max_size=2),
                     min_size=1, max_size=8))
def test_format_table_always_aligned(rows):
    text = format_table(["a", "b"], rows)
    lines = text.splitlines()
    assert len(lines) == len(rows) + 2
    # header and separator have consistent width
    assert len(lines[1]) <= max(len(line) for line in lines)
