"""Unit tests for the continuous-batching scheduler and serving engine."""

import pytest

from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import a100, ador_table3
from repro.models.zoo import get_model
from repro.perf.baselines import baseline_for
from repro.serving.dataset import ULTRACHAT_LIKE
from repro.serving.engine import ServingEngine
from repro.serving.generator import iter_poisson_requests
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerLimits,
)
from repro.serving.utilization import utilization_report


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


def make_requests(count, input_tokens=64, output_tokens=8):
    return [Request(request_id=i, arrival_time=0.0,
                    input_tokens=input_tokens, output_tokens=output_tokens)
            for i in range(count)]


class TestScheduler:
    def test_admission_respects_max_batch(self, llama3):
        scheduler = ContinuousBatchingScheduler(
            llama3, SchedulerLimits(max_batch=4))
        for request in make_requests(10):
            scheduler.enqueue(request)
        scheduler.plan_iteration()
        assert scheduler.active_count == 4
        assert len(scheduler.queued) == 6

    def test_admission_respects_kv_budget(self, llama3):
        from repro.models.kv_cache import kv_bytes_per_token
        per_token = kv_bytes_per_token(llama3)
        budget = 3 * (64 + 8) * per_token  # room for three requests
        scheduler = ContinuousBatchingScheduler(
            llama3, SchedulerLimits(max_batch=100, kv_budget_bytes=budget))
        for request in make_requests(10):
            scheduler.enqueue(request)
        scheduler.plan_iteration()
        assert scheduler.active_count == 3

    def test_reserved_kv_counter_tracks_admit_and_finish(self, llama3):
        """Regression: the reserved KV bytes used to be re-summed over all
        active requests per admission candidate (O(active^2) per
        iteration); they are now an incrementally-maintained counter that
        must stay equal to the recomputed sum through admissions and
        completions."""
        from repro.models.kv_cache import kv_bytes_per_token
        per_token = kv_bytes_per_token(llama3)

        def recompute(scheduler):
            return sum((r.input_tokens + r.output_tokens) * per_token
                       for r in [*scheduler.prefilling, *scheduler.decoding])

        scheduler = ContinuousBatchingScheduler(
            llama3, SchedulerLimits(max_batch=4, prefill_chunk_tokens=64))
        requests = make_requests(6, input_tokens=32, output_tokens=2)
        for request in requests:
            scheduler.enqueue(request)
        assert scheduler._reserved_kv_bytes == 0.0
        # drive the scheduler to completion, checking the invariant at
        # every iteration boundary
        for _ in range(200):
            plan = scheduler.plan_iteration()
            assert scheduler._reserved_kv_bytes \
                == pytest.approx(recompute(scheduler))
            if not plan.has_work:
                break
            scheduler.complete_iteration(plan, 1.0, [])
            assert scheduler._reserved_kv_bytes \
                == pytest.approx(recompute(scheduler))
        assert all(r.state == RequestState.FINISHED for r in requests)
        assert scheduler._reserved_kv_bytes == 0.0

    def test_chunked_prefill_progression(self, llama3):
        scheduler = ContinuousBatchingScheduler(
            llama3, SchedulerLimits(max_batch=4, prefill_chunk_tokens=32))
        request = make_requests(1, input_tokens=100)[0]
        scheduler.enqueue(request)
        chunks = []
        while request.state != RequestState.DECODING:
            plan = scheduler.plan_iteration()
            chunks.append(plan.prefill_tokens)
            scheduler.complete_iteration(plan, 0.0, [])
        assert chunks == [32, 32, 32, 4]

    def test_finished_requests_leave_decode_set(self, llama3):
        scheduler = ContinuousBatchingScheduler(llama3, SchedulerLimits())
        request = make_requests(1, input_tokens=8, output_tokens=1)[0]
        scheduler.enqueue(request)
        plan = scheduler.plan_iteration()
        scheduler.complete_iteration(plan, 0.0, [])
        assert request.state == RequestState.DECODING
        plan = scheduler.plan_iteration()
        finished = []
        scheduler.complete_iteration(plan, 1.0, finished)  # finishes it
        assert finished == [request]
        assert not scheduler.decoding

    def test_rejects_double_enqueue(self, llama3):
        scheduler = ContinuousBatchingScheduler(llama3, SchedulerLimits())
        request = make_requests(1)[0]
        scheduler.enqueue(request)
        scheduler.plan_iteration()  # admits it
        with pytest.raises(ValueError):
            scheduler.enqueue(request)


class TestEngine:
    def _engine(self, llama3, chip=None, max_batch=64):
        device = AdorDeviceModel(chip or ador_table3())
        return ServingEngine(device, llama3,
                             SchedulerLimits(max_batch=max_batch))

    def test_all_requests_finish(self, llama3):
        engine = self._engine(llama3)
        result = engine.run(make_requests(20))
        assert len(result.finished) == 20
        assert not result.unfinished

    def test_token_conservation(self, llama3):
        engine = self._engine(llama3)
        requests = make_requests(10, output_tokens=7)
        result = engine.run(requests)
        assert result.generated_tokens == 70
        for request in result.finished:
            assert request.generated_tokens == request.output_tokens

    def test_token_times_monotonic(self, llama3):
        engine = self._engine(llama3)
        requests = make_requests(5, output_tokens=20)
        for request in requests:
            request.record_token_times = True
        result = engine.run(requests)
        for request in result.finished:
            times = request.token_times
            assert len(times) == request.output_tokens
            assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))

    def test_ttft_at_least_prefill_time(self, llama3):
        device = AdorDeviceModel(ador_table3())
        engine = ServingEngine(device, llama3, SchedulerLimits())
        result = engine.run(make_requests(1, input_tokens=512))
        lone = result.finished[0]
        min_prefill = device.prefill_time(llama3, 1, 512).seconds
        assert lone.ttft >= 0.9 * min_prefill

    def test_horizon_stops_runaway(self, llama3):
        engine = self._engine(llama3, max_batch=1)
        result = engine.run(make_requests(50, output_tokens=500),
                            max_sim_seconds=1.0)
        assert result.total_time_s <= 1.2
        assert result.unfinished

    def test_idle_gap_jumps_to_next_arrival(self, llama3):
        engine = self._engine(llama3)
        requests = make_requests(2)
        requests[1].arrival_time = 100.0
        result = engine.run(requests, max_sim_seconds=200.0)
        assert len(result.finished) == 2
        assert result.total_time_s > 100.0
        assert result.busy_time_s < 5.0

    def test_gpu_endpoint_slower_than_ador(self, llama3):
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 8.0, 0, 40))
        import copy
        ador_result = ServingEngine(
            AdorDeviceModel(ador_table3()), llama3,
            SchedulerLimits(max_batch=128)).run(copy.deepcopy(requests))
        gpu_result = ServingEngine(
            baseline_for(a100()), llama3,
            SchedulerLimits(max_batch=128)).run(copy.deepcopy(requests))
        assert ador_result.total_time_s < gpu_result.total_time_s


class TestUtilization:
    def test_report_fields_bounded(self, llama3):
        engine = ServingEngine(AdorDeviceModel(ador_table3()), llama3,
                               SchedulerLimits(max_batch=64))
        result = engine.run(make_requests(30, output_tokens=30))
        report = utilization_report(result, llama3, ador_table3())
        assert 0 < report.busy_fraction <= 1.0
        assert 0 <= report.decode_bandwidth_utilization <= 1.0
        assert report.mean_decode_batch > 1.0

    def test_rejects_empty_simulation(self, llama3):
        from repro.serving.engine import SimulationResult
        empty = SimulationResult([], [], 0.0, 0, 0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            utilization_report(empty, llama3, ador_table3())
