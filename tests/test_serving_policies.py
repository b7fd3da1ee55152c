"""Unit tests for the batching-policy baselines (paper Fig. 2b)."""

import copy

import pytest

from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.zoo import get_model
from repro.serving.dataset import fixed_trace
from repro.serving.generator import iter_poisson_requests
from repro.serving.engine import ServingEngine
from repro.serving.policies import simulate_no_batching, simulate_static
from repro.serving.qos import compute_qos
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits

POLICIES = ("no-batching", "static", "continuous")


@pytest.fixture(scope="module")
def llama3():
    return get_model("llama3-8b")


@pytest.fixture(scope="module")
def device():
    return AdorDeviceModel(ador_table3())


def make_requests(count=24, rate=6.0, seed=3):
    trace = fixed_trace(256, 64)
    return list(iter_poisson_requests(trace, rate, seed, count))


def simulate(policy, device, llama3, requests, batch_size=32,
             max_sim_seconds=3600.0):
    """Run ``requests`` under the named discipline, on one device."""
    if policy == "no-batching":
        return simulate_no_batching(device, llama3, requests, 1,
                                    max_sim_seconds)
    if policy == "static":
        return simulate_static(device, llama3, requests, batch_size, 1,
                               max_sim_seconds)
    engine = ServingEngine(device, llama3,
                           SchedulerLimits(max_batch=batch_size))
    return engine.run(requests, max_sim_seconds=max_sim_seconds)


def run(policy, device, llama3, requests, **kwargs):
    result = simulate(policy, device, llama3, copy.deepcopy(requests),
                      **kwargs)
    qos = compute_qos(result.finished, result.total_time_s)
    return result, qos


class TestPolicies:
    def test_all_policies_finish_everything(self, device, llama3):
        requests = make_requests()
        for policy in POLICIES:
            result, _ = run(policy, device, llama3, requests)
            assert len(result.finished) == len(requests), policy

    def test_no_batching_tbt_competitive(self, device, llama3):
        """Per-token latency of serial service is near the best.  It is
        not strictly the best on ADOR: the Fig. 10 bandwidth curve
        rewards batched steps with higher DRAM utilization, so a batched
        step can be *absolutely* faster than a batch-1 step."""
        requests = make_requests()
        tbts = {policy: run(policy, device, llama3, requests)[1].tbt_mean_s
                for policy in POLICIES}
        assert tbts["no-batching"] <= 1.10 * min(tbts.values())

    def test_no_batching_has_worst_completion_time(self, device, llama3):
        """Serial service is QoS-friendly per token but cannot keep up."""
        requests = make_requests()
        totals = {policy: run(policy, device, llama3, requests)[0].total_time_s
                  for policy in POLICIES}
        assert totals["no-batching"] == max(totals.values())

    def test_continuous_beats_static_on_ttft(self, device, llama3):
        """Static batches make late arrivals wait for batch formation and
        stragglers; continuous batching admits at iteration granularity."""
        requests = make_requests(count=32, rate=8.0)
        _, static_qos = run("static", device, llama3, requests,
                            batch_size=16)
        _, cont_qos = run("continuous", device, llama3, requests,
                          batch_size=16)
        assert cont_qos.ttft_p95_s < static_qos.ttft_p95_s

    def test_continuous_throughput_at_least_static(self, device, llama3):
        requests = make_requests(count=32, rate=8.0)
        static_result, _ = run("static", device, llama3, requests,
                               batch_size=16)
        cont_result, _ = run("continuous", device, llama3, requests,
                             batch_size=16)
        assert cont_result.total_time_s <= static_result.total_time_s * 1.05

    def test_static_rejects_bad_batch(self, device, llama3):
        with pytest.raises(ValueError):
            simulate("static", device, llama3, make_requests(4),
                     batch_size=0)

    def test_token_conservation_across_policies(self, device, llama3):
        requests = make_requests(count=12)
        expected = sum(r.output_tokens for r in requests)
        for policy in POLICIES:
            result, _ = run(policy, device, llama3, requests)
            generated = sum(r.generated_tokens for r in result.finished)
            assert generated == expected, policy


class TestHorizonAndIdentityRegressions:
    def test_no_batching_same_shaped_requests_not_aliased(self, device,
                                                          llama3):
        """Regression: value-based Request.__eq__ made `r not in finished`
        drop every unfinished request that *looked like* a finished one."""
        twins = [Request(request_id=i, arrival_time=0.0, input_tokens=256,
                         output_tokens=64) for i in range(4)]
        # horizon allows roughly one request to be served
        single = simulate("no-batching", device, llama3,
                          [copy.deepcopy(twins[0])])
        horizon = single.total_time_s * 1.2
        result = simulate("no-batching", device, llama3, twins,
                          max_sim_seconds=horizon)
        assert len(result.finished) + len(result.unfinished) == len(twins)
        assert len(result.unfinished) == len(twins) - len(result.finished)
        assert result.unfinished, "expected requests cut off by the horizon"

    def test_static_batch_stops_decoding_at_horizon(self, device, llama3):
        """Regression: a static batch that started before the horizon
        decoded arbitrarily far past it and counted every member as
        finished, even those without a finish stamp."""
        requests = [Request(request_id=i, arrival_time=0.0,
                            input_tokens=128, output_tokens=2000)
                    for i in range(4)]
        horizon = 5.0
        result = simulate("static", device, llama3, requests,
                          batch_size=4, max_sim_seconds=horizon)
        # decode steps stop at the horizon (the last step may start just
        # before it and end past it — same rule as the continuous engine)
        step = device.decode_step_time(llama3, 4, 1128, 1).seconds
        assert result.total_time_s <= horizon + 2 * step
        # cut-off members are unfinished, with no finish stamp
        assert result.finished == []
        assert len(result.unfinished) == 4
        for request in result.unfinished:
            assert request.finish_time is None
            assert not request.done

    def test_static_members_finishing_before_horizon_still_finish(
            self, device, llama3):
        requests = [Request(request_id=i, arrival_time=0.0,
                            input_tokens=64, output_tokens=4)
                    for i in range(4)]
        result = simulate("static", device, llama3, requests,
                          batch_size=4, max_sim_seconds=3600.0)
        assert len(result.finished) == 4
        assert result.unfinished == []

    @pytest.mark.parametrize("policy", ["no-batching", "static"])
    def test_post_horizon_arrival_never_inflates_wall_time(
            self, device, llama3, policy):
        """A request arriving after the horizon must stay unfinished and
        must not drag total_time_s past max_sim_seconds (the engine fix
        of PR 1, now enforced for the baseline policies too)."""
        requests = [
            Request(request_id=0, arrival_time=0.0,
                    input_tokens=64, output_tokens=4),
            Request(request_id=1, arrival_time=10_000.0,
                    input_tokens=64, output_tokens=4),
        ]
        result = simulate(policy, device, llama3, requests,
                          batch_size=1, max_sim_seconds=600.0)
        assert result.total_time_s <= 600.0
        assert len(result.finished) == 1
        assert len(result.unfinished) == 1
