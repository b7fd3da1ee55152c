"""Unit tests for requests, traces and the QoS calculator."""

import dataclasses
import math

import numpy as np
import pytest

from repro.serving.dataset import (
    ChatTraceConfig,
    ULTRACHAT_LIKE,
    fixed_trace,
    sample_trace,
)
from repro.serving.generator import iter_poisson_requests
from repro.serving.qos import compute_qos
from repro.serving.request import Request, RequestState


def make_request(**overrides) -> Request:
    base = dict(request_id=0, arrival_time=0.0, input_tokens=10,
                output_tokens=4)
    base.update(overrides)
    return Request(**base)


class TestRequestLifecycle:
    def test_initial_state(self):
        request = make_request()
        assert request.state == RequestState.QUEUED
        assert request.context_len == 0
        assert request.prefill_remaining == 10

    def test_token_recording(self):
        request = make_request(output_tokens=3)
        request.prefilled_tokens = 10
        for t in (1.0, 1.1, 1.2):
            request.record_token(t)
        assert request.state == RequestState.FINISHED
        assert request.first_token_time == 1.0
        assert request.finish_time == 1.2

    def test_qos_properties(self):
        request = make_request(arrival_time=0.5, output_tokens=3)
        for t in (1.0, 1.2, 1.4):
            request.record_token(t)
        assert request.ttft == pytest.approx(0.5)
        assert request.tbt == pytest.approx(0.2)
        assert request.e2e_latency == pytest.approx(0.9)

    def test_unfinished_request_has_no_e2e(self):
        with pytest.raises(ValueError):
            make_request().e2e_latency

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            make_request(input_tokens=0)


class TestTraces:
    def test_ultrachat_means(self):
        """Means must match the published summary stats (DESIGN.md)."""
        assert ULTRACHAT_LIKE.mean_input == pytest.approx(757, rel=0.05)
        assert ULTRACHAT_LIKE.mean_output == pytest.approx(263, rel=0.05)

    def test_sampled_means_converge(self):
        rng = np.random.default_rng(0)
        pairs = sample_trace(ULTRACHAT_LIKE, 20000, rng)
        inputs = np.array([p[0] for p in pairs])
        outputs = np.array([p[1] for p in pairs])
        assert inputs.mean() == pytest.approx(ULTRACHAT_LIKE.mean_input,
                                              rel=0.1)
        assert outputs.mean() == pytest.approx(ULTRACHAT_LIKE.mean_output,
                                               rel=0.1)

    def test_samples_respect_clips(self):
        rng = np.random.default_rng(1)
        pairs = sample_trace(ULTRACHAT_LIKE, 5000, rng)
        for i, o in pairs:
            assert ULTRACHAT_LIKE.min_input <= i <= ULTRACHAT_LIKE.max_input
            assert ULTRACHAT_LIKE.min_output <= o <= ULTRACHAT_LIKE.max_output

    def test_fixed_trace_is_degenerate(self):
        trace = fixed_trace(256, 64)
        rng = np.random.default_rng(2)
        pairs = sample_trace(trace, 100, rng)
        assert all(p == (256, 64) for p in pairs)

    def test_empty_sample(self):
        assert sample_trace(ULTRACHAT_LIKE, 0, np.random.default_rng(0)) == []

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ChatTraceConfig("bad", -1.0, 0.5, 100.0, 0.5)

    @pytest.mark.parametrize("field, value, message", [
        # NaN used to fail mid-generation, 2.5 to truncate every answer
        # to 2 tokens, an infinite median to clip every prompt to the
        # upper bound
        ("max_input", float("nan"), "an integer"),
        ("max_output", 2.5, "an integer"),
        ("min_output", True, "an integer"),
        ("min_input", 0, ">= 1"),
        ("min_output", -3, ">= 1"),
        ("input_median", float("inf"), "positive and finite"),
        ("output_median", 0.0, "positive and finite"),
        ("input_sigma", float("nan"), "non-negative and finite"),
        ("output_sigma", float("inf"), "non-negative and finite"),
    ])
    def test_config_names_the_field_it_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} must be {message}"):
            dataclasses.replace(ULTRACHAT_LIKE, **{field: value})

    @pytest.mark.parametrize("low, high", [("min_input", "max_input"),
                                           ("min_output", "max_output")])
    def test_lower_length_bound_may_not_exceed_the_upper(self, low, high):
        """``min_input=10, max_input=5`` used to make every prompt 5
        tokens long."""
        with pytest.raises(ValueError,
                           match=f"^{low} must not exceed {high}, got 10 > 5"):
            dataclasses.replace(ULTRACHAT_LIKE, **{low: 10, high: 5})


class TestPoissonGenerator:
    def test_arrivals_are_increasing(self):
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 10.0, 0, 100))
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)

    def test_rate_is_respected(self):
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 20.0, 0, 4000))
        span = requests[-1].arrival_time - requests[0].arrival_time
        assert 4000 / span == pytest.approx(20.0, rel=0.1)

    def test_reproducible_with_seed(self):
        a = list(iter_poisson_requests(ULTRACHAT_LIKE, 5.0, 42, 10))
        b = list(iter_poisson_requests(ULTRACHAT_LIKE, 5.0, 42, 10))
        assert [(r.arrival_time, r.input_tokens) for r in a] \
            == [(r.arrival_time, r.input_tokens) for r in b]

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            list(iter_poisson_requests(ULTRACHAT_LIKE, 0.0, 0, 10))


class TestQosReport:
    def _finished_requests(self, count=20):
        requests = []
        for i in range(count):
            request = make_request(request_id=i, arrival_time=float(i),
                                   output_tokens=5)
            request.prefilled_tokens = 10
            start = i + 0.1 * (i + 1)
            for k in range(5):
                request.record_token(start + 0.02 * k)
            requests.append(request)
        return requests

    def test_report_fields(self):
        report = compute_qos(self._finished_requests(), wall_time_s=30.0)
        assert report.request_count == 20
        assert report.tbt_mean_s == pytest.approx(0.02)
        assert report.ttft_p99_s >= report.ttft_p50_s
        assert report.tokens_per_s == pytest.approx(100 / 30.0)

    def test_slo_checks(self):
        report = compute_qos(self._finished_requests(), wall_time_s=30.0)
        assert report.meets_tbt_slo(0.025)
        assert not report.meets_tbt_slo(0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_qos([], 1.0)

    def test_single_token_requests_report_nan_tbt(self):
        """Regression: with no request emitting >= 2 tokens, TBT used to
        be substituted with 0.0 — a perfect inter-token latency nobody
        observed."""
        requests = []
        for i in range(4):
            request = make_request(request_id=i, arrival_time=float(i),
                                   output_tokens=1)
            request.prefilled_tokens = 10
            request.record_token(i + 0.5)
            requests.append(request)
        report = compute_qos(requests, wall_time_s=10.0)
        assert math.isnan(report.tbt_mean_s)
        assert math.isnan(report.tbt_p50_s)
        assert math.isnan(report.tbt_p95_s)
        assert math.isnan(report.tbt_p99_s)
        # an unmeasured TBT must never satisfy an SLO
        assert not report.meets_tbt_slo(1.0)
        # TTFT and throughput stay measured
        assert report.ttft_mean_s == pytest.approx(0.5)
        assert report.tokens_per_s == pytest.approx(0.4)


class TestRequestIdentity:
    def test_equality_is_by_identity(self):
        """Regression: value-based __eq__ made two same-shaped requests
        alias each other in membership tests."""
        a = make_request()
        b = make_request()
        assert a != b
        assert a == a
        assert len({a, b}) == 2

    def test_usable_in_sets(self):
        requests = [make_request(request_id=i % 2) for i in range(6)]
        assert len(set(requests)) == 6
