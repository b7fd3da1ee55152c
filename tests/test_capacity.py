"""Tests for the fast capacity-search engine (paper Fig. 16).

Covers the optimizations that keep the found rate identical to the
reference search: arrival-template reuse (draw-identity vs fresh
generation), probe caching (no rate simulated twice) and saturation
early-abort (verdict parity vs the full simulation on steady and bursty
traces).  Also covers the input checks every search runs before its
first simulation, and the retired ``reuse_arrivals`` /
``parallel_probes`` arguments the benchmark definition still passes.
The slower end-to-end behavioral tests live in
``tests/test_serving_capacity.py``.
"""

import json
from pathlib import Path

import pytest

from repro.api import CapacitySpec, Experiment
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.capacity import (
    _scheduler_limits,
    _simulate_rate,
    max_capacity_under_slo,
    meets_slo,
    reference_capacity_search,
)
from repro.serving.dataset import ULTRACHAT_LIKE, fixed_trace
from repro.serving.engine import (
    InstabilityMonitor,
    ServingEngine,
    ttft_is_stable,
)
from repro.serving.generator import (
    PoissonArrivalTemplate,
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.traces import get_trace


@pytest.fixture(scope="module")
def llama3():
    return get_model("llama3-8b")


@pytest.fixture(scope="module")
def device():
    return AdorDeviceModel(ador_table3())


#: small-but-real search configuration shared by the identity tests
SEARCH = dict(request_count=80, iterations=5, seed=7,
              rate_bounds=(0.5, 128.0), max_sim_seconds=400.0)


def search(device, model, slo_s, **kwargs):
    merged = dict(SEARCH)
    merged.update(kwargs)
    return max_capacity_under_slo(device, model, ULTRACHAT_LIKE,
                                  slo_tbt_s=slo_s, **merged)


# --------------------------------------------------------------------- #
# Arrival-template reuse                                                 #
# --------------------------------------------------------------------- #

class TestArrivalReuse:
    @pytest.mark.parametrize("rate", [0.5, 3.7, 23.0, 256.0])
    def test_rescaled_template_is_draw_identical(self, rate):
        template = PoissonArrivalTemplate(ULTRACHAT_LIKE, 200, seed=11)
        fresh = list(iter_poisson_requests(ULTRACHAT_LIKE, rate, 11, 200))
        reused = template.requests_at(rate)
        assert len(fresh) == len(reused) == 200
        for a, b in zip(fresh, reused):
            assert a.arrival_time == b.arrival_time  # bit-identical
            assert a.input_tokens == b.input_tokens
            assert a.output_tokens == b.output_tokens

    def test_template_returns_fresh_request_objects(self):
        template = PoissonArrivalTemplate(ULTRACHAT_LIKE, 4, seed=1)
        first = template.requests_at(2.0)
        first[0].record_token(1.0)  # mutate one probe's requests
        second = template.requests_at(2.0)
        assert second[0].generated_tokens == 0
        assert first[0] is not second[0]

    def test_template_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PoissonArrivalTemplate(ULTRACHAT_LIKE, -1, seed=1)
        template = PoissonArrivalTemplate(ULTRACHAT_LIKE, 2, seed=1)
        with pytest.raises(ValueError):
            template.requests_at(0.0)


# --------------------------------------------------------------------- #
# Probe caching                                                          #
# --------------------------------------------------------------------- #

class TestProbeCache:
    def test_no_rate_simulated_twice(self, device, llama3):
        result = search(device, llama3, 0.050, early_abort=False)
        distinct_rates = {probe.rate for probe in result.probes}
        assert result.simulations == len(distinct_rates)

    def test_reference_resimulates_the_best_rate(self, device, llama3):
        # the pre-optimization algorithm pays two extra simulations
        # (eager low endpoint + final re-simulation) on the common path
        reference = reference_capacity_search(
            device, llama3, ULTRACHAT_LIKE, slo_tbt_s=0.050, **SEARCH)
        fast = search(device, llama3, 0.050)
        assert reference.simulations >= fast.simulations + 2
        assert reference.max_requests_per_s == fast.max_requests_per_s

    def test_deterministic_across_runs(self, device, llama3):
        first = search(device, llama3, 0.050)
        second = search(device, llama3, 0.050)
        assert first.max_requests_per_s == second.max_requests_per_s
        assert first.qos_at_max == second.qos_at_max
        assert [p.rate for p in first.probes] \
            == [p.rate for p in second.probes]


# --------------------------------------------------------------------- #
# Saturation early-abort                                                 #
# --------------------------------------------------------------------- #

def _run_engine(device, model, requests, count, monitor=None,
                horizon=400.0):
    limits = _scheduler_limits(device, model, ULTRACHAT_LIKE, 1)
    engine = ServingEngine(device, model, limits, 1)
    return engine.run(requests, max_sim_seconds=horizon, monitor=monitor)


class TestEarlyAbort:
    def test_saturated_steady_trace_aborts_with_matching_verdict(
            self, device, llama3):
        # ~1.5x beyond capacity: saturated, with arrivals still landing
        # long enough for the monitor's windows to fill
        count, rate = 150, 36.0
        template = PoissonArrivalTemplate(ULTRACHAT_LIKE, count, seed=7)
        full = _run_engine(device, llama3, template.requests_at(rate),
                           count)
        monitored = _run_engine(device, llama3, template.requests_at(rate),
                                count, monitor=InstabilityMonitor(count))
        assert monitored.saturated
        assert monitored.total_time_s < full.total_time_s
        slo = (count, 0.050, None, "p95")
        from repro.serving.qos import compute_qos
        full_qos = compute_qos(full.finished, full.total_time_s)
        mon_qos = compute_qos(monitored.finished, monitored.total_time_s) \
            if monitored.finished else None
        assert meets_slo(full, full_qos, *slo) \
            == meets_slo(monitored, mon_qos, *slo) is False

    def test_feasible_steady_trace_never_aborts(self, device, llama3):
        count, rate = 150, 10.0
        template = PoissonArrivalTemplate(ULTRACHAT_LIKE, count, seed=7)
        full = _run_engine(device, llama3, template.requests_at(rate),
                           count)
        monitored = _run_engine(device, llama3, template.requests_at(rate),
                                count, monitor=InstabilityMonitor(count))
        assert not monitored.saturated
        # a monitor that never fires leaves the run bit-identical
        assert monitored.total_time_s == full.total_time_s
        assert monitored.iterations == full.iterations
        assert [r.ttft for r in monitored.finished] \
            == [r.ttft for r in full.finished]

    def test_feasible_bursty_trace_never_aborts(self, device, llama3):
        # on/off bursts pile up a transient backlog that then drains —
        # exactly what must NOT trigger the abort
        requests = list(iter_onoff_requests(
            ULTRACHAT_LIKE, on_rate_per_s=18.0, off_rate_per_s=2.0,
            phase_seconds=5.0, seed=3, count=150))
        monitor = InstabilityMonitor(150)
        monitored = _run_engine(device, llama3, requests, 150,
                                monitor=monitor)
        assert not monitored.saturated
        assert len(monitored.finished) == 150

    def test_saturated_bursty_trace_verdict_parity(self, device, llama3):
        requests = list(iter_onoff_requests(
            ULTRACHAT_LIKE, on_rate_per_s=80.0, off_rate_per_s=40.0,
            phase_seconds=2.0, seed=3, count=150))
        same = list(iter_onoff_requests(
            ULTRACHAT_LIKE, on_rate_per_s=80.0, off_rate_per_s=40.0,
            phase_seconds=2.0, seed=3, count=150))
        full = _run_engine(device, llama3, requests, 150)
        monitored = _run_engine(device, llama3, same, 150,
                                monitor=InstabilityMonitor(150))
        from repro.serving.qos import compute_qos
        slo = (150, 0.050, None, "p95")
        full_qos = compute_qos(full.finished, full.total_time_s)
        mon_qos = compute_qos(monitored.finished, monitored.total_time_s) \
            if monitored.finished else None
        assert meets_slo(full, full_qos, *slo) \
            == meets_slo(monitored, mon_qos, *slo)

    def test_abort_implies_final_stability_check_fails(self):
        # the structural guarantee: the monitor's escape thresholds are
        # strictly stricter than the final check's
        monitor = InstabilityMonitor(100)
        assert monitor.escape_ratio > 2.5
        assert monitor.escape_floor > 0.25

    def test_search_rates_identical_with_and_without_abort(self, device,
                                                           llama3):
        aborting = search(device, llama3, 0.050, request_count=150)
        full = search(device, llama3, 0.050, request_count=150,
                      early_abort=False)
        assert aborting.max_requests_per_s == full.max_requests_per_s
        assert aborting.qos_at_max == full.qos_at_max

    def test_verify_mode_records_parity(self, device, llama3):
        result = search(device, llama3, 0.050, request_count=150,
                        early_abort="verify")
        aborted = [p for p in result.probes if p.aborted]
        assert aborted, "expected at least one aborted probe"
        assert all(p.abort_verdict_matches for p in aborted)
        untouched = [p for p in result.probes if not p.aborted]
        assert all(p.abort_verdict_matches is None for p in untouched)
        # verify mode re-simulates each aborted probe in full, and the
        # simulation count must say so
        assert result.simulations == len(result.probes) + len(aborted)

    def test_ttft_is_stable_thresholds(self):
        class R:
            def __init__(self, arrival, ttft):
                self.arrival_time = arrival
                self.ttft = ttft

        flat = [R(i, 0.1) for i in range(20)]
        assert ttft_is_stable(flat)
        escaping = [R(i, 0.1 if i < 10 else 3.0) for i in range(20)]
        assert not ttft_is_stable(escaping)
        assert ttft_is_stable(escaping[:4])  # too few to judge


# --------------------------------------------------------------------- #
# Reference parity (the headline contract)                               #
# --------------------------------------------------------------------- #

class TestReferenceParity:
    @pytest.mark.parametrize("slo", [0.025, 0.050])
    def test_default_search_matches_reference(self, device, llama3, slo):
        reference = reference_capacity_search(
            device, llama3, ULTRACHAT_LIKE, slo_tbt_s=slo, **SEARCH)
        fast = search(device, llama3, slo)
        assert fast.max_requests_per_s == reference.max_requests_per_s
        assert fast.qos_at_max == reference.qos_at_max

    def test_infeasible_slo_matches_reference(self, device, llama3):
        kwargs = dict(SEARCH, iterations=2)
        reference = reference_capacity_search(
            device, llama3, ULTRACHAT_LIKE, slo_tbt_s=1e-6, **kwargs)
        fast = max_capacity_under_slo(
            device, llama3, ULTRACHAT_LIKE, slo_tbt_s=1e-6, **kwargs)
        assert fast.max_requests_per_s == reference.max_requests_per_s \
            == 0.0
        assert fast.qos_at_max == reference.qos_at_max

    def test_cached_device_probes_match_plain(self, llama3):
        plain = AdorDeviceModel(ador_table3())
        cached = CachedDeviceModel(AdorDeviceModel(ador_table3()))
        workload = PoissonArrivalTemplate(ULTRACHAT_LIKE, 60, seed=7)
        for rate in (4.0, 24.0):
            a, qa = _simulate_rate(plain, llama3, workload, rate, 1, 300.0)
            b, qb = _simulate_rate(cached, llama3, workload, rate, 1, 300.0)
            assert qa == qb
            assert a.total_time_s == b.total_time_s

    def test_fixed_trace_search_is_stable(self, device, llama3):
        # degenerate trace: sanity that the search machinery handles
        # zero-variance workloads end to end
        trace = fixed_trace(256, 64)
        result = max_capacity_under_slo(
            device, llama3, trace, slo_tbt_s=0.050, request_count=40,
            iterations=3, seed=7, rate_bounds=(0.5, 64.0),
            max_sim_seconds=200.0)
        assert result.max_requests_per_s > 0.0


# --------------------------------------------------------------------- #
# Inputs and retired arguments                                           #
# --------------------------------------------------------------------- #

class _Untouchable:
    """A device that fails the test if a search simulates anything."""

    def __getattr__(self, name):
        raise AssertionError(f"simulated before checking inputs ({name})")


def _spec_search(device, model, trace, *, rate_bounds, request_count,
                 seed, **knobs):
    return CapacitySpec(rate_low=rate_bounds[0], rate_high=rate_bounds[1],
                        **knobs)


@pytest.mark.parametrize("check", [
    max_capacity_under_slo, reference_capacity_search, _spec_search],
    ids=["search", "reference", "spec"])
@pytest.mark.parametrize("bad, message", [
    pytest.param(dict(rate_bounds=(64.0, 1.0)),
                 "need 0 < rate_low < rate_high", id="reversed-bounds"),
    pytest.param(dict(rate_bounds=(0.0, 64.0)),
                 "need 0 < rate_low < rate_high", id="zero-low-bound"),
    pytest.param(dict(percentile="p90"), "unknown percentile 'p90'",
                 id="percentile-p90"),
    pytest.param(dict(rate_bounds=(float("nan"), 64.0)),
                 "need 0 < rate_low < rate_high", id="nan-low-bound"),
    pytest.param(dict(rate_bounds=(0.5, float("inf"))),
                 "rate_high must be finite", id="infinite-high-bound"),
    pytest.param(dict(slo_tbt_s=0.0), "slo_tbt_s must be positive",
                 id="zero-tbt-slo"),
    pytest.param(dict(slo_tbt_s=float("nan")), "slo_tbt_s must be positive",
                 id="nan-tbt-slo"),
    pytest.param(dict(slo_ttft_s=-1.0), "slo_ttft_s must be positive",
                 id="negative-ttft-slo"),
    pytest.param(dict(slo_ttft_s=float("nan")),
                 "slo_ttft_s must be positive", id="nan-ttft-slo"),
    pytest.param(dict(iterations=-1), "iterations must be non-negative",
                 id="negative-iterations"),
])
def test_bad_inputs_rejected_before_any_simulation(check, bad, message,
                                                   llama3):
    kwargs = dict(slo_tbt_s=0.050, request_count=40, iterations=3, seed=7,
                  rate_bounds=(0.5, 64.0))
    kwargs.update(bad)
    with pytest.raises(ValueError, match=message):
        check(_Untouchable(), llama3, ULTRACHAT_LIKE, **kwargs)


def test_null_rate_high_in_an_experiment_is_rejected():
    """The codec reads ``null`` in a float field as +inf, which would
    release every probe request at t=0 and report an infinite rate."""
    with pytest.raises(ValueError, match="rate_high must be finite"):
        Experiment.from_dict({"capacity": {"rate_high": None}})


def test_benchmark_search_knobs_still_accepted(device):
    # perfbench/workloads.json passes the retired keyword arguments, so
    # a signature break must fail here before it fails the benchmark
    config = json.loads((Path(__file__).resolve().parent.parent
                         / "perfbench" / "workloads.json").read_text())
    study = config["workloads"]["capacity-fig16"]
    scenario = study["scenarios"][0]
    knobs = dict(study["search"], request_count=40,
                 rate_bounds=tuple(study["search"]["rate_bounds"]))

    def run(**search):
        return max_capacity_under_slo(
            device, get_model(scenario["model"]), get_trace(study["trace"]),
            slo_tbt_s=scenario["slo_tbt_s"],
            num_devices=scenario["num_devices"], seed=study["arrival_seed"],
            **search)

    found = run(**knobs)
    assert (knobs["reuse_arrivals"], knobs["parallel_probes"]) == (True, 1)
    del knobs["reuse_arrivals"], knobs["parallel_probes"]
    assert found == run(**knobs)
    for retired in (dict(parallel_probes=2), dict(reuse_arrivals=False)):
        with pytest.raises(ValueError, match="retired"):
            run(**knobs, **retired)
