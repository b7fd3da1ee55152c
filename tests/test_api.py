"""Tests for the declarative experiment API (``repro.api``)."""

import json

import pytest

from repro.api import (
    BATCHING_POLICIES,
    AutoscaleSpec,
    CapacityReport,
    CapacitySpec,
    ClusterReport,
    DeploymentSpec,
    EndpointOverloaded,
    Experiment,
    FleetCapacityReport,
    FleetSpec,
    ReplicaGroupSpec,
    WorkloadSpec,
    find_capacity,
    get_chip,
    get_trace,
    list_chips,
    list_traces,
    load_experiment,
    register_chip,
    register_trace,
    run_experiment,
    save_experiment,
    simulate,
)
from repro.core.scheduling import device_model_for
from repro.hardware.chip import ChipSpec
from repro.hardware.registry import CHIP_REGISTRY
from repro.models.zoo import get_model
from repro.serving.dataset import ULTRACHAT_LIKE, ChatTraceConfig
from repro.serving.engine import ServingEngine
from repro.serving.generator import iter_poisson_requests
from repro.serving.prefix_cache import PrefixCacheSpec
from repro.serving.qos import compute_qos
from repro.serving.scheduler import SchedulerLimits
from repro.serving.traces import TRACE_REGISTRY


# --------------------------------------------------------------------- #
# Registries                                                             #
# --------------------------------------------------------------------- #

class TestChipRegistry:
    def test_builtin_presets_registered(self):
        for name in ("ador", "a100", "h100", "tpuv4", "tsp",
                     "llmcompass-l", "llmcompass-t"):
            assert name in list_chips()

    def test_get_chip_returns_fresh_spec(self):
        first, second = get_chip("ador"), get_chip("ador")
        assert isinstance(first, ChipSpec)
        assert first == second
        assert first is not second

    def test_lookup_matches_names_exactly(self):
        with pytest.raises(KeyError, match="unknown chip 'ADOR'"):
            get_chip("ADOR")

    def test_unknown_chip_lists_known_names(self):
        with pytest.raises(KeyError, match="ador"):
            get_chip("tpu-v9")

    def test_register_chip_decorator_and_duplicate_rejection(self):
        @register_chip("test-chip-xyz")
        def factory():
            return get_chip("ador").with_updates(name="Test Chip XYZ")

        try:
            assert get_chip("test-chip-xyz").name == "Test Chip XYZ"
            with pytest.raises(ValueError, match="already registered"):
                register_chip("test-chip-xyz")(factory)
        finally:
            CHIP_REGISTRY.unregister("test-chip-xyz")


class TestTraceRegistry:
    def test_builtin_traces(self):
        assert "ultrachat" in list_traces()
        assert get_trace("ultrachat") == ULTRACHAT_LIKE

    def test_dynamic_fixed_trace(self):
        trace = get_trace("fixed-512x128")
        assert trace.input_median == 512.0
        assert trace.output_median == 128.0
        assert trace.input_sigma == 0.0

    def test_unknown_trace_raises(self):
        with pytest.raises(KeyError, match="unknown trace"):
            get_trace("sharegpt")

    def test_register_trace_direct(self):
        trace = ChatTraceConfig(name="tiny", input_median=10.0,
                                input_sigma=0.0, output_median=20.0,
                                output_sigma=0.0, min_input=1, min_output=1)
        register_trace("tiny-test-trace", trace)
        try:
            assert get_trace("tiny-test-trace") == trace
        finally:
            TRACE_REGISTRY.unregister("tiny-test-trace")


class TestBatchingPolicies:
    def test_three_disciplines_sorted(self):
        assert BATCHING_POLICIES == ("continuous", "no-batching", "static")

    def test_unknown_policy_rejected_at_the_spec(self):
        with pytest.raises(ValueError, match="unknown batching policy "
                           "'priority'; supported: continuous, "
                           "no-batching, static"):
            DeploymentSpec(batching="priority")

    @pytest.mark.parametrize("batching", ["static", "no-batching"])
    @pytest.mark.parametrize("section", [
        pytest.param(dict(replicas=2), id="replicas"),
        pytest.param(dict(autoscale=AutoscaleSpec()), id="autoscale"),
    ])
    def test_fleet_needs_continuous_batching(self, batching, section):
        # the cluster engine runs only continuous batching: such a spec
        # fails at construction, not once a cluster run starts
        with pytest.raises(ValueError, match="requires continuous batching"):
            DeploymentSpec(batching=batching, **section)

    @pytest.mark.parametrize("batching, knob, value", [
        ("static", "prefill_chunk_tokens", 16),
        ("static", "kv_budget_bytes", 1e6),
        ("no-batching", "prefill_chunk_tokens", 16),
        ("no-batching", "kv_budget_bytes", 1e6),
        ("no-batching", "max_batch", 4),
    ])
    def test_ignored_knob_rejected_at_the_spec(self, batching, knob, value):
        # the Fig. 2b loops never read these: a spec setting one would
        # report the same numbers as the defaults
        with pytest.raises(ValueError,
                           match=f"{batching} batching ignores {knob}="):
            DeploymentSpec(batching=batching, **{knob: value})


class TestExactRegistryNames:
    """A registry name has one spelling: an upper-cased one is unknown,
    at spec construction where the spec checks the name, else at the
    first lookup (chips and models: ``test_lookup_matches_names_exactly``
    here and in ``tests/test_models_zoo.py``)."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: DeploymentSpec(router="SLO-AWARE", replicas=2),
                     id="router"),
        pytest.param(lambda: DeploymentSpec(router="SLO-AWARE:128"),
                     id="parametric-router"),
        pytest.param(lambda: AutoscaleSpec(policy="QUEUE-DEPTH"),
                     id="autoscaler"),
        pytest.param(lambda: PrefixCacheSpec(eviction="LRU"), id="eviction"),
        pytest.param(lambda: get_trace("ULTRACHAT"), id="trace"),
        pytest.param(lambda: get_trace("FIXED-512x128"), id="fixed-trace"),
    ])
    def test_upper_cased_name_is_unknown(self, build):
        with pytest.raises(KeyError, match="unknown"):
            build()


# --------------------------------------------------------------------- #
# Spec serialization                                                     #
# --------------------------------------------------------------------- #

class TestSpecRoundTrip:
    def test_workload_round_trip(self):
        spec = WorkloadSpec(trace="fixed-256x64", rate_per_s=8.0,
                            num_requests=64, seed=3)
        clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_workload_with_inline_trace_round_trip(self):
        spec = WorkloadSpec(trace=ULTRACHAT_LIKE, rate_per_s=4.0,
                            num_requests=10, seed=1)
        clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert isinstance(clone.trace, ChatTraceConfig)

    def test_deployment_round_trip(self):
        spec = DeploymentSpec(chip="h100", model="llama3-70b",
                              num_devices=8, max_batch=64,
                              batching="static")
        clone = DeploymentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_deployment_with_custom_chip_round_trip(self):
        chip = get_chip("ador").with_updates(name="Custom ADOR", cores=16)
        spec = DeploymentSpec(chip=chip)
        clone = DeploymentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.chip == chip
        assert clone.chip_spec().cores == 16

    def test_every_builtin_chip_round_trips(self):
        for name in list_chips():
            spec = DeploymentSpec(chip=get_chip(name))
            data = json.loads(json.dumps(spec.to_dict()))
            assert DeploymentSpec.from_dict(data).chip == spec.chip, name

    def test_kv_budget_infinity_serializes_as_null(self):
        limits = DeploymentSpec(kv_budget_bytes=None).scheduler_limits()
        assert limits.kv_budget_bytes == float("inf")
        data = DeploymentSpec(kv_budget_bytes=None).to_dict()
        assert data["kv_budget_bytes"] is None

    def test_experiment_round_trip(self):
        experiment = Experiment(
            deployment=DeploymentSpec(chip="a100", max_batch=32),
            workload=WorkloadSpec(rate_per_s=3.0, num_requests=12, seed=9),
            max_sim_seconds=120.0,
        )
        clone = Experiment.from_dict(
            json.loads(json.dumps(experiment.to_dict())))
        assert clone == experiment

    def test_capacity_spec_round_trip(self):
        experiment = Experiment(
            deployment=DeploymentSpec(chip="ador"),
            workload=WorkloadSpec(num_requests=40, seed=9),
            capacity=CapacitySpec(slo_tbt_s=0.025, slo_ttft_s=0.5,
                                  iterations=4, rate_high=64.0),
        )
        clone = Experiment.from_dict(
            json.loads(json.dumps(experiment.to_dict())))
        assert clone == experiment

    def test_experiment_without_capacity_omits_the_key(self):
        experiment = Experiment(deployment=DeploymentSpec(),
                                workload=WorkloadSpec())
        assert "capacity" not in experiment.to_dict()

    def test_capacity_spec_validation(self):
        with pytest.raises(ValueError):
            CapacitySpec(slo_tbt_s=0.0)
        with pytest.raises(ValueError):
            CapacitySpec(rate_low=2.0, rate_high=1.0)
        with pytest.raises(ValueError, match="iterations"):
            CapacitySpec(iterations=-1)
        with pytest.raises(ValueError, match="percentile"):
            CapacitySpec(percentile="p90")
        with pytest.raises(ValueError):
            CapacitySpec.from_dict({"slo_tbt_s": 0.05, "typo": 1})

    def test_workload_validation(self):
        with pytest.raises(ValueError, match="arrival"):
            WorkloadSpec(arrival="bursty")
        with pytest.raises(ValueError, match="rate"):
            WorkloadSpec(rate_per_s=0.0)
        with pytest.raises(ValueError, match="num_requests"):
            WorkloadSpec(num_requests=0)

    def test_deployment_validation(self):
        with pytest.raises(ValueError, match="num_devices"):
            DeploymentSpec(num_devices=0)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_router_resolves_at_every_fleet_size(self, replicas):
        # a single endpoint never builds a router, so the spec checks
        # the name itself instead of letting replicas=1 ignore a typo
        with pytest.raises(KeyError, match="no-such-router"):
            DeploymentSpec(router="no-such-router", replicas=replicas)
        with pytest.raises(ValueError, match="short_input_tokens"):
            DeploymentSpec(router="slo-aware:0", replicas=replicas)
        assert DeploymentSpec(router="slo-aware:64",
                              replicas=replicas).router == "slo-aware:64"

    def test_router_instance_rejected(self):
        # an instance cannot be serialized and would carry its state
        # from one simulate() of the spec into the next
        from repro.cluster.router import RoundRobinRouter

        with pytest.raises(ValueError, match="registry name"):
            DeploymentSpec(replicas=3, router=RoundRobinRouter())

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_non_positive_kv_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="kv_budget_bytes"):
            DeploymentSpec(kv_budget_bytes=budget)
        with pytest.raises(ValueError, match="kv_budget_bytes"):
            ReplicaGroupSpec(kv_budget_bytes=budget)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown workload field"):
            WorkloadSpec.from_dict({"rate": 99.0})
        with pytest.raises(ValueError, match="unknown deployment field"):
            DeploymentSpec.from_dict({"chp": "h100"})
        with pytest.raises(ValueError, match="unknown experiment field"):
            Experiment.from_dict({"deploy": {}})

    def test_from_dict_rejects_non_object_sections(self):
        with pytest.raises(ValueError, match="JSON object"):
            Experiment.from_dict({"workload": "ultrachat"})
        with pytest.raises(ValueError, match="JSON object"):
            DeploymentSpec.from_dict([1, 2])

    def test_infinite_kv_budget_canonicalizes_and_round_trips(self):
        spec = DeploymentSpec(kv_budget_bytes=float("inf"))
        assert spec.kv_budget_bytes is None
        assert spec == DeploymentSpec(kv_budget_bytes=None)
        clone = DeploymentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.scheduler_limits().kv_budget_bytes == float("inf")


# --------------------------------------------------------------------- #
# The simulate() facade                                                  #
# --------------------------------------------------------------------- #

class TestSimulate:
    def test_matches_hand_wired_engine(self):
        """The facade must agree with the six-object chain it replaced."""
        workload = WorkloadSpec(trace="ultrachat", rate_per_s=5.0,
                                num_requests=30, seed=7)
        report = simulate(DeploymentSpec(chip="ador", model="llama3-8b",
                                         max_batch=256), workload)

        chip = get_chip("ador")
        model = get_model("llama3-8b")
        device = device_model_for(chip)
        requests = list(iter_poisson_requests(ULTRACHAT_LIKE, 5.0, 7, 30))
        engine = ServingEngine(device, model,
                               SchedulerLimits(max_batch=256))
        result = engine.run(requests)
        qos = compute_qos(result.finished, result.total_time_s)

        assert report.qos == qos
        assert report.result.total_time_s == result.total_time_s
        assert report.result.iterations == result.iterations
        assert len(report.result.finished) == len(result.finished)

    def test_report_bundles_all_sections(self):
        report = simulate(DeploymentSpec(), WorkloadSpec(rate_per_s=5.0,
                                                         num_requests=20))
        assert report.qos.request_count == len(report.result.finished)
        assert 0.0 < report.utilization.busy_fraction <= 1.0
        summary = report.summary()
        assert "TTFT" in summary and "tokens/s" in summary

    def test_same_seed_is_deterministic(self):
        deployment = DeploymentSpec(max_batch=64)
        workload = WorkloadSpec(rate_per_s=5.0, num_requests=20, seed=42)
        assert simulate(deployment, workload).qos == \
            simulate(deployment, workload).qos

    def test_overload_raises(self):
        # one request arriving after a tiny horizon: nothing can finish
        deployment = DeploymentSpec()
        workload = WorkloadSpec(trace="fixed-4096x2048", rate_per_s=0.001,
                                num_requests=1, seed=0)
        with pytest.raises(EndpointOverloaded):
            simulate(deployment, workload, max_sim_seconds=0.001)


class TestFindCapacity:
    CAPACITY = CapacitySpec(slo_tbt_s=0.050, iterations=3,
                            rate_low=0.5, rate_high=64.0)

    def test_facade_matches_direct_search(self):
        from repro.serving.capacity import max_capacity_under_slo

        deployment = DeploymentSpec(chip="ador", model="llama3-8b")
        workload = WorkloadSpec(num_requests=40, seed=7)
        report = find_capacity(deployment, workload, self.CAPACITY,
                               max_sim_seconds=300.0)
        direct = max_capacity_under_slo(
            device_model_for(get_chip("ador")), get_model("llama3-8b"),
            ULTRACHAT_LIKE, slo_tbt_s=0.050, request_count=40, seed=7,
            rate_bounds=(0.5, 64.0), iterations=3, max_sim_seconds=300.0)
        assert isinstance(report, CapacityReport)
        assert report.capacity.max_requests_per_s == direct.max_requests_per_s
        assert report.qos == direct.qos_at_max
        assert "max sustainable rate" in report.summary()

    def test_slo_override_kwargs(self):
        deployment = DeploymentSpec(chip="ador")
        workload = WorkloadSpec(num_requests=40, seed=7)
        relaxed = find_capacity(deployment, workload, self.CAPACITY,
                                max_sim_seconds=300.0)
        strict = find_capacity(deployment, workload, self.CAPACITY,
                               max_sim_seconds=300.0, slo_tbt_s=0.02)
        assert strict.capacity_spec.slo_tbt_s == 0.02
        assert strict.capacity.max_requests_per_s \
            <= relaxed.capacity.max_requests_per_s

    def test_rate_and_fleet_summaries_name_the_slo_alike(self):
        capacity = CapacitySpec(slo_tbt_s=0.050, slo_ttft_s=2.0,
                                percentile="p99", iterations=3,
                                rate_low=0.5, rate_high=64.0)
        rate = find_capacity(DeploymentSpec(chip="ador"),
                             WorkloadSpec(num_requests=40, seed=7),
                             capacity, max_sim_seconds=300.0)
        one_ador = FleetSpec(groups=(
            ReplicaGroupSpec(chip="ador", count=1, max_count=1),))
        fleet = find_capacity(DeploymentSpec(fleet=one_ador),
                              WorkloadSpec(rate_per_s=2.0, num_requests=20,
                                           seed=7),
                              capacity, max_sim_seconds=300.0)
        assert isinstance(rate, CapacityReport)
        assert isinstance(fleet, FleetCapacityReport)
        label = "TBT p99 <= 50 ms, TTFT <= 2000 ms, "
        assert label in rate.summary_lines()[0]
        assert label in fleet.summary_lines()[0]

    def test_rejects_multi_replica_deployments(self):
        with pytest.raises(ValueError, match="single endpoint"):
            find_capacity(DeploymentSpec(replicas=2), WorkloadSpec(),
                          self.CAPACITY)

    def test_rejects_non_continuous_batching(self):
        with pytest.raises(ValueError, match="continuous batching"):
            find_capacity(DeploymentSpec(batching="static"),
                          WorkloadSpec(), self.CAPACITY)

    @pytest.mark.parametrize("knob, value", [
        ("max_batch", 8),
        ("prefill_chunk_tokens", 64),
        ("kv_budget_bytes", 2e9),
    ])
    def test_rejects_endpoint_knobs_it_would_ignore(self, knob, value):
        # the search derives its admission limits from memory (Fig. 16),
        # so it used to ignore these knobs silently
        with pytest.raises(ValueError, match=f"{knob}={value!r}"):
            find_capacity(DeploymentSpec(**{knob: value}),
                          WorkloadSpec(num_requests=40, seed=7),
                          self.CAPACITY, max_sim_seconds=300.0)

    def test_accepts_endpoint_knobs_spelt_out_at_their_defaults(self):
        workload = WorkloadSpec(trace="fixed-64x16", num_requests=20,
                                seed=1)
        capacity = CapacitySpec(iterations=2, rate_low=0.5, rate_high=8.0)
        spelt = find_capacity(
            DeploymentSpec(max_batch=256, prefill_chunk_tokens=512,
                           kv_budget_bytes=float("inf")),
            workload, capacity)
        plain = find_capacity(DeploymentSpec(), workload, capacity)
        assert spelt.capacity == plain.capacity

    def test_rejects_context_bucket_without_sim_cache(self):
        # the capacity path must not silently drop the bucket the way
        # _device_for's guard prevents for fixed-rate simulations
        with pytest.raises(ValueError, match="context_bucket"):
            find_capacity(DeploymentSpec(), WorkloadSpec(num_requests=4),
                          self.CAPACITY, sim_cache=False,
                          context_bucket=32)

    def test_run_experiment_dispatches_to_capacity(self):
        experiment = Experiment(
            deployment=DeploymentSpec(chip="ador"),
            workload=WorkloadSpec(num_requests=40, seed=7),
            capacity=self.CAPACITY,
            max_sim_seconds=300.0,
        )
        report = run_experiment(experiment)
        assert isinstance(report, CapacityReport)
        assert report.capacity.max_requests_per_s > 0.0

    def test_committed_capacity_experiment_loads(self):
        import pathlib
        sample = pathlib.Path(__file__).parent.parent \
            / "experiments" / "capacity_ador_8b.json"
        experiment = load_experiment(sample)
        assert experiment.capacity is not None
        assert experiment.capacity.slo_tbt_s == pytest.approx(0.050)


class TestExperimentFiles:
    def test_save_load_run_identical_report(self, tmp_path):
        """Acceptance: build in Python, serialize, reload -> same report."""
        experiment = Experiment(
            deployment=DeploymentSpec(chip="ador", max_batch=128),
            workload=WorkloadSpec(rate_per_s=5.0, num_requests=25, seed=13),
        )
        direct = run_experiment(experiment)

        path = save_experiment(experiment, tmp_path / "experiment.json")
        loaded = load_experiment(path)
        assert loaded == experiment

        replayed = run_experiment(path)
        assert replayed.qos == direct.qos
        assert replayed.utilization == direct.utilization
        assert replayed.result.total_time_s == direct.result.total_time_s

    def test_rejects_non_object_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_experiment(path)

    def test_committed_sample_experiment_loads(self):
        import pathlib
        sample = pathlib.Path(__file__).parent.parent \
            / "experiments" / "ultrachat_ador.json"
        experiment = load_experiment(sample)
        assert experiment.deployment.chip == "ador"
        assert experiment.workload.seed == 7


# --------------------------------------------------------------------- #
# Engine horizon clamp (regression)                                      #
# --------------------------------------------------------------------- #

class TestEngineHorizonClamp:
    def test_late_arrival_does_not_inflate_total_time(self):
        from repro.serving.request import Request

        device = device_model_for(get_chip("ador"))
        model = get_model("llama3-8b")
        engine = ServingEngine(device, model, SchedulerLimits(max_batch=8))
        requests = [
            Request(request_id=0, arrival_time=0.0, input_tokens=64,
                    output_tokens=4),
            # arrives far beyond the horizon: must not stretch the clock
            Request(request_id=1, arrival_time=500.0, input_tokens=64,
                    output_tokens=4),
        ]
        result = engine.run(requests, max_sim_seconds=10.0)
        assert result.total_time_s <= 10.0
        assert len(result.finished) == 1
        assert len(result.unfinished) == 1


# --------------------------------------------------------------------- #
# Autoscale specs through the declarative surface                        #
# --------------------------------------------------------------------- #

class TestAutoscaleSpecApi:
    def test_autoscale_spec_round_trip(self):
        spec = AutoscaleSpec(policy="slo-attainment", min_replicas=2,
                             max_replicas=12, decision_interval_s=0.5,
                             provision_latency_s=20.0, warm_pool_size=3,
                             warm_provision_s=1.5)
        clone = AutoscaleSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_deployment_with_autoscale_round_trips(self):
        spec = DeploymentSpec(chip="ador", replicas=2,
                              router="least-outstanding",
                              autoscale=AutoscaleSpec(max_replicas=6))
        clone = DeploymentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.autoscale == spec.autoscale

    def test_experiment_with_autoscale_round_trips(self):
        experiment = Experiment(
            deployment=DeploymentSpec(
                chip="ador", replicas=1,
                autoscale=AutoscaleSpec(policy="queue-depth",
                                        warm_pool_size=2,
                                        warm_provision_s=0.5)),
            workload=WorkloadSpec(rate_per_s=30.0, num_requests=60,
                                  seed=3),
        )
        clone = Experiment.from_dict(
            json.loads(json.dumps(experiment.to_dict())))
        assert clone == experiment

    def test_old_deployment_dicts_default_to_no_autoscale(self):
        spec = DeploymentSpec.from_dict({"chip": "ador", "replicas": 2})
        assert spec.autoscale is None
        assert spec.to_dict()["autoscale"] is None

    def test_unknown_autoscale_field_rejected(self):
        with pytest.raises(ValueError, match="unknown autoscale field"):
            AutoscaleSpec.from_dict({"policy": "queue-depth",
                                     "max_replicass": 4})

    def test_unknown_policy_rejected_at_the_spec(self):
        # fails here, not once a cluster engine is built
        with pytest.raises(KeyError, match="unknown autoscaler policy"):
            AutoscaleSpec(policy="bogus")
        with pytest.raises(KeyError, match="unknown autoscaler policy"):
            DeploymentSpec.from_dict({"autoscale": {"policy": "bogus"}})

    def test_autoscale_section_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            DeploymentSpec.from_dict({"chip": "ador",
                                      "autoscale": "queue-depth"})

    def test_initial_replicas_validated_against_range(self):
        with pytest.raises(ValueError, match="autoscale range"):
            DeploymentSpec(replicas=9, autoscale=AutoscaleSpec(
                max_replicas=4))
        with pytest.raises(ValueError, match="autoscale range"):
            DeploymentSpec(replicas=1, autoscale=AutoscaleSpec(
                min_replicas=2))

    def test_simulate_dispatches_on_autoscale_even_single_replica(self):
        report = simulate(
            DeploymentSpec(chip="ador", replicas=1,
                           autoscale=AutoscaleSpec(
                               max_replicas=4, decision_interval_s=1.0,
                               provision_latency_s=2.0)),
            WorkloadSpec(rate_per_s=30.0, num_requests=80, seed=7))
        assert isinstance(report, ClusterReport)
        assert report.autoscale is not None
        assert report.autoscale.peak_replicas >= 2
        assert "autoscaler" in report.summary()
        assert "replica-seconds" in report.summary()

    def test_autoscaled_simulation_is_reproducible(self):
        deployment = DeploymentSpec(
            chip="ador", replicas=1,
            autoscale=AutoscaleSpec(max_replicas=4,
                                    decision_interval_s=1.0,
                                    provision_latency_s=2.0))
        workload = WorkloadSpec(rate_per_s=30.0, num_requests=80, seed=7)
        first = simulate(deployment, workload)
        second = simulate(deployment, workload)
        assert first.qos == second.qos
        assert first.autoscale == second.autoscale

    def test_find_capacity_rejects_autoscaled_deployments(self):
        with pytest.raises(ValueError, match="autoscale"):
            find_capacity(
                DeploymentSpec(chip="ador",
                               autoscale=AutoscaleSpec()),
                WorkloadSpec(num_requests=10))
