"""The benchmark's workloads: how each one is built, run and fingerprinted.

Knobs live in ``workloads.json`` next to this file.  An *operation* is
what one timed repetition runs through the public API: arrival
generation, simulation and the report.  Each operation builds its own
device model, so every repetition starts with a cold
``CachedDeviceModel`` exactly as ``simulate()`` users do.

The command-line seed picks an input *slot* (``seed % seed_period``) of
the fleet workloads; the capacity study's inputs are fixed, so it has
one slot.  ``golden.json`` holds the simulated-output fingerprint
recorded for every slot, so every operation of every run is checked
against it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass

from repro import api
from repro.cluster.report import ClusterResult
from repro.core import scheduling
from repro.hardware import presets
from repro.models import zoo
from repro.perf import cache as perf_cache
from repro.serving import capacity, generator, stream, traces
from repro.serving.qos import QoSReport

HERE = pathlib.Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
GOLDEN_PATH = HERE / "golden.json"
SEED_PERIOD = CONFIG["seed_period"]

_QOS_FIELDS = tuple(f.name for f in dataclasses.fields(QoSReport))


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _qos_tuple(qos: QoSReport | None) -> tuple | None:
    if qos is None:
        return None
    return tuple(getattr(qos, name) for name in _QOS_FIELDS)


def qos_lines(qos: QoSReport) -> list[str]:
    """The simulated QoS, in simulated seconds."""
    return [
        f"simulated TTFT p50/p99 {qos.ttft_p50_s:.4f} / "
        f"{qos.ttft_p99_s:.4f} s, TBT p50/p99 {qos.tbt_p50_s:.5f} / "
        f"{qos.tbt_p99_s:.5f} s, E2E mean {qos.e2e_mean_s:.3f} s",
        f"simulated throughput {qos.tokens_per_s:.1f} tokens/s, "
        f"{qos.requests_per_s:.3f} req/s over {qos.request_count} "
        f"finished requests ({qos.failed_requests} failed)",
    ]


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks need."""

    #: simulated output tokens credited to sim_tokens_per_wall_s
    sim_tokens: int
    #: sha256 over every simulated output the benchmark pins
    fingerprint: str
    summary: list[str]
    #: work conservation held (finished + unfinished + failed == generated)
    conserved: bool = True
    #: requests the workload generated / requests the report accounts for
    generated: int = 0
    accounted: int = 0
    cluster: ClusterResult | None = None
    capacity: list | None = None


def _cluster_outcome(cluster: ClusterResult, qos: QoSReport,
                     generated: int) -> Outcome:
    merged = cluster.merged
    failed = cluster.faults.failed if cluster.faults is not None else ()
    accounted = len(merged.finished) + len(merged.unfinished) + len(failed)
    faults = None
    if cluster.faults is not None:
        trace = cluster.faults
        faults = (trace.records, trace.retries,
                  tuple(r.request_id for r in trace.failed),
                  trace.downtime_by_replica)
    parts = (
        _qos_tuple(qos),
        merged.total_time_s, merged.iterations, merged.decode_steps,
        merged.busy_time_s, merged.decode_time_s, merged.prefill_time_s,
        merged.generated_tokens, len(merged.finished),
        len(merged.unfinished), len(failed),
        cluster.load.requests_per_replica,
        dataclasses.astuple(merged.prefix_cache)
        if merged.prefix_cache is not None else None,
        cluster.autoscale,
        faults,
    )
    return Outcome(
        sim_tokens=merged.generated_tokens,
        fingerprint=_digest(parts),
        conserved=accounted == generated,
        generated=generated,
        accounted=accounted,
        summary=qos_lines(qos),
        cluster=cluster,
    )


class Workload:
    """One named workload: configuration plus the operation it times."""

    #: input slots a command-line seed can select
    slots = SEED_PERIOD

    def __init__(self, name: str) -> None:
        self.name = name
        self.config = CONFIG["workloads"][name]

    def slot(self, seed: int) -> int:
        """The recorded input set a command-line seed selects."""
        return seed % self.slots

    def prepare(self, seed: int):
        """Per-seed inputs built once per run, outside the timed region."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Set-up up to the first simulated request (the setup_s probe)."""
        raise NotImplementedError

    def run(self, inputs):
        """One timed operation: arrival generation, simulation, report."""
        raise NotImplementedError

    def outcome(self, inputs, raw) -> Outcome:
        """Reduce what :meth:`run` returned for the checks (untimed)."""
        raise NotImplementedError


class ClusterWorkload(Workload):
    """Fixed fleets served through ``repro.api.simulate``."""

    def prepare(self, seed: int):
        deployment = api.DeploymentSpec.from_dict(self.config["deployment"])
        workload = api.WorkloadSpec.from_dict(
            dict(self.config["workload"], seed=self.slot(seed)))
        generated = sum(1 for _ in workload.iter_requests())
        return deployment, workload, generated

    def setup(self, seed: int) -> None:
        deployment = api.DeploymentSpec.from_dict(self.config["deployment"])
        workload = api.WorkloadSpec.from_dict(
            dict(self.config["workload"], seed=self.slot(seed)))
        api.build_cluster_engine(deployment)
        workload.request_stream()[0]

    def run(self, inputs):
        deployment, workload, _ = inputs
        report = api.simulate(deployment, workload,
                              max_sim_seconds=self.config["max_sim_seconds"])
        return report.cluster, report.qos

    def outcome(self, inputs, raw) -> Outcome:
        return _cluster_outcome(*raw, generated=inputs[2])


class ElasticWorkload(Workload):
    """An autoscaled, fault-injected fleet fed a streamed on/off trace
    (on/off arrivals have no ``WorkloadSpec`` spelling, so the engine is
    driven directly)."""

    def _deployment(self, seed: int):
        deployment = api.DeploymentSpec.from_dict(self.config["deployment"])
        faults = dataclasses.replace(deployment.faults, seed=self.slot(seed))
        return dataclasses.replace(deployment, faults=faults)

    def _arrivals(self, seed: int):
        knobs = self.config["arrivals"]
        return stream.as_stream(generator.iter_onoff_requests(
            traces.get_trace(knobs["trace"]), knobs["on_rate_per_s"],
            knobs["off_rate_per_s"], knobs["phase_seconds"], self.slot(seed),
            knobs["num_requests"]))

    def prepare(self, seed: int):
        return self._deployment(seed), seed, \
            self.config["arrivals"]["num_requests"]

    def setup(self, seed: int) -> None:
        api.build_cluster_engine(self._deployment(seed))
        self._arrivals(seed)[0]

    def run(self, inputs):
        deployment, seed, _ = inputs
        engine = api.build_cluster_engine(deployment)
        cluster = engine.run(self._arrivals(seed),
                             max_sim_seconds=self.config["max_sim_seconds"])
        return cluster, cluster.qos()

    def outcome(self, inputs, raw) -> Outcome:
        return _cluster_outcome(*raw, generated=inputs[2])


class CapacityWorkload(Workload):
    """The Fig. 16 study: one capacity search per scenario, all sharing
    one fresh memoized device.  Its inputs ignore the command-line seed
    (see its "note" in workloads.json), so it has one input slot."""

    slots = 1

    def _device(self):
        return perf_cache.CachedDeviceModel(
            scheduling.AdorDeviceModel(presets.ador_table3()))

    def prepare(self, seed: int):
        knobs = dict(self.config["search"])
        knobs["rate_bounds"] = tuple(knobs["rate_bounds"])
        return knobs

    def setup(self, seed: int) -> None:
        knobs = self.prepare(seed)
        self._device()
        for scenario in self.config["scenarios"]:
            zoo.get_model(scenario["model"])
        template = generator.PoissonArrivalTemplate(
            traces.get_trace(self.config["trace"]), knobs["request_count"],
            self.config["arrival_seed"])
        template.requests_at(knobs["rate_bounds"][1])[0]

    def run(self, knobs):
        device = self._device()
        trace = traces.get_trace(self.config["trace"])
        return [
            capacity.max_capacity_under_slo(
                device, zoo.get_model(scenario["model"]), trace,
                slo_tbt_s=scenario["slo_tbt_s"],
                num_devices=scenario["num_devices"],
                seed=self.config["arrival_seed"], **knobs)
            for scenario in self.config["scenarios"]]

    def outcome(self, inputs, raw) -> Outcome:
        parts = []
        tokens = 0
        for result in raw:
            parts.append((
                result.max_requests_per_s, _qos_tuple(result.qos_at_max),
                tuple((p.rate, p.feasible, _qos_tuple(p.qos), p.finished,
                       p.total_time_s, p.aborted) for p in result.probes),
                result.simulations))
            # the tokens the study delivers: the simulation at the found
            # rate.  Probe tokens would fall whenever early abort skips
            # more work, which is a speed-up, not a loss.
            for probe in result.probes:
                if probe.rate == result.max_requests_per_s:
                    tokens += round(result.qos_at_max.tokens_per_s
                                    * probe.total_time_s)
                    break
        summary = [
            f"{scenario['model']} x{scenario['num_devices']} "
            f"{scenario['slo']} (TBT SLO {scenario['slo_tbt_s']} s): "
            f"capacity {result.max_requests_per_s:.4f} req/s, simulated "
            f"TBT p95 at capacity {result.qos_at_max.tbt_p95_s:.5f} s"
            for scenario, result in zip(self.config["scenarios"], raw)]
        # CapacityResult keeps no per-probe unfinished count, so request
        # conservation cannot be checked here; each probe's finished count
        # is pinned by the fingerprint instead.
        return Outcome(
            sim_tokens=tokens,
            fingerprint=_digest(tuple(parts)),
            summary=summary,
            capacity=raw,
        )


_KINDS = {"cluster": ClusterWorkload, "elastic": ElasticWorkload,
          "capacity": CapacityWorkload}

NAMES = tuple(CONFIG["workloads"])


def get(name: str) -> Workload:
    if name not in CONFIG["workloads"]:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    return _KINDS[CONFIG["workloads"][name]["kind"]](name)


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())
