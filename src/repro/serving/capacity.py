"""Maximum capacity under an SLO (paper Fig. 16).

Searches for the highest Poisson arrival rate at which the simulated
endpoint still meets its TBT (and optionally TTFT) SLO.  The paper's
headline: the ADOR design sustains ~23 requests/sec serving LLaMA3-8B
under a relaxed SLO on one device.

One capacity point costs a dozen saturated serving simulations, and a
capacity-vs-SLO or capacity-vs-design sweep multiplies that, so the
search is engineered to waste none of them.  Four coordinated
optimizations returning **identical found rates** to the sequential
reference search (:func:`reference_capacity_search`) — the first,
second and fourth exactly by construction, the early-abort by a
strictly-conservative heuristic whose per-probe verdict parity is
machine-checked (``early_abort="verify"``) and committed at 100% by
``benchmarks/bench_capacity_speed.py``:

* **probe caching + lazy endpoints** — every probe outcome is cached by
  rate, so the final best-rate re-simulation and the bracket-endpoint
  checks reuse work instead of repeating it.  The low endpoint (the
  single most expensive probe: its horizon scales as ``1/rate``) is
  only simulated when no midpoint was feasible — by bracketing
  monotonicity its verdict is implied otherwise.
* **request-set reuse** — the workload is generated once
  (:class:`~repro.serving.generator.PoissonArrivalTemplate`) and the
  inter-arrival gaps are rescaled per probed rate, draw-for-draw
  bit-identical to per-probe regeneration with the same seed, with
  common-random-numbers variance reduction for free.
* **saturation early-abort** — clearly saturated probes are cut short
  by an online :class:`~repro.serving.engine.InstabilityMonitor`; the
  abort condition strictly implies the full run would fail the final
  stability check, and ``early_abort="verify"`` proves the verdict
  parity per probe by also running the full simulation.
* **shared device cache** — probes share one memoized
  :class:`~repro.perf.cache.CachedDeviceModel` (arrival reuse makes the
  same decode contexts recur across probes); pass the same cached
  device to every search of a study to keep it warm across searches.

The search runs in one process: probes are sequential bisection steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.kv_cache import max_batch_for_memory
from repro.perf.baselines import DeviceModel
from repro.perf.cache import CachedDeviceModel
from repro.serving.dataset import ChatTraceConfig
from repro.serving.engine import (
    InstabilityMonitor,
    ServingEngine,
    SimulationResult,
    ttft_is_stable,
)
from repro.serving.generator import PoissonArrivalTemplate
from repro.serving.qos import QoSReport, compute_qos
from repro.serving.scheduler import SchedulerLimits

#: the QoS percentiles an SLO can be judged at
_PERCENTILES = ("mean", "p50", "p95", "p99")


def check_search_inputs(slo_tbt_s: float, slo_ttft_s: float | None,
                        percentile: str, rate_bounds: tuple[float, float],
                        iterations: int) -> None:
    """Reject an SLO or search bracket no capacity search can answer.

    :class:`~repro.api.specs.CapacitySpec`, :func:`max_capacity_under_slo`
    and :func:`reference_capacity_search` all call this before any
    simulation runs.
    """
    if not slo_tbt_s > 0:
        raise ValueError("slo_tbt_s must be positive")
    if slo_ttft_s is not None and not slo_ttft_s > 0:
        raise ValueError("slo_ttft_s must be positive")
    if percentile not in _PERCENTILES:
        raise ValueError(
            f"unknown percentile {percentile!r}; "
            f"supported: {', '.join(_PERCENTILES)}")
    low, high = rate_bounds
    if not 0 < low < high:
        raise ValueError("need 0 < rate_low < rate_high")
    if not high < float("inf"):
        # an infinite rate puts every probe arrival at t=0: the search
        # would report "inf req/s" after one probe
        raise ValueError(f"rate_high must be finite, got {high!r}")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")


class EndpointUnservable(RuntimeError):
    """The endpoint cannot finish a single request even at the minimum
    probed rate — there is no capacity to report.  Subclasses
    ``RuntimeError`` for backward compatibility, but callers (e.g. the
    CLI) should catch this type so infrastructure failures that also
    raise ``RuntimeError`` are not mislabeled as a capacity verdict."""


@dataclass(frozen=True)
class ProbeOutcome:
    """Outcome of one capacity probe (one simulated arrival rate)."""

    rate: float
    feasible: bool
    qos: QoSReport | None
    finished: int
    total_time_s: float
    #: the InstabilityMonitor cut this probe short
    aborted: bool = False
    #: only set under ``early_abort="verify"`` on aborted probes: did the
    #: full simulation reach the same feasibility verdict?
    abort_verdict_matches: bool | None = None


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a capacity search."""

    max_requests_per_s: float
    qos_at_max: QoSReport
    probes: tuple[ProbeOutcome, ...]
    #: serving simulations actually run (probe cache hits excluded)
    simulations: int = 0


def _scheduler_limits(device: DeviceModel, model: ModelConfig,
                      trace: ChatTraceConfig,
                      num_devices: int) -> SchedulerLimits:
    kv_budget = device.chip.dram.size_bytes * num_devices * 0.9 \
        - model.param_bytes
    return SchedulerLimits(
        max_batch=max(1, max_batch_for_memory(
            model, int(trace.mean_input + trace.mean_output),
            device.chip.dram.size_bytes, num_devices)),
        prefill_chunk_tokens=512,
        kv_budget_bytes=max(kv_budget, 1.0),
    )


def _simulate_rate(
    device: DeviceModel,
    model: ModelConfig,
    workload: PoissonArrivalTemplate,
    rate: float,
    num_devices: int,
    max_sim_seconds: float,
    monitor: InstabilityMonitor | None = None,
) -> tuple[SimulationResult, QoSReport | None]:
    requests = workload.requests_at(rate)
    # the horizon must cover the arrival span plus a generous drain
    max_sim_seconds = max(max_sim_seconds,
                          1.5 * workload.count / rate + 120.0)
    limits = _scheduler_limits(device, model, workload.trace, num_devices)
    engine = ServingEngine(device, model, limits, num_devices)
    result = engine.run(requests, max_sim_seconds=max_sim_seconds,
                        monitor=monitor)
    if not result.finished:
        return result, None
    return result, compute_qos(result.finished, result.total_time_s)


def meets_slo(result: SimulationResult, qos: QoSReport | None,
              request_count: int, slo_tbt_s: float,
              slo_ttft_s: float | None, percentile: str) -> bool:
    """Did one probe run meet the SLO?

    The verdict every capacity search judges a probe by, the rate
    searches here and the fleet search of
    :func:`repro.api.find_fleet_capacity` alike: at least 90% of the
    ``request_count`` requests finished in-horizon, TTFT stayed stable
    (:func:`~repro.serving.engine.ttft_is_stable`), and the TBT (plus
    optional TTFT) SLO holds at ``percentile``.
    """
    if qos is None:
        return False
    # the system must actually keep up: most requests finish in-horizon
    if len(result.finished) < 0.9 * request_count:
        return False
    if not ttft_is_stable(result.finished):
        return False
    if not qos.meets_tbt_slo(slo_tbt_s, percentile):
        return False
    if slo_ttft_s is not None and not qos.meets_ttft_slo(slo_ttft_s, percentile):
        return False
    return True


# --------------------------------------------------------------------- #
# The search                                                             #
# --------------------------------------------------------------------- #

class _ProbeRunner:
    """Runs, caches and records the probes of one capacity search.

    Every probe rescales the one arrival template the runner holds.
    """

    def __init__(self, device: DeviceModel, model: ModelConfig,
                 workload: PoissonArrivalTemplate, num_devices: int,
                 max_sim_seconds: float, slo_tbt_s: float,
                 slo_ttft_s: float | None, percentile: str,
                 early_abort: bool | str) -> None:
        self.device = device
        self.model = model
        self.workload = workload
        self.num_devices = num_devices
        self.max_sim_seconds = max_sim_seconds
        self.slo = (slo_tbt_s, slo_ttft_s, percentile)
        self.early_abort = early_abort
        self.outcomes: dict[float, ProbeOutcome] = {}
        self.simulations = 0

    def _simulate(self, rate: float, monitor: InstabilityMonitor | None = None
                  ) -> tuple[SimulationResult, QoSReport | None]:
        self.simulations += 1
        return _simulate_rate(self.device, self.model, self.workload, rate,
                              self.num_devices, self.max_sim_seconds,
                              monitor)

    def _feasible(self, result: SimulationResult,
                  qos: QoSReport | None) -> bool:
        return meets_slo(result, qos, self.workload.count, *self.slo)

    def probe(self, rate: float) -> ProbeOutcome:
        """Simulate one rate (once: outcomes are cached by rate), judge
        feasibility, and under ``"verify"`` check an abort's verdict."""
        cached = self.outcomes.get(rate)
        if cached is not None:
            return cached
        monitor = InstabilityMonitor(self.workload.count) \
            if self.early_abort else None
        result, qos = self._simulate(rate, monitor)
        feasible = self._feasible(result, qos)
        parity = None
        if self.early_abort == "verify" and result.saturated:
            full, full_qos = self._simulate(rate)
            parity = self._feasible(full, full_qos) == feasible
        outcome = ProbeOutcome(
            rate=rate,
            feasible=feasible,
            qos=qos,
            finished=len(result.finished),
            total_time_s=result.total_time_s,
            aborted=result.saturated,
            abort_verdict_matches=parity,
        )
        self.outcomes[rate] = outcome
        return outcome

    def full_qos(self, rate: float) -> QoSReport:
        """The full-run QoS of a *feasible* probed rate.

        Feasible probes are never aborted (the abort condition implies
        infeasibility), so the cached outcome already holds the QoS the
        pre-optimization search recomputed with a final simulation.
        """
        outcome = self.outcomes[rate]
        assert outcome.qos is not None and not outcome.aborted
        return outcome.qos

    def full_outcome(self, rate: float) -> QoSReport | None:
        """Full-run QoS of any rate, re-simulating if the probe aborted."""
        outcome = self.outcomes.get(rate)
        if outcome is not None and not outcome.aborted:
            return outcome.qos
        return self._simulate(rate)[1]


def max_capacity_under_slo(
    device: DeviceModel,
    model: ModelConfig,
    trace: ChatTraceConfig,
    slo_tbt_s: float,
    slo_ttft_s: float | None = None,
    num_devices: int = 1,
    request_count: int = 200,
    seed: int = 7,
    percentile: str = "p95",
    rate_bounds: tuple = (0.25, 256.0),
    iterations: int = 9,
    max_sim_seconds: float = 600.0,
    *,
    early_abort: bool | str = True,
    sim_cache: bool = True,
    reuse_arrivals: bool = True,
    parallel_probes: int = 1,
) -> CapacityResult:
    """Binary search for the highest SLO-compliant arrival rate.

    The search brackets on (low = feasible, high = infeasible) and
    reports the last feasible probe with its QoS.  Every probe rescales
    one workload template drawn up front (bit-identical draws, see
    :class:`~repro.serving.generator.PoissonArrivalTemplate`).  The
    knobs change how fast the verdicts are reached, not which rate is
    found:

    * ``early_abort`` — cut clearly saturated probes short.  Conservative
      (an abort implies the truncated prefix already fails the final
      stability check) but heuristic with respect to the full
      simulation: ``"verify"`` additionally runs the full simulation per
      aborted probe and records the verdict parity on each
      :class:`ProbeOutcome` (the committed benches record 100%);
    * ``sim_cache`` — wrap ``device`` in a
      :class:`~repro.perf.cache.CachedDeviceModel` (exact memoization)
      unless it already is one.

    ``reuse_arrivals`` and ``parallel_probes`` are retired: arrival
    reuse is always on and probes run one at a time, so each is accepted
    only at that value (``True`` and ``1``) and any other raises
    ``ValueError``.
    """
    check_search_inputs(slo_tbt_s, slo_ttft_s, percentile, rate_bounds,
                        iterations)
    if reuse_arrivals is not True:
        raise ValueError("reuse_arrivals is retired: every capacity "
                         "search reuses one arrival template")
    if parallel_probes != 1:
        raise ValueError("parallel_probes is retired: the capacity "
                         "search probes one rate at a time")
    if sim_cache and not isinstance(device, CachedDeviceModel):
        device = CachedDeviceModel(device)
    runner = _ProbeRunner(
        device, model, PoissonArrivalTemplate(trace, request_count, seed),
        num_devices, max_sim_seconds, slo_tbt_s, slo_ttft_s, percentile,
        early_abort)

    def result(rate: float, qos: QoSReport) -> CapacityResult:
        return CapacityResult(rate, qos, tuple(runner.outcomes.values()),
                              runner.simulations)

    low, high = rate_bounds
    if runner.probe(high).feasible:
        return result(high, runner.full_qos(high))

    # Bisection.  The low endpoint is NOT probed up front: if any
    # midpoint turns out feasible, bracketing monotonicity makes the
    # low verdict irrelevant, and the low probe is the single most
    # expensive simulation (its horizon scales as 1/rate).
    best_rate: float | None = None
    for _ in range(iterations):
        mid = (low + high) / 2.0
        if runner.probe(mid).feasible:
            low, best_rate = mid, mid
        else:
            high = mid
    if best_rate is not None:
        return result(best_rate, runner.full_qos(best_rate))

    # No feasible midpoint, so low is still rate_bounds[0]: the deferred
    # low endpoint decides between "capacity = low" and "capacity = 0".
    if runner.probe(low).feasible:
        return result(low, runner.full_qos(low))
    qos = runner.full_outcome(low)
    if qos is None:
        raise EndpointUnservable(
            "endpoint cannot finish any request at the minimum rate")
    return result(0.0, qos)


def reference_capacity_search(
    device: DeviceModel,
    model: ModelConfig,
    trace: ChatTraceConfig,
    slo_tbt_s: float,
    slo_ttft_s: float | None = None,
    num_devices: int = 1,
    request_count: int = 200,
    seed: int = 7,
    percentile: str = "p95",
    rate_bounds: tuple = (0.25, 256.0),
    iterations: int = 9,
    max_sim_seconds: float = 600.0,
) -> CapacityResult:
    """The pre-optimization sequential search, kept as the parity oracle.

    Eager endpoint probes, a fresh workload drawn per probe, full
    simulations, and a final best-rate re-simulation — exactly the
    algorithm :func:`max_capacity_under_slo` must reproduce rate-for-
    rate.  Benchmarked as the baseline by
    ``benchmarks/bench_capacity_speed.py``.
    """
    check_search_inputs(slo_tbt_s, slo_ttft_s, percentile, rate_bounds,
                        iterations)
    low, high = rate_bounds
    probes: list[ProbeOutcome] = []
    simulations = 0

    def simulate(rate: float):
        nonlocal simulations
        simulations += 1
        workload = PoissonArrivalTemplate(trace, request_count, seed)
        return _simulate_rate(device, model, workload, rate, num_devices,
                              max_sim_seconds)

    def probe(rate: float) -> bool:
        result, qos = simulate(rate)
        ok = meets_slo(result, qos, request_count, slo_tbt_s, slo_ttft_s,
                       percentile)
        probes.append(ProbeOutcome(rate=rate, feasible=ok, qos=qos,
                                   finished=len(result.finished),
                                   total_time_s=result.total_time_s))
        return ok

    def result(rate: float, qos: QoSReport) -> CapacityResult:
        return CapacityResult(rate, qos, tuple(probes), simulations)

    if not probe(low):
        _, qos = simulate(low)
        if qos is None:
            raise EndpointUnservable(
                "endpoint cannot finish any request at the minimum rate")
        return result(0.0, qos)
    if probe(high):
        _, qos = simulate(high)
        return result(high, qos)

    best_rate = low
    for _ in range(iterations):
        mid = (low + high) / 2.0
        if probe(mid):
            low = mid
            best_rate = mid
        else:
            high = mid
    _, qos = simulate(best_rate)
    assert qos is not None
    return result(best_rate, qos)

