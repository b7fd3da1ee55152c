"""Batching-policy baselines (paper Fig. 2b).

The paper's Fig. 2(b) sketches how TTFT and TBT shift across three
serving disciplines; this module makes each one runnable so the
ablation bench can quantify the sketch:

* **no batching** — requests are served one at a time, FIFO: superb TBT,
  terrible throughput, queueing-dominated TTFT;
* **static batching** — requests are grouped into fixed batches; the
  whole batch prefills together and decodes until the *longest* member
  finishes (stragglers hold the batch — the classic inefficiency);
* **continuous batching** — the iteration-level scheduler of
  :mod:`repro.serving.engine` (Orca-style), the paper's default.
"""

from __future__ import annotations

from typing import Callable

from repro.models.config import ModelConfig
from repro.perf.baselines import DeviceModel
from repro.registry import Registry
from repro.serving.engine import ServingEngine, SimulationResult
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits


#: A policy runner simulates one request stream under one discipline:
#: ``runner(device, model, requests, limits, num_devices, max_sim_seconds,
#: fast_forward)``.  ``fast_forward`` opts into simulator fast paths that
#: are bit-identical to the plain loop (see
#: :class:`repro.serving.engine.ServingEngine`); runners without such a
#: path accept and ignore it.  ``prefix_cache`` (a
#: :class:`~repro.serving.prefix_cache.PrefixCacheSpec`) is passed only
#: when a deployment carries one — today only the continuous runner
#: models it, and :func:`repro.api.simulate` rejects the combination
#: for other built-ins before ever calling them.
PolicyRunner = Callable[..., SimulationResult]

POLICY_REGISTRY = Registry("batching policy")


def register_policy(name: str) -> Callable[[PolicyRunner], PolicyRunner]:
    """Decorator: register a :data:`PolicyRunner` under ``name``.

    Third-party disciplines (priority queues, SLO-aware admission, ...)
    plug in here and become addressable from ``DeploymentSpec.batching``
    and experiment JSON files without touching core.
    """

    def _decorate(runner: PolicyRunner) -> PolicyRunner:
        POLICY_REGISTRY.register(name, runner)
        return runner

    return _decorate


def get_policy(name: str) -> PolicyRunner:
    """Look up a policy runner by name."""
    return POLICY_REGISTRY.get(name)


def list_policies() -> list[str]:
    """Registered policy names, sorted."""
    return POLICY_REGISTRY.names()


def _simulate_no_batching(device: DeviceModel, model: ModelConfig,
                          requests: list, num_devices: int,
                          max_sim_seconds: float) -> SimulationResult:
    """One request at a time: prefill fully, then decode to completion."""
    now = 0.0
    finished: list[Request] = []
    iterations = 0
    busy = 0.0
    decode_time = 0.0
    prefill_time = 0.0
    for request in sorted(requests, key=lambda r: r.arrival_time):
        start = max(now, request.arrival_time)
        if start >= max_sim_seconds:
            # service must start before the horizon; a late arrival must
            # not inflate total_time_s past max_sim_seconds
            break
        now = start
        prefill = device.prefill_time(model, 1, request.input_tokens,
                                      num_devices).seconds
        now += prefill
        busy += prefill
        prefill_time += prefill
        request.prefilled_tokens = request.input_tokens
        while not request.done:
            step = device.decode_step_time(model, 1, request.context_len,
                                           num_devices).seconds
            now += step
            busy += step
            decode_time += step
            iterations += 1
            request.record_token(now)
        finished.append(request)
    # Request equality is by identity (eq=False), so a set gives O(1)
    # membership without aliasing two same-shaped requests
    done = set(finished)
    unfinished = [r for r in requests if r not in done]
    return SimulationResult(
        finished=finished, unfinished=unfinished, total_time_s=now,
        iterations=iterations, decode_steps=iterations,
        busy_time_s=busy, decode_time_s=decode_time,
        prefill_time_s=prefill_time,
    )


def _simulate_static(device: DeviceModel, model: ModelConfig,
                     requests: list, batch_size: int, num_devices: int,
                     max_sim_seconds: float) -> SimulationResult:
    """Fixed batches; each batch decodes until its longest member ends."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    now = 0.0
    finished: list[Request] = []
    unfinished: list[Request] = []
    iterations = 0
    busy = 0.0
    decode_time = 0.0
    prefill_time = 0.0
    pending = sorted(requests, key=lambda r: r.arrival_time)
    while pending and now < max_sim_seconds:
        batch = pending[:batch_size]
        start = max(now, max(r.arrival_time for r in batch))
        if start >= max_sim_seconds:
            # the batch only forms after the horizon (late arrivals must
            # not inflate total_time_s past max_sim_seconds)
            break
        pending = pending[batch_size:]
        now = start
        longest_input = max(r.input_tokens for r in batch)
        prefill = device.prefill_time(model, len(batch), longest_input,
                                      num_devices).seconds
        now += prefill
        busy += prefill
        prefill_time += prefill
        for request in batch:
            request.prefilled_tokens = request.input_tokens
        longest_output = max(r.output_tokens for r in batch)
        for _ in range(longest_output):
            # mirror the continuous engine's horizon rule: a decode step
            # only starts before max_sim_seconds (it may end past it)
            if now >= max_sim_seconds:
                break
            contexts = [r.context_len for r in batch]
            mean_context = max(1, sum(contexts) // len(contexts))
            # the whole batch occupies the device even after some members
            # finish — the static policy's signature waste
            step = device.decode_step_time(model, len(batch), mean_context,
                                           num_devices).seconds
            now += step
            busy += step
            decode_time += step
            iterations += 1
            for request in batch:
                if not request.done:
                    request.record_token(now)
        for request in batch:
            # members cut off by the horizon carry no finish stamp and
            # must not be reported as finished
            (finished if request.done else unfinished).append(request)
    return SimulationResult(
        finished=finished, unfinished=unfinished + pending, total_time_s=now,
        iterations=iterations, decode_steps=iterations,
        busy_time_s=busy, decode_time_s=decode_time,
        prefill_time_s=prefill_time,
    )


@register_policy("no-batching")
def run_no_batching(device: DeviceModel, model: ModelConfig, requests: list,
                    limits: SchedulerLimits, num_devices: int = 1,
                    max_sim_seconds: float = 3600.0,
                    fast_forward: bool = True) -> SimulationResult:
    """FIFO, one request at a time (``limits`` is ignored by design)."""
    return _simulate_no_batching(device, model, requests, num_devices,
                                 max_sim_seconds)


@register_policy("static")
def run_static(device: DeviceModel, model: ModelConfig, requests: list,
               limits: SchedulerLimits, num_devices: int = 1,
               max_sim_seconds: float = 3600.0,
               fast_forward: bool = True) -> SimulationResult:
    """Fixed batches of ``limits.max_batch`` requests."""
    return _simulate_static(device, model, requests, limits.max_batch,
                            num_devices, max_sim_seconds)


@register_policy("continuous")
def run_continuous(device: DeviceModel, model: ModelConfig, requests,
                   limits: SchedulerLimits, num_devices: int = 1,
                   max_sim_seconds: float = 3600.0,
                   fast_forward: bool = True,
                   prefix_cache=None, progress=None) -> SimulationResult:
    """Iteration-level continuous batching (the paper's default).

    The only policy that accepts a lazy request stream: the engine
    consumes arrivals through a bounded look-ahead window, so
    ``requests`` may be a list or an iterator/``RequestStream``.  The
    batch-mode policies below slice and sort their inputs and stay
    list-only.  ``progress`` forwards to :meth:`ServingEngine.run`.
    """
    engine = ServingEngine(device, model, limits, num_devices,
                           fast_forward=fast_forward,
                           prefix_cache=prefix_cache)
    return engine.run(requests, max_sim_seconds=max_sim_seconds,
                      progress=progress)
