"""Batching-policy baselines (paper Fig. 2b).

The paper's Fig. 2(b) sketches how TTFT and TBT shift across three
serving disciplines.  ``DeploymentSpec.batching`` names one of
:data:`BATCHING_POLICIES` and :func:`repro.api.simulate` runs it, so
the ablation bench can quantify the sketch:

* **no batching** (:func:`simulate_no_batching`) — requests are served
  one at a time, FIFO: superb TBT, terrible throughput,
  queueing-dominated TTFT;
* **static batching** (:func:`simulate_static`) — requests are grouped
  into fixed batches; the whole batch prefills together and decodes
  until the *longest* member finishes (stragglers hold the batch — the
  classic inefficiency);
* **continuous batching** — the iteration-level scheduler of
  :class:`repro.serving.engine.ServingEngine` (Orca-style), the paper's
  default, and the only discipline the cluster engine, the prefix
  cache and fault injection run on.
"""

from __future__ import annotations

from repro.models.config import ModelConfig
from repro.perf.baselines import DeviceModel
from repro.serving.engine import SimulationResult
from repro.serving.request import Request

#: The batching disciplines a deployment may name, sorted.
BATCHING_POLICIES = ("continuous", "no-batching", "static")


def simulate_no_batching(device: DeviceModel, model: ModelConfig,
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


def simulate_static(device: DeviceModel, model: ModelConfig,
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
