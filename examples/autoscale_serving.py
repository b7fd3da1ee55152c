#!/usr/bin/env python
"""Simulated cluster autoscaling: an elastic fleet that tracks load.

ADOR's serving analysis assumes a fixed device count; this example
grows and shrinks the fleet instead.  Three things are shown:

1. one declarative call — ``DeploymentSpec(autoscale=AutoscaleSpec(...))``
   makes ``simulate()`` run the cluster engine with an elastic fleet,
   even when the deployment starts at a single replica;
2. the scaling history — the report carries the scale-event log and the
   per-decision fleet-size / utilization timeline;
3. elasticity vs a fixed fleet on bursty on/off traffic — same p99-ish
   tail (the bursts saturate both), materially fewer replica-seconds
   (the autoscaler drains the fleet through every lull; see
   ``benchmarks/bench_autoscale.py`` for the committed comparison).

Run:  python examples/autoscale_serving.py
"""

from repro.api import (
    AutoscaleSpec,
    DeploymentSpec,
    WorkloadSpec,
    device_model_for,
    get_chip,
    get_model,
    simulate,
)
from repro.cluster import ClusterEngine, EngineGroup, list_autoscalers
from repro.serving import SchedulerLimits, ServingEngine
from repro.serving.dataset import ULTRACHAT_LIKE
from repro.serving.generator import iter_onoff_requests


def main() -> None:
    # 1) declarative autoscaling: start at 1 replica, let queue depth
    #    grow the fleet to meet a 40 req/s Poisson load
    print(f"autoscaler policies registered: "
          f"{', '.join(list_autoscalers())}\n")
    deployment = DeploymentSpec(
        chip="ador", model="llama3-8b", max_batch=32,
        replicas=1, router="least-outstanding",
        autoscale=AutoscaleSpec(policy="queue-depth", min_replicas=1,
                                max_replicas=6, decision_interval_s=1.0,
                                provision_latency_s=3.0,
                                warm_pool_size=2, warm_provision_s=0.5))
    workload = WorkloadSpec(trace="ultrachat", rate_per_s=40.0,
                            num_requests=400, seed=7)
    report = simulate(deployment, workload)
    print(report.summary())

    # 2) the scaling history behind that summary
    trace = report.autoscale
    print("\nscale events:")
    for event in trace.events:
        print(f"  t={event.clock_s:6.1f} s  {event.kind:>4}  "
              f"{event.delta:+d} -> {event.replicas_after} replicas "
              f"(ids {list(event.replica_ids)}"
              f"{', warm' if event.warm_used else ''})")
    print("\nfleet timeline (every 4th decision):")
    for sample in trace.timeline[::4]:
        bar = "#" * (sample.ready + sample.provisioning)
        print(f"  t={sample.clock_s:6.1f} s  ready={sample.ready} "
              f"provisioning={sample.provisioning} "
              f"draining={sample.draining} "
              f"queue={sample.outstanding_requests:3d} "
              f"util={sample.utilization:4.2f}  {bar}")

    # 3) elastic vs fixed fleet on bursty on/off traffic
    endpoint = ServingEngine(
        device_model_for(get_chip("ador")), get_model("llama3-8b"),
        SchedulerLimits(max_batch=12, prefill_chunk_tokens=512))

    def bursty_stream():
        return list(iter_onoff_requests(
            ULTRACHAT_LIKE, on_rate_per_s=45.0, off_rate_per_s=0.25,
            phase_seconds=20.0, seed=3, count=500))

    fixed = ClusterEngine(
        [EngineGroup("ador", endpoint, count=6)],
        router="least-outstanding").run(bursty_stream())
    spec = AutoscaleSpec(policy="queue-depth", min_replicas=1,
                         max_replicas=6, decision_interval_s=0.25,
                         provision_latency_s=10.0, warm_pool_size=6,
                         warm_provision_s=0.1)
    elastic = ClusterEngine(
        [EngineGroup("ador", endpoint, count=1)],
        router="least-outstanding", autoscale=spec).run(bursty_stream())
    fixed_rs = 6 * fixed.merged.total_time_s
    elastic_rs = elastic.autoscale.replica_seconds
    print(f"\nbursty on/off traffic, fixed 6x vs autoscaled [1, 6]:")
    print(f"  p99 TTFT      : fixed {fixed.qos().ttft_p99_s:6.2f} s, "
          f"autoscaled {elastic.qos().ttft_p99_s:6.2f} s")
    print(f"  replica-seconds: fixed {fixed_rs:6.1f}, "
          f"autoscaled {elastic_rs:6.1f} "
          f"({1 - elastic_rs / fixed_rs:.0%} saved)")


if __name__ == "__main__":
    main()
