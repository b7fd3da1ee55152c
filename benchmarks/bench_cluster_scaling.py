"""Cluster scaling — replicas x router policy, beyond the paper's Fig. 13.

The paper's scalability analysis stops at one device group; this bench
extends it to a fleet of replicas behind a router, the deployment shape
of a Ray-Serve-style LLM endpoint.  Two experiments:

1. **Scaling sweep** — replicas x router policy under a Poisson load
   scaled proportionally (rate = replicas x base rate): fleet p95 TTFT
   should stay roughly flat while throughput scales.
2. **Bursty traffic** — an on/off (Markov-modulated) arrival process
   with heavy-tailed outputs and a constrained per-replica batch: the
   regime where load-aware routing (join-shortest-queue) beats blind
   round-robin on tail TTFT, the AdaServe/Apt-Serve observation.
"""

import numpy as np
from conftest import run_once

from repro.analysis.tables import format_table
from repro.api import DeploymentSpec, WorkloadSpec, simulate
from repro.cluster import ClusterEngine, EngineGroup
from repro.core.scheduling import device_model_for
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.serving.dataset import ChatTraceConfig
from repro.serving.generator import iter_onoff_requests
from repro.serving.scheduler import SchedulerLimits

BASE_RATE = 10.0
REPLICA_COUNTS = (1, 2, 4)
ROUTERS = ("round-robin", "least-outstanding", "session-affinity",
           "slo-aware")

#: Heavier-tailed outputs than ultrachat: the stragglers that imbalance
#: replica queues under blind routing.
BURSTY_TRACE = ChatTraceConfig(
    name="bursty-heavy",
    input_median=550.0,
    input_sigma=0.8,
    output_median=180.0,
    output_sigma=1.1,
)
BURSTY_SEEDS = (3, 7, 19)


def _scaling_rows():
    rows = []
    for replicas in REPLICA_COUNTS:
        for router in ROUTERS:
            report = simulate(
                DeploymentSpec(chip="ador", replicas=replicas,
                               router=router),
                WorkloadSpec(rate_per_s=BASE_RATE * replicas,
                             num_requests=100 * replicas, seed=7),
            )
            load = getattr(report, "load", None)
            rows.append([
                replicas,
                router,
                report.qos.ttft_p95_s * 1e3,
                report.qos.ttft_p99_s * 1e3,
                report.qos.tokens_per_s,
                1.0 if load is None else load.request_imbalance,
            ])
            if replicas == 1:
                break  # routers are equivalent on a single replica
    return rows


def _bursty_p99(router: str) -> float:
    """Mean p99 TTFT over seeds for one router on the bursty trace."""
    model = get_model("llama3-8b")
    device = device_model_for(get_chip("ador"))
    limits = SchedulerLimits(max_batch=12, prefill_chunk_tokens=512)
    p99s = []
    for seed in BURSTY_SEEDS:
        requests = list(iter_onoff_requests(
            BURSTY_TRACE, on_rate_per_s=60.0, off_rate_per_s=4.0,
            phase_seconds=3.0, seed=seed, count=400))
        engine = ClusterEngine(
            [EngineGroup("ador", device, model, limits, count=4)],
            router=router)
        result = engine.run(requests, max_sim_seconds=600.0)
        p99s.append(result.qos().ttft_p99_s)
    return float(np.mean(p99s))


def test_cluster_scaling_sweep(benchmark, report):
    rows = run_once(benchmark, _scaling_rows)
    report("cluster_scaling", format_table(
        ["replicas", "router", "p95 TTFT (ms)", "p99 TTFT (ms)",
         "tokens/s", "req imbalance"],
        rows,
        title=f"Cluster scaling: replicas x router policy, LLaMA3-8B on "
              f"ADOR, {BASE_RATE:g} req/s per replica",
    ))
    by_replicas = {}
    for replicas, router, p95, _p99, tokens, _imb in rows:
        by_replicas.setdefault(replicas, []).append((router, p95, tokens))
    # throughput scales with the fleet
    assert max(t for _, _, t in by_replicas[4]) \
        > 2.5 * max(t for _, _, t in by_replicas[1])
    # fleet p95 TTFT stays within 25% of the single replica (round-robin)
    single_p95 = by_replicas[1][0][1]
    rr_p95 = next(p95 for router, p95, _ in by_replicas[4]
                  if router == "round-robin")
    assert rr_p95 <= 1.25 * single_p95


def test_cluster_bursty_routing(benchmark, report):
    p99 = run_once(benchmark, lambda: {router: _bursty_p99(router)
                                       for router in
                                       ("round-robin", "least-outstanding")})
    rows = [[router, value * 1e3] for router, value in p99.items()]
    report("cluster_bursty_routing", format_table(
        ["router", "mean p99 TTFT (ms)"],
        rows,
        title="Bursty on/off traffic, 4x ADOR, max_batch=12: "
              "join-shortest-queue vs round-robin",
    ))
    # the headline: load-aware routing beats blind routing on tail TTFT
    assert p99["least-outstanding"] < p99["round-robin"]
