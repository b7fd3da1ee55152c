#!/usr/bin/env python
"""Batching-policy comparison (paper Fig. 2b, quantified).

Replays one Poisson request stream through the three serving
disciplines — no batching, static batching and continuous batching — on
the ADOR design, and prints the QoS/throughput trade each makes.  Each
run is one ``simulate()`` call over the same :class:`WorkloadSpec`; the
shared seed guarantees every policy sees the identical request stream.

Run:  python examples/batching_policies.py
"""

from repro.analysis.tables import format_table
from repro.api import BATCHING_POLICIES, DeploymentSpec, WorkloadSpec, simulate


def main() -> None:
    workload = WorkloadSpec(trace="ultrachat", rate_per_s=6.0,
                            num_requests=48, seed=23)

    rows = []
    for policy in BATCHING_POLICIES:
        # no-batching serves one request at a time: it has no batch
        batch = {} if policy == "no-batching" else {"max_batch": 32}
        deployment = DeploymentSpec(chip="ador", model="llama3-8b",
                                    batching=policy, **batch)
        report = simulate(deployment, workload, max_sim_seconds=3600.0)
        qos = report.qos
        rows.append([
            policy,
            qos.ttft_p50_s * 1e3,
            qos.ttft_p95_s * 1e3,
            qos.tbt_mean_s * 1e3,
            qos.tokens_per_s,
            report.result.total_time_s,
        ])
    print(format_table(
        ["policy", "TTFT p50 (ms)", "TTFT p95 (ms)", "TBT (ms)",
         "tokens/s", "makespan (s)"],
        rows,
        title="48 ultrachat-like requests at 6 req/s, LLaMA3-8B on ADOR",
    ))
    print(
        "\nno batching  : great TBT, but the queue murders tail TTFT\n"
        "static       : throughput recovers, stragglers hold every batch\n"
        "continuous   : iteration-level admission wins on both axes —\n"
        "               the paper's (and vLLM's) default for good reason"
    )


if __name__ == "__main__":
    main()
