"""Ablation — batching disciplines (paper Fig. 2b, quantified).

Runs the same request stream through no-batching, static batching and
continuous batching on the ADOR design and reports the QoS/throughput
trade each discipline makes.  Each run is one ``repro.api.simulate()``
call; the shared workload seed guarantees every policy replays the
identical request stream.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.api import DeploymentSpec, WorkloadSpec, simulate

RATE = 6.0
COUNT = 48
POLICIES = ("no-batching", "static", "continuous")


def _compare():
    workload = WorkloadSpec(trace="ultrachat", rate_per_s=RATE,
                            num_requests=COUNT, seed=23)
    rows = []
    outcomes = {}
    for policy in POLICIES:
        # no-batching serves one request at a time: it has no batch
        batch = {} if policy == "no-batching" else {"max_batch": 32}
        deployment = DeploymentSpec(chip="ador", model="llama3-8b",
                                    batching=policy, **batch)
        report = simulate(deployment, workload, max_sim_seconds=3600.0)
        qos = report.qos
        rows.append([
            policy,
            qos.ttft_p95_s * 1e3,
            qos.tbt_mean_s * 1e3,
            qos.tokens_per_s,
            report.result.total_time_s,
        ])
        outcomes[policy] = qos
    return rows, outcomes


def test_ablation_batching_policies(benchmark, report):
    rows, outcomes = run_once(benchmark, _compare)
    report("ablation_batching", format_table(
        ["policy", "TTFT p95 (ms)", "TBT mean (ms)", "tokens/s",
         "makespan (s)"],
        rows,
        title=f"Ablation (Fig. 2b): batching disciplines, LLaMA3-8B on "
              f"ADOR, {RATE} req/s",
    ))
    no_batch = outcomes["no-batching"]
    static = outcomes["static"]
    continuous = outcomes["continuous"]
    # continuous batching: highest throughput, best tail TTFT
    assert continuous.tokens_per_s >= 0.95 * max(
        no_batch.tokens_per_s, static.tokens_per_s)
    assert continuous.ttft_p95_s <= static.ttft_p95_s
    # no batching queues: far worse tail TTFT than continuous
    assert no_batch.ttft_p95_s > 2 * continuous.ttft_p95_s
