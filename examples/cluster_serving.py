#!/usr/bin/env python
"""Multi-replica cluster serving with routing policies.

Scales the single-endpoint serving simulation to a fleet: four ADOR
replicas behind a router, the deployment shape of a Ray-Serve-style LLM
endpoint.  Three things are shown:

1. one declarative call — ``simulate()`` dispatches to the cluster
   engine as soon as ``DeploymentSpec.replicas > 1``;
2. a router-policy shootout on the same workload (round-robin vs
   join-shortest-queue vs session-affinity vs slo-aware);
3. sticky sessions: with a multi-turn workload the session-affinity
   router keeps every turn of a conversation on one replica.

Run:  python examples/cluster_serving.py
"""

from repro.analysis.tables import format_table
from repro.api import (
    DeploymentSpec,
    WorkloadSpec,
    device_model_for,
    get_chip,
    get_model,
    list_routers,
    simulate,
)
from repro.cluster import ClusterEngine, EngineGroup
from repro.serving import (
    SchedulerLimits,
    ServingEngine,
    SessionConfig,
    iter_session_requests,
)


def main() -> None:
    # 1) one cluster simulation through the declarative facade
    deployment = DeploymentSpec(chip="ador", model="llama3-8b",
                                replicas=4, router="least-outstanding")
    workload = WorkloadSpec(trace="ultrachat", rate_per_s=40.0,
                            num_requests=400, seed=7)
    report = simulate(deployment, workload)
    print(report.summary())

    # 2) router shootout on the identical request stream
    print(f"\nrouter policies registered: {', '.join(list_routers())}")
    rows = []
    for router in list_routers():
        r = simulate(
            DeploymentSpec(chip="ador", replicas=4, router=router),
            workload)
        rows.append([
            router,
            r.qos.ttft_p95_s * 1e3,
            r.qos.ttft_p99_s * 1e3,
            r.qos.tokens_per_s,
            r.load.request_imbalance,
        ])
    print(format_table(
        ["router", "p95 TTFT (ms)", "p99 TTFT (ms)", "tokens/s",
         "req imbalance"],
        rows, title="4x ADOR, ultrachat at 40 req/s"))

    # 3) sticky sessions on a multi-turn chat workload
    requests = list(iter_session_requests(SessionConfig(), sessions=120,
                                          session_rate_per_s=6.0, seed=11))
    endpoint = ServingEngine(device_model_for(get_chip("ador")),
                             get_model("llama3-8b"),
                             SchedulerLimits(max_batch=256))
    engine = ClusterEngine([EngineGroup("ador", endpoint, count=4)],
                           router="session-affinity")
    result = engine.run(requests, max_sim_seconds=600.0)
    homes: dict[int, set[int]] = {}
    for index, replica_result in enumerate(result.replica_results):
        for request in replica_result.finished + replica_result.unfinished:
            if request.session_id is not None:
                homes.setdefault(request.session_id, set()).add(index)
    sticky = sum(1 for replicas in homes.values() if len(replicas) == 1)
    print(f"\nsession-affinity over {len(homes)} multi-turn sessions: "
          f"{sticky}/{len(homes)} sessions served entirely by one replica")


if __name__ == "__main__":
    main()
