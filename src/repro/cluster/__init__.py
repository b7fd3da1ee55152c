"""``repro.cluster`` — multi-replica serving behind a request router.

The serving stack (:mod:`repro.serving`) simulates *one* endpoint; this
package scales it to a fleet, the way Ray Serve fronts N replicas of an
LLM deployment with a router.  A :class:`ClusterEngine` is built from
its fleet — a list of :class:`EngineGroup` objects, each ``count``
replicas of one :class:`~repro.serving.engine.ServingEngine` — plus
the run knobs::

    endpoint = ServingEngine(device, model, SchedulerLimits())
    engine = ClusterEngine([EngineGroup("ador", endpoint, count=4)],
                           router="least-outstanding")
    result = engine.run(requests)

Every replica of a group steps the group's engine with its own
scheduler, prefix cache and clock.  The engine advances the
per-replica continuous-batching endpoints under one
simulated clock, consults a named :class:`RouterPolicy`
(``round-robin``, ``least-outstanding``, ``session-affinity``,
``slo-aware``, ``hetero-aware`` — see :mod:`repro.cluster.router`) at
every arrival, and aggregates the per-replica outcomes into fleet QoS
plus load-imbalance stats (:mod:`repro.cluster.report`).

Routers address replicas by *position in the snapshot sequence* they
are handed; the engine maps positions back to concrete replicas.  That
contract matters because the fleet can be **dynamic**: with an
:class:`AutoscaleSpec`, a registered :class:`AutoscalerPolicy`
(``queue-depth``, ``slo-attainment`` — see
:mod:`repro.cluster.autoscaler`) resizes the fleet on a decision
interval, and replicas move through a lifecycle —

* **provisioning** — launched, paying the modeled provision latency
  (shortened by the warm pool), not yet routable;
* **ready** — routable, serving traffic;
* **draining** — picked by a scale-down: receives no new routed
  requests but finishes every admitted one (no request is dropped);
* **retired** — drained and decommissioned; its replica-seconds stop
  accruing at the instant its last admitted request finished.

Autoscaled results carry an :class:`AutoscaleTrace` (scale events,
fleet-size/utilization timeline, replica-seconds) next to the usual
fleet QoS.

With a :class:`FaultSpec` (:mod:`repro.cluster.faults`) the run injects
deterministic, seeded faults — replica crashes (in-flight work lost,
requests requeued under a retry budget), slowdown windows and transient
stalls — and the result carries a :class:`FaultTrace` with the event
log, retry counters and the requests that ended *failed*.

The declarative API reaches it via ``DeploymentSpec(replicas=4,
router="least-outstanding")`` — plus ``autoscale=AutoscaleSpec(...)``
for an elastic fleet, or an explicit ``fleet=FleetSpec(...)`` of
replica groups; :func:`repro.api.build_cluster_engine` turns a
deployment into the engine, and :func:`repro.api.simulate` dispatches
to :func:`repro.api.simulate_cluster` whenever the deployment has more
than one replica, an explicit fleet, an autoscale spec or a fault
spec.  A deployment names its router by registry name; a router
instance goes straight to ``ClusterEngine(router=...)``, and its
caller owns its state.
"""

from repro.cluster.autoscaler import (
    AUTOSCALER_REGISTRY,
    AutoscalerPolicy,
    AutoscaleSpec,
    FleetObservation,
    get_autoscaler,
    list_autoscalers,
    make_autoscaler,
    register_autoscaler,
)
from repro.cluster.engine import ClusterEngine, EngineGroup, ReplicaSim
from repro.cluster.faults import (
    FaultEvent,
    FaultInjector,
    FaultRecord,
    FaultSpec,
    FaultTrace,
    ReplicaFaultPlan,
)
from repro.cluster.report import (
    AutoscaleTrace,
    ClusterResult,
    FleetSample,
    LoadImbalanceStats,
    ScaleEvent,
    aggregate_cluster,
    load_imbalance,
    merge_results,
)
from repro.cluster.router import (
    ROUTER_REGISTRY,
    ReplicaSnapshot,
    RouterPolicy,
    get_router,
    list_routers,
    make_router,
    register_router,
)

__all__ = [
    "ClusterEngine",
    "EngineGroup",
    "ReplicaSim",
    "ClusterResult",
    "LoadImbalanceStats",
    "AutoscaleTrace",
    "FleetSample",
    "ScaleEvent",
    "FaultEvent",
    "FaultInjector",
    "FaultRecord",
    "FaultSpec",
    "FaultTrace",
    "ReplicaFaultPlan",
    "aggregate_cluster",
    "load_imbalance",
    "merge_results",
    "ROUTER_REGISTRY",
    "ReplicaSnapshot",
    "RouterPolicy",
    "get_router",
    "list_routers",
    "make_router",
    "register_router",
    "AUTOSCALER_REGISTRY",
    "AutoscalerPolicy",
    "AutoscaleSpec",
    "FleetObservation",
    "get_autoscaler",
    "list_autoscalers",
    "make_autoscaler",
    "register_autoscaler",
]
