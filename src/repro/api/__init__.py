"""``repro.api`` — the declarative experiment surface of the framework.

One import gives the full exploration loop the ROADMAP asks for: named
registries over chips / traces / router policies, the three batching
disciplines a deployment may name (:data:`BATCHING_POLICIES`), frozen
serializable specs, and a :func:`simulate` facade returning a unified
:class:`ServingReport` — or, for a deployment with more than one
replica, an explicit fleet, an autoscale spec or a fault spec, a
:class:`ClusterReport` from the multi-replica cluster engine
(:mod:`repro.cluster`)::

    from repro.api import DeploymentSpec, WorkloadSpec, simulate

    report = simulate(
        DeploymentSpec(chip="ador", model="llama3-8b"),
        WorkloadSpec(trace="ultrachat", rate_per_s=15.0,
                     num_requests=200, seed=7),
    )
    print(report.summary())

Sweeps become data, not scripts: serialize an :class:`Experiment` to
JSON (``save_experiment``) and replay it anywhere with
``repro run experiment.json`` or :func:`run_experiment` — same seed,
identical report.

Fleets need not be homogeneous: a :class:`DeploymentSpec` carrying an
explicit :class:`FleetSpec` of weighted :class:`ReplicaGroupSpec`
groups mixes chips in one cluster (``router="hetero-aware"`` routes by
probed capability), and :func:`find_fleet_capacity` searches the
cheapest group mix meeting an SLO at a fixed demand.
"""

from repro.api.facade import (
    CapacityReport,
    ClusterReport,
    EndpointOverloaded,
    FleetCapacityReport,
    ServingReport,
    build_cluster_engine,
    find_capacity,
    find_fleet_capacity,
    load_experiment,
    run_experiment,
    save_experiment,
    simulate,
    simulate_cluster,
)
from repro.cluster.autoscaler import (
    AutoscaleSpec,
    get_autoscaler,
    list_autoscalers,
    register_autoscaler,
)
from repro.cluster.faults import FaultEvent, FaultSpec, FaultTrace
from repro.cluster.router import get_router, list_routers, register_router
from repro.api.specs import (
    CapacitySpec,
    DeploymentSpec,
    Experiment,
    FleetSpec,
    ReplicaGroupSpec,
    WorkloadSpec,
)
from repro.cluster.report import GroupBreakdown
from repro.core.scheduling import device_model_for
from repro.perf.scale import ProgressReporter, StreamStats
from repro.hardware.registry import get_chip, list_chips, register_chip
from repro.models.zoo import get_model, list_models
from repro.serving.policies import BATCHING_POLICIES
from repro.serving.prefix_cache import (
    PrefixCacheSpec,
    get_eviction_policy,
    list_eviction_policies,
    register_eviction_policy,
)
from repro.serving.sessions import SessionConfig
from repro.serving.traces import get_trace, list_traces, register_trace

__all__ = [
    "DeploymentSpec",
    "WorkloadSpec",
    "Experiment",
    "CapacitySpec",
    "FleetSpec",
    "ReplicaGroupSpec",
    "ServingReport",
    "ClusterReport",
    "CapacityReport",
    "FleetCapacityReport",
    "GroupBreakdown",
    "EndpointOverloaded",
    "simulate",
    "simulate_cluster",
    "build_cluster_engine",
    "find_capacity",
    "find_fleet_capacity",
    "get_router",
    "list_routers",
    "register_router",
    "AutoscaleSpec",
    "get_autoscaler",
    "list_autoscalers",
    "register_autoscaler",
    "FaultSpec",
    "FaultEvent",
    "FaultTrace",
    "PrefixCacheSpec",
    "SessionConfig",
    "get_eviction_policy",
    "list_eviction_policies",
    "register_eviction_policy",
    "load_experiment",
    "save_experiment",
    "run_experiment",
    "get_chip",
    "list_chips",
    "register_chip",
    "get_trace",
    "list_traces",
    "register_trace",
    "BATCHING_POLICIES",
    "get_model",
    "list_models",
    "device_model_for",
    "StreamStats",
    "ProgressReporter",
]
