"""Serving simulator: the ADOR Simulator of Fig. 14(b).

A discrete-event simulation of a real LLM serving endpoint: Poisson
request arrivals with trace-driven token lengths, iteration-level
continuous batching with chunked prefill, and QoS accounting (TTFT, TBT,
E2E latency, throughput).  :mod:`repro.serving.capacity` binary-searches
the maximum sustainable request rate under an SLO — the Fig. 16
experiment.

This package simulates *one* endpoint; :mod:`repro.cluster` scales it to
N replicas behind a request router (``DeploymentSpec(replicas=...,
router=...)`` in the declarative API).
"""

from repro.serving.request import Request, RequestState
from repro.serving.dataset import ChatTraceConfig, ULTRACHAT_LIKE, sample_trace
from repro.serving.generator import (
    PoissonArrivalTemplate,
    iter_onoff_requests,
    iter_poisson_requests,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerLimits
from repro.serving.engine import (
    InstabilityMonitor,
    ServingEngine,
    SimulationResult,
)
from repro.serving.qos import QoSReport, compute_qos
from repro.serving.capacity import (
    CapacityResult,
    EndpointUnservable,
    ProbeOutcome,
    max_capacity_under_slo,
    reference_capacity_search,
)
from repro.serving.utilization import UtilizationReport, utilization_report
from repro.serving.policies import BATCHING_POLICIES
from repro.serving.traces import get_trace, list_traces, register_trace
from repro.serving.sessions import (
    MultiTurnSessionGenerator,
    SessionConfig,
    SessionTurn,
    iter_session_requests,
)
from repro.serving.kv_allocator import KvBlockConfig, PagedKvAllocator
from repro.serving.prefix_cache import (
    CachedPrefix,
    PrefixCache,
    PrefixCacheSpec,
    PrefixCacheStats,
    get_eviction_policy,
    list_eviction_policies,
    register_eviction_policy,
)
from repro.serving.trace_io import (
    export_timeline,
    load_requests,
    save_requests,
)

__all__ = [
    "KvBlockConfig",
    "PagedKvAllocator",
    "CachedPrefix",
    "PrefixCache",
    "PrefixCacheSpec",
    "PrefixCacheStats",
    "get_eviction_policy",
    "list_eviction_policies",
    "register_eviction_policy",
    "export_timeline",
    "load_requests",
    "save_requests",
    "BATCHING_POLICIES",
    "get_trace",
    "list_traces",
    "register_trace",
    "MultiTurnSessionGenerator",
    "SessionConfig",
    "SessionTurn",
    "iter_session_requests",
    "Request",
    "RequestState",
    "ChatTraceConfig",
    "ULTRACHAT_LIKE",
    "sample_trace",
    "PoissonArrivalTemplate",
    "iter_onoff_requests",
    "iter_poisson_requests",
    "ContinuousBatchingScheduler",
    "SchedulerLimits",
    "InstabilityMonitor",
    "ServingEngine",
    "SimulationResult",
    "QoSReport",
    "compute_qos",
    "CapacityResult",
    "EndpointUnservable",
    "ProbeOutcome",
    "max_capacity_under_slo",
    "reference_capacity_search",
    "UtilizationReport",
    "utilization_report",
]
