"""Serializable experiment specs: the declarative half of ``repro.api``.

A serving experiment is fully described by two frozen value objects —
*what* is deployed (:class:`DeploymentSpec`) and *what load* hits it
(:class:`WorkloadSpec`) — optionally wrapped in an :class:`Experiment`
with a simulation horizon.  All three round-trip through plain dicts
(``to_dict`` / ``from_dict``) and therefore through JSON, so a sweep can
be generated in Python, checked into a repo as ``experiment.json`` files,
and replayed bit-identically anywhere (same seed, same report).

The JSON shape is the specs' dataclass fields: every spec here and the
ones nested in a deployment (autoscale, prefix cache, faults) inherit
:class:`~repro.spec_codec.SpecCodec`, one codec that emits fields in
declaration order and rejects unknown keys at every level.

Chips are referenced by registry name (``"ador"``, ``"a100"``, ...) or
embedded as a full custom :class:`~repro.hardware.chip.ChipSpec`, which
the same codec carries like any nested dataclass: enums by value (the
process node by its label, ``"7nm"``), infinite SRAM bandwidth as
``null``.  Every chip field without a default must be present; a chip
without a systolic array, MAC tree or vector unit writes ``null`` there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing
    from repro.serving.stream import RequestStream

from repro.cluster.autoscaler import AutoscaleSpec
from repro.cluster.faults import FaultSpec
from repro.cluster.router import make_router
from repro.hardware.chip import ChipSpec
from repro.hardware.registry import get_chip
from repro.serving.capacity import check_search_inputs
from repro.serving.dataset import ChatTraceConfig
from repro.serving.request import Request
from repro.serving.policies import BATCHING_POLICIES
from repro.serving.prefix_cache import PrefixCacheSpec
from repro.serving.scheduler import SchedulerLimits
from repro.serving.sessions import SessionConfig
from repro.serving.traces import get_trace
from repro.spec_codec import ANY_VALUE, OMIT_DEFAULT, SpecCodec


# --------------------------------------------------------------------- #
# Workload                                                               #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class WorkloadSpec(SpecCodec):
    """The load side of an experiment: which requests arrive, and when.

    ``trace`` is a registry name (``"ultrachat"``, ``"fixed-512x128"``,
    or anything registered via
    :func:`repro.serving.traces.register_trace`) or an inline
    :class:`ChatTraceConfig`.  ``arrival`` names the arrival process:

    * ``"poisson"`` — independent single-turn requests drawn from the
      trace at ``rate_per_s``;
    * ``"sessions"`` — multi-turn chat sessions
      (:func:`~repro.serving.sessions.iter_session_requests`):
      ``rate_per_s`` becomes the Poisson *session-start* rate and
      ``num_requests`` the session count; turn lengths come from the
      ``session`` config (the ``trace`` field is unused — session
      prompts are the accumulated history, not trace marginals).  The
      emitted requests carry ``session_id`` / ``turn_index`` /
      ``history_tokens``, the load shape prefix caching and
      session-affinity routing are about.

    The facade feeds a continuous-batching deployment the lazy
    :meth:`request_stream` and the two batch loops the
    :meth:`build_requests` list; both hold the same requests.  A
    ``"streaming"`` key (a retired knob whose two values gave
    bit-identical results) is accepted and dropped, so older JSON still
    loads.
    """

    trace: str | ChatTraceConfig = "ultrachat"
    arrival: str = "poisson"
    rate_per_s: float = 15.0
    num_requests: int = 200
    seed: int = 7
    session: SessionConfig | None = None

    _ARRIVALS = ("poisson", "sessions")
    _RETIRED_KEYS = {"streaming": ANY_VALUE}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.arrival not in self._ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"supported: {', '.join(self._ARRIVALS)}")
        if self.session is not None and self.arrival != "sessions":
            raise ValueError(
                "a session config requires arrival='sessions' — "
                "poisson arrivals would silently ignore it")
        if not self.rate_per_s > 0:
            raise ValueError("rate_per_s must be positive")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")

    def trace_config(self) -> ChatTraceConfig:
        """Resolve the trace reference to a concrete config."""
        if isinstance(self.trace, ChatTraceConfig):
            return self.trace
        return get_trace(self.trace)

    def build_requests(self) -> list[Request]:
        """The deterministic request list this spec describes."""
        return list(self.iter_requests())

    def iter_requests(self) -> Iterator[Request]:
        """Lazily generate the requests, at constant memory (see
        :mod:`repro.serving.generator`)."""
        if self.arrival == "sessions":
            from repro.serving.sessions import iter_session_requests

            return iter_session_requests(
                self.session if self.session is not None
                else SessionConfig(),
                self.num_requests, self.rate_per_s, self.seed)
        from repro.serving.generator import iter_poisson_requests

        return iter_poisson_requests(self.trace_config(), self.rate_per_s,
                                     self.seed, self.num_requests)

    def request_stream(self) -> RequestStream:
        """:meth:`iter_requests` wrapped in the engines' bounded-window
        :class:`~repro.serving.stream.RequestStream` view."""
        from repro.serving.stream import as_stream

        return as_stream(self.iter_requests())


# --------------------------------------------------------------------- #
# Fleet composition                                                      #
# --------------------------------------------------------------------- #

def _canonical_kv_budget(spec: ReplicaGroupSpec | DeploymentSpec) -> None:
    """Reject a non-positive or NaN KV budget and store "unlimited" as
    ``None``: ``None`` and +inf mean the same thing, and specs must
    compare equal after a JSON round-trip."""
    budget = spec.kv_budget_bytes
    if budget is not None and not budget > 0:
        raise ValueError(
            f"kv_budget_bytes must be positive (or None for unlimited), "
            f"got {budget!r}")
    if budget == float("inf"):
        object.__setattr__(spec, "kv_budget_bytes", None)


@dataclass(frozen=True)
class ReplicaGroupSpec(SpecCodec):
    """One homogeneous slice of a heterogeneous fleet.

    A group is ``count`` identical endpoints sharing one hardware and
    scheduling configuration — the per-endpoint knobs mirror
    :class:`DeploymentSpec` (chip, model, device count, batch and KV
    limits), and the group-level knobs describe how the fleet treats
    the slice as a unit:

    * ``cost_per_replica_s`` prices one replica-second of the group —
      the currency the cost-aware autoscaler and the mixed-fleet
      capacity search optimize over (relative units; 1.0 for the
      baseline chip, 2.5 for a chip 2.5x as expensive to run).
    * ``min_count`` / ``max_count`` bound the group under autoscaling
      (``None`` defers to the fleet-wide
      :class:`~repro.cluster.autoscaler.AutoscaleSpec` range).
    * ``provision_latency_s`` overrides the fleet-wide cold-provision
      latency for this group (``None`` inherits it) — a cloud GPU pool
      and an on-prem accelerator rack rarely launch at the same speed.
    * ``name`` labels the group in reports (defaults to the chip name).
    """

    chip: str | ChipSpec = "ador"
    model: str = "llama3-8b"
    count: int = 1
    num_devices: int = 1
    max_batch: int = 256
    prefill_chunk_tokens: int = 512
    kv_budget_bytes: float | None = None
    cost_per_replica_s: float = 1.0
    min_count: int | None = None
    max_count: int | None = None
    provision_latency_s: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 0:
            raise ValueError("group count must be >= 0")
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if not self.cost_per_replica_s > 0:
            raise ValueError("cost_per_replica_s must be positive")
        if self.min_count is not None and self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        if self.max_count is not None and self.max_count < 1:
            raise ValueError("max_count must be >= 1")
        if self.min_count is not None and self.max_count is not None \
                and self.min_count > self.max_count:
            raise ValueError(
                f"min_count={self.min_count} must not exceed "
                f"max_count={self.max_count}")
        if self.provision_latency_s is not None \
                and not self.provision_latency_s >= 0:
            raise ValueError("provision_latency_s must be non-negative")
        _canonical_kv_budget(self)

    @property
    def label(self) -> str:
        """Report label: explicit ``name``, else the chip reference."""
        if self.name:
            return self.name
        return self.chip if isinstance(self.chip, str) else self.chip.name

    def chip_spec(self) -> ChipSpec:
        """Resolve the chip reference to a concrete spec."""
        if isinstance(self.chip, ChipSpec):
            return self.chip
        return get_chip(self.chip)

    def scheduler_limits(self) -> SchedulerLimits:
        """The :class:`SchedulerLimits` one replica of the group runs."""
        budget = float("inf") if self.kv_budget_bytes is None \
            else self.kv_budget_bytes
        return SchedulerLimits(
            max_batch=self.max_batch,
            prefill_chunk_tokens=self.prefill_chunk_tokens,
            kv_budget_bytes=budget,
        )


@dataclass(frozen=True)
class FleetSpec(SpecCodec):
    """An explicit fleet composition: an ordered tuple of replica groups.

    The heterogeneous generalization of ``DeploymentSpec(replicas=N)``:
    a fleet of ``N`` identical endpoints is a one-group fleet, and the
    engine treats the two identically (parity-tested bit-identical).
    Group order is semantic — replica ids are assigned group by group,
    and cost ties in the autoscaler and the capacity search break
    toward the earliest group — so two fleets with the same groups in a
    different order are different specs.
    """

    groups: tuple[ReplicaGroupSpec, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        # accept any iterable of groups, store a hashable tuple
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("a fleet needs at least one replica group")
        for group in self.groups:
            if not isinstance(group, ReplicaGroupSpec):
                raise ValueError(
                    f"fleet groups must be ReplicaGroupSpec instances, "
                    f"got {type(group).__name__}")
        if self.total_replicas < 1:
            raise ValueError(
                "a fleet needs at least one replica across its groups")

    @property
    def total_replicas(self) -> int:
        """Initial fleet size: the sum of every group's ``count``."""
        return sum(group.count for group in self.groups)


# --------------------------------------------------------------------- #
# Deployment                                                             #
# --------------------------------------------------------------------- #

#: the per-endpoint knobs a fleet's groups carry in place of the
#: deployment's own
_ENDPOINT_KNOBS = ("chip", "model", "num_devices", "max_batch",
                   "prefill_chunk_tokens", "kv_budget_bytes")


@dataclass(frozen=True)
class DeploymentSpec(SpecCodec):
    """The endpoint side of an experiment: hardware, model, scheduling.

    ``chip`` is a registry name or an inline custom :class:`ChipSpec`;
    ``batching`` names one of
    :data:`~repro.serving.policies.BATCHING_POLICIES`; ``kv_budget_bytes``
    of ``None`` means unlimited KV memory (the scheduler's default).

    ``replicas`` scales the deployment to a fleet of identical endpoints
    behind a router named by ``router`` (a
    :mod:`repro.cluster.router` registry name; a router *instance*
    belongs in ``ClusterEngine(router=...)``, whose caller owns its
    state); with ``replicas > 1`` :func:`repro.api.simulate` dispatches
    to the cluster engine.  Only continuous batching runs a fleet of
    more than one replica, an explicit ``fleet``, ``autoscale``,
    ``prefix_cache`` or ``faults``: the spec rejects any of them under
    another discipline.  The two Fig. 2b loops read no
    ``prefill_chunk_tokens`` or ``kv_budget_bytes``, and no-batching no
    ``max_batch``, so the spec rejects a non-default value there too.

    ``fleet`` generalizes ``replicas`` to a heterogeneous fleet: an
    explicit :class:`FleetSpec` of :class:`ReplicaGroupSpec` slices,
    each with its own chip/model/device/batch/KV knobs.  When set, the
    top-level endpoint knobs (``chip``, ``model``, ``num_devices``,
    ``max_batch``, ``prefill_chunk_tokens``, ``kv_budget_bytes``) and
    ``replicas`` must stay at their defaults: each group carries its
    own, and silently ignoring one would hide a config mistake.  A
    one-group fleet is bit-identical to the legacy ``replicas=N`` path.

    ``autoscale`` makes the fleet elastic: ``replicas`` becomes the
    *initial* size and the spec'd
    :class:`~repro.cluster.autoscaler.AutoscalerPolicy` resizes it
    within ``[min_replicas, max_replicas]`` on a decision interval (the
    cluster engine runs even when ``replicas == 1``, since the fleet
    can grow).

    ``prefix_cache`` turns on paged prefix/KV reuse across the turns of
    multi-turn sessions
    (:class:`~repro.serving.prefix_cache.PrefixCacheSpec`): finished
    turns keep their KV blocks resident per session, so follow-up turns
    re-prefill only the fresh question.  The paged pool is sized by
    ``kv_budget_bytes``; every replica of a fleet owns its own pool and
    cache.

    ``faults`` injects deterministic failures into the fleet
    (:class:`~repro.cluster.faults.FaultSpec`): seeded replica crashes,
    slowdown windows and transient stalls, with crashed requests
    requeued under a retry budget and recorded as failed once it (or
    the deadline) is spent.  The cluster engine runs even when
    ``replicas == 1`` — a single faulty endpoint is still a fleet of
    one.

    A section is on when it is present and off when it is ``None``.
    """

    chip: str | ChipSpec = "ador"
    model: str = "llama3-8b"
    num_devices: int = 1
    max_batch: int = 256
    prefill_chunk_tokens: int = 512
    kv_budget_bytes: float | None = None
    batching: str = "continuous"
    replicas: int = 1
    router: str = "round-robin"
    autoscale: AutoscaleSpec | None = None
    prefix_cache: PrefixCacheSpec | None = None
    faults: FaultSpec | None = None
    fleet: FleetSpec | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.batching not in BATCHING_POLICIES:
            raise ValueError(
                f"unknown batching policy {self.batching!r}; "
                f"supported: {', '.join(BATCHING_POLICIES)}")
        _canonical_kv_budget(self)
        if self.fleet is not None:
            if self.replicas != 1:
                raise ValueError(
                    f"fleet and replicas={self.replicas} are two "
                    f"competing ways to size the fleet — with an "
                    f"explicit fleet, leave replicas at 1 and size each "
                    f"group via its count")
            defaults = type(self).__dataclass_fields__
            for knob in _ENDPOINT_KNOBS:
                value = getattr(self, knob)
                if value != defaults[knob].default:
                    raise ValueError(
                        f"fleet and {knob}={value!r}: an explicit fleet "
                        f"ignores the top-level {knob} — set it on each "
                        f"group instead")
        if self.autoscale is not None and not (
                self.autoscale.min_replicas <= self.total_replicas
                <= self.autoscale.max_replicas):
            raise ValueError(
                f"replicas={self.total_replicas} (the initial fleet "
                f"size) must lie within the autoscale range "
                f"[{self.autoscale.min_replicas}, "
                f"{self.autoscale.max_replicas}]")
        if self.batching != "continuous":
            # the cluster engine is iteration-faithful only for
            # continuous batching, and the prefix cache rides its
            # scheduler's block accounting: a spec that silently
            # dropped one of these would fake its result
            for knob, present in (
                    (f"replicas={self.replicas}", self.replicas > 1),
                    ("fleet", self.fleet is not None),
                    ("autoscale", self.autoscale is not None),
                    ("prefix_cache", self.prefix_cache is not None),
                    ("faults", self.faults is not None)):
                if present:
                    raise ValueError(
                        f"{knob} requires continuous batching, "
                        f"got {self.batching!r}")
            # the two Fig. 2b loops chunk no prefill and budget no KV,
            # and no-batching has no batch: a knob they ignore is a
            # config mistake, not a setting
            ignored = ["prefill_chunk_tokens", "kv_budget_bytes"]
            if self.batching == "no-batching":
                ignored.append("max_batch")
            defaults = type(self).__dataclass_fields__
            for knob in ignored:
                value = getattr(self, knob)
                if value != defaults[knob].default:
                    raise ValueError(
                        f"{self.batching} batching ignores "
                        f"{knob}={value!r} — leave it at its default")
        if not isinstance(self.router, str):
            # an instance cannot be serialized, and its state would
            # carry from one run of the spec into the next
            raise ValueError(
                f"router must be a registry name, got a "
                f"{type(self.router).__name__} instance (pass instances "
                f"to ClusterEngine(router=...))")
        # unknown names and bad "name:N" thresholds fail here, at any
        # fleet size, not only once a cluster engine is built
        make_router(self.router)

    @property
    def total_replicas(self) -> int:
        """Initial fleet size regardless of how it was expressed."""
        if self.fleet is not None:
            return self.fleet.total_replicas
        return self.replicas

    def fleet_groups(self) -> tuple[ReplicaGroupSpec, ...]:
        """The fleet as explicit groups, whichever way it was spec'd.

        An explicit ``fleet`` returns its groups verbatim; the legacy
        ``replicas=N`` form folds the top-level endpoint knobs into one
        N-replica group, which the engine treats identically.
        """
        if self.fleet is not None:
            return self.fleet.groups
        return (ReplicaGroupSpec(
            chip=self.chip,
            model=self.model,
            count=self.replicas,
            num_devices=self.num_devices,
            max_batch=self.max_batch,
            prefill_chunk_tokens=self.prefill_chunk_tokens,
            kv_budget_bytes=self.kv_budget_bytes,
        ),)

    def with_fleet(self, fleet: FleetSpec) -> DeploymentSpec:
        """This deployment's batching, router and sections over an
        explicit ``fleet``: the endpoint knobs and ``replicas`` go back
        to their defaults, since the fleet's groups carry their own."""
        defaults = type(self).__dataclass_fields__
        return replace(self, fleet=fleet, **{
            knob: defaults[knob].default
            for knob in (*_ENDPOINT_KNOBS, "replicas")})

    def chip_spec(self) -> ChipSpec:
        """The lead group's concrete chip: this deployment's own chip
        unless an explicit ``fleet`` is set."""
        return self.fleet_groups()[0].chip_spec()

    def scheduler_limits(self) -> SchedulerLimits:
        """The lead group's :class:`SchedulerLimits`: the ones this
        deployment's own knobs imply unless an explicit ``fleet`` is
        set."""
        return self.fleet_groups()[0].scheduler_limits()


# --------------------------------------------------------------------- #
# Capacity search                                                        #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class CapacitySpec(SpecCodec):
    """What "capacity" means for an experiment: the SLO and the search.

    Attached to an :class:`Experiment`, it turns ``run_experiment`` /
    ``repro run`` into a Fig. 16-style capacity search: find the highest
    Poisson arrival rate (within ``rate_low..rate_high``, ``iterations``
    bisection steps) whose simulated QoS still meets the TBT (and
    optionally TTFT) SLO at ``percentile``.  The workload spec's
    ``rate_per_s`` is ignored — the rate is what's being searched for.

    ``early_abort`` is the capacity engine's speed knob (see
    :func:`repro.serving.capacity.max_capacity_under_slo`); it leaves
    the found rate identical to the sequential reference search.  The
    retired ``reuse_arrivals`` and ``parallel_probes`` keys are accepted
    and dropped, so older JSON still loads.
    """

    slo_tbt_s: float = 0.050
    slo_ttft_s: float | None = None
    percentile: str = "p95"
    rate_low: float = 0.25
    rate_high: float = 256.0
    iterations: int = 9
    early_abort: bool = True

    _RETIRED_KEYS = {"reuse_arrivals": ANY_VALUE,
                     "parallel_probes": ANY_VALUE}

    def __post_init__(self) -> None:
        super().__post_init__()
        check_search_inputs(self.slo_tbt_s, self.slo_ttft_s,
                            self.percentile,
                            (self.rate_low, self.rate_high),
                            self.iterations)


# --------------------------------------------------------------------- #
# Experiment = deployment + workload + horizon                           #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Experiment(SpecCodec):
    """A complete, runnable, serializable experiment description.

    With a ``capacity`` section the experiment describes a capacity
    search instead of a single fixed-rate simulation.  The retired
    ``name`` key, which nothing read, is accepted and dropped, so older
    JSON still loads.
    """

    deployment: DeploymentSpec = DeploymentSpec()
    workload: WorkloadSpec = WorkloadSpec()
    max_sim_seconds: float = 600.0
    capacity: CapacitySpec | None = field(default=None,
                                          metadata=OMIT_DEFAULT)

    _RETIRED_KEYS = {"name": ANY_VALUE}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.max_sim_seconds > 0:
            raise ValueError("max_sim_seconds must be positive")
