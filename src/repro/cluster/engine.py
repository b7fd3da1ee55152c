"""Multi-replica cluster simulation under one clock.

A :class:`ClusterEngine` is the simulated analogue of a Ray-Serve-style
LLM deployment: one or more groups of identical replicas
(:class:`EngineGroup`: ``count`` replicas of one
:class:`~repro.serving.engine.ServingEngine`, each replica with its own
scheduler, cache and clock) behind a router.  The
global event order is the arrival stream, pulled one request at a time
and merged with a heap of crash retries and parked requests; before each
request is routed, every replica is advanced to the event instant so the
router's load snapshot is current.  One event loop
(:meth:`ClusterEngine.run`) serves every mode: a fixed fleet is a fleet
with no autoscaler policy, and a fault-free run has no fault plans and
makes no call into :mod:`repro.cluster.faults`.

A replica (:class:`ReplicaSim`) is a :class:`repro.serving.engine.Endpoint`
— the same iteration body, decode fast-forward and timing model as
:class:`~repro.serving.engine.ServingEngine`, so a single-replica cluster
reproduces the single-engine results.  Inside a slowdown window the same
body runs with every step time scaled by the window's factor.  A
replica with no work, or whose clock already reached the event, is not
stepped; each routing or decision event builds one five-field
:class:`~repro.cluster.router.ReplicaSnapshot` per routable replica
from its live counters, and an already-sorted arrival list is not
re-sorted.  A replica's outstanding token mass is settled lazily: each
snapshot takes the requests appended to its ``finished`` list since the
previous snapshot off the total.

With an :class:`~repro.cluster.autoscaler.AutoscaleSpec` the fleet is
*dynamic*: an autoscaler policy is evaluated on a fixed decision
interval under the same simulated clock, and replicas move through a
lifecycle — **provisioning** (launched, paying provision latency, not
routable) → **ready** (routable) → **draining** (scale-down target:
stops receiving routed requests but finishes every admitted one) →
**retired** (drained and decommissioned).  Routers only ever see the
ready, non-draining replicas, and they address them by *position in the
snapshot sequence* (see :mod:`repro.cluster.router`), which the engine
maps back to the concrete replica — ids stay correct even when the id
space goes non-contiguous after a scale-down.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.cluster.autoscaler import (
    AutoscalerPolicy,
    AutoscaleSpec,
    FleetObservation,
    make_autoscaler,
)
from repro.cluster.faults import FaultInjector, FaultSpec, ReplicaFaultPlan
from repro.cluster.report import (
    AutoscaleTrace,
    ClusterResult,
    FleetSample,
    GroupBreakdown,
    ScaleEvent,
    aggregate_cluster,
    group_breakdowns,
)
from repro.cluster.router import ReplicaSnapshot, RouterPolicy, make_router
from repro.serving.engine import Endpoint, ServingEngine, SimulationResult
from repro.serving.prefix_cache import PrefixCacheStats
from repro.serving.request import Request
from repro.serving.stream import RequestStream, as_stream


class ReplicaSim(Endpoint):
    """One steppable replica: a continuous-batching endpoint with a
    local clock that the cluster advances between arrivals.

    Lifecycle (all timestamps on the cluster's simulated clock):
    ``launched_at`` is when the autoscaler (or the initial fleet)
    created the replica, ``ready_at`` when it finishes provisioning and
    becomes routable, ``drain_started_at`` when a scale-down marked it
    draining (no new routed requests; admitted work still finishes) and
    ``retired_at`` when it drained and left the fleet.  A static fleet
    never moves past "ready": every replica has ``launched_at ==
    ready_at == 0.0`` and retires implicitly at the end of the run.
    """

    def __init__(self, replica_id: int, group_index: int,
                 group: EngineGroup) -> None:
        # the replica steps its group's engine but owns its scheduler,
        # cache and paged pool — prefix residency is per-endpoint, which
        # is exactly what makes the router choice (session-affinity vs
        # round-robin) show up in hit rates.  ``pending`` holds routed
        # requests not yet enqueued
        super().__init__(group.engine, deque(), [])
        self.replica_id = replica_id
        self.group_index = group_index
        # the group's probed rates (0.0 on a homogeneous fleet)
        self.prefill_rate = group.prefill_tokens_per_s
        self.decode_rate = group.decode_tokens_per_s
        self.assigned_requests = 0
        # input+output tokens routed here and not finished or lost; the
        # completions since the last snapshot come off at the next one
        self._outstanding_tokens = 0
        self._counted_finished = 0
        # --- lifecycle (managed by the cluster engine) ---
        self.launched_at = 0.0
        self.ready_at = 0.0
        self.from_warm_pool = False
        self.draining = False
        self.drain_started_at: float | None = None
        self.retired_at: float | None = None
        self.reported_finished = 0  # completions already seen by a decision
        # --- faults (armed only when the run injects faults) ---
        self.fault_plan: ReplicaFaultPlan | None = None
        self.restart_at = 0.0  # crashed-until instant; 0.0 = never down
        self._prior_cache_stats: list[PrefixCacheStats] = []

    # ------------------------------------------------------------------ #
    # Router-facing state                                                  #
    # ------------------------------------------------------------------ #

    @property
    def outstanding_requests(self) -> int:
        return self.assigned_requests - len(self.finished)

    @property
    def has_work(self) -> bool:
        """Anything routed here that has not finished yet."""
        return bool(self.pending) or self.scheduler.has_work

    def snapshot(self) -> ReplicaSnapshot:
        """The router's view of this replica, built from the live
        counters at each routing or decision event.

        ``finished`` only grows, so the requests that completed since
        the previous snapshot are the ones past ``_counted_finished``;
        their token mass leaves the outstanding total here.
        """
        finished = self.finished
        counted = self._counted_finished
        if counted < len(finished):
            tokens = self._outstanding_tokens
            for request in finished[counted:]:
                tokens -= request.input_tokens + request.output_tokens
            self._outstanding_tokens = tokens
            self._counted_finished = len(finished)
        return ReplicaSnapshot(
            replica_id=self.replica_id,
            outstanding_requests=self.outstanding_requests,
            outstanding_tokens=self._outstanding_tokens,
            prefill_tokens_per_s=self.prefill_rate,
            decode_tokens_per_s=self.decode_rate,
        )

    # ------------------------------------------------------------------ #
    # Simulation                                                           #
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> None:
        """Route ``request`` here; it arrives when the clock reaches it.

        The cluster routes in global arrival order, so ``pending`` stays
        sorted by arrival time without re-sorting.
        """
        self.pending.append(request)
        self.assigned_requests += 1
        self._outstanding_tokens += request.input_tokens \
            + request.output_tokens

    def advance_to(self, target: float, horizon: float,
                   factor: float = 1.0) -> None:
        """Run iterations until the clock reaches ``min(target, horizon)``
        or the replica goes idle with nothing arriving before then.

        The same iteration body as ``ServingEngine.run``
        (:meth:`Endpoint.advance`), with every step time multiplied by
        ``factor``: an iteration starts whenever the clock is still below
        the limit, even if it ends past it, and an idle replica's clock
        stays at its last event (never inflated to the horizon).  A
        replica with no work, or whose clock already reached the limit,
        is not stepped, so its counters (and its next snapshot) are
        unchanged.
        """
        if not self.has_work:
            return
        limit = min(target, horizon)
        if self.now < limit:
            self.advance(limit, factor)

    def advance_faulty(self, target: float, horizon: float) -> None:
        """Plan-aware :meth:`advance_to`: honors the replica's stall
        windows, slowdown factors and next crash boundary.

        The clock never crosses the plan's ``crash_at`` — the cluster
        fires the crash there.  Between window edges the advance runs
        the plain stepper, scaled by the slowdown factor inside a
        slowdown window (decode bursts included).
        """
        plan = self.fault_plan
        limit = min(target, horizon)
        crash = plan.crash_at
        if crash is not None:
            limit = min(limit, crash)
        if self.now < self.restart_at:
            # down after a crash: the clock holds until new work routed
            # post-restart pulls it across the outage (same idle-clock
            # rule as advance_to — downtime with no work costs nothing)
            if not self.has_work:
                return
            self.now = min(self.restart_at, limit)
            if self.now < self.restart_at:
                return
        while self.now < limit:
            if not self.has_work:
                return
            window = plan.window_at(self.now)
            if window is not None and window.kind == "stall":
                self.now = min(window.end_s, limit)
                continue
            segment = plan.next_boundary(self.now, limit)
            before = self.now
            self.advance_to(segment, horizon,
                            1.0 if window is None else window.factor)
            if not self.now > before:
                # idle with nothing arriving before the boundary — the
                # inner advance already concluded there is no progress
                return

    def crash_reset(self, when: float, restart_at: float) -> list[Request]:
        """Crash at ``when``: every in-flight request loses its generated
        work and leaves the replica; scheduler and per-replica prefix
        cache restart cold.  Returns the lost requests (sorted by
        arrival, then id — a stable requeue order independent of
        scheduler internals) for cluster-level retry accounting.
        Completed work and busy/iteration counters survive — a crash
        destroys state, not history.
        """
        lost = (list(self.scheduler.prefilling)
                + list(self.scheduler.decoding)
                + list(self.scheduler.queued)
                + list(self.pending))
        self.assigned_requests -= len(lost)
        self._outstanding_tokens -= sum(r.input_tokens + r.output_tokens
                                        for r in lost)
        if self.prefix_cache is not None:
            self._prior_cache_stats.append(self.prefix_cache.stats)
        self._cold_start()
        self.pending = deque()
        self.now = max(self.now, when)
        self.restart_at = restart_at
        lost.sort(key=lambda r: (r.arrival_time, r.request_id))
        return lost

    def result(self) -> SimulationResult:
        """This replica's outcome in the single-engine result shape."""
        result = super().result()
        if self._prior_cache_stats:
            # a crash restarts the cache cold; pre-crash stats are
            # stashed so the replica's reuse history stays complete
            result.prefix_cache = PrefixCacheStats.merged(
                self._prior_cache_stats + [self.prefix_cache.stats])
        return result


def _sorted_by_arrival(requests):
    """The arrival stream in time order.

    Lists and tuples keep the pre-streaming behavior: scanned once and
    returned as-is when already sorted (repeat runs over one stream skip
    the re-sort), sorted into a copy otherwise.  A
    :class:`~repro.serving.stream.RequestStream` — or any other lazy
    iterable, which gets wrapped into one — must *not* be materialized
    or re-sorted here: the stream checks monotonicity online as each
    request is pulled and raises
    :class:`~repro.serving.stream.OutOfOrderArrival` naming the
    offending timestamp the moment a producer emits out of order.
    """
    if isinstance(requests, RequestStream):
        return requests
    if not isinstance(requests, (list, tuple)):
        return as_stream(requests)
    previous = None
    for request in requests:
        if previous is not None and request.arrival_time < previous:
            return sorted(requests, key=lambda r: r.arrival_time)
        previous = request.arrival_time
    return requests


class EngineGroup:
    """One homogeneous slice of the fleet: ``count`` replicas of one
    endpoint.

    The runtime form of :class:`repro.api.specs.ReplicaGroupSpec`:
    ``engine`` is the group's one
    :class:`~repro.serving.engine.ServingEngine` (device, model,
    limits, device count, fast-forward switch and prefix-cache spec),
    which every replica of the group steps — it holds no run state, so
    sharing it is safe.  A group is known by its position in the
    engine's list; its chip is ``engine.device.chip``.  The two
    capability rates are filled by the cluster engine's one-time
    capability probe — only when the fleet actually mixes groups, so a
    homogeneous fleet never pays (or exposes) them.
    """

    __slots__ = ("name", "engine", "count", "cost_per_replica_s",
                 "min_count", "max_count", "provision_latency_s",
                 "prefill_tokens_per_s", "decode_tokens_per_s")

    def __init__(self, name: str, engine: ServingEngine, count: int = 1,
                 cost_per_replica_s: float = 1.0,
                 min_count: int | None = None,
                 max_count: int | None = None,
                 provision_latency_s: float | None = None) -> None:
        if count < 0:
            raise ValueError("group count must be >= 0")
        if cost_per_replica_s <= 0:
            raise ValueError("cost_per_replica_s must be positive")
        self.name = name
        self.engine = engine
        self.count = count
        self.cost_per_replica_s = cost_per_replica_s
        self.min_count = min_count
        self.max_count = max_count
        self.provision_latency_s = provision_latency_s
        self.prefill_tokens_per_s = 0.0
        self.decode_tokens_per_s = 0.0

    def floor(self) -> int:
        """Scale-down floor: the group never shrinks below this."""
        return self.min_count if self.min_count is not None else 0


class ClusterEngine:
    """A fleet of replica groups behind a router, one simulated clock.

    ``groups`` lists the fleet's :class:`EngineGroup` objects; a
    homogeneous fleet is one group of ``count`` replicas.  Replica ids
    are assigned group by group, every replica steps its group's
    engine, and — only when more than one group exists — a one-time
    capability probe stamps each group's prefill/decode rate estimate
    into the router snapshots.

    ``run`` is reusable: every call builds fresh replicas and (for
    routers given by name) a fresh router instance, so two runs on one
    engine never share clocks, schedulers or session pins.  A router
    passed as an *instance* is reused as-is — the caller owns its state.

    With ``autoscale`` set, the groups' counts are the *initial* fleet
    and the named :class:`~repro.cluster.autoscaler.AutoscalerPolicy`
    (or the ``autoscaler`` instance) is consulted every
    ``decision_interval_s`` of simulated time; the run then returns a
    :class:`ClusterResult` whose ``autoscale`` field carries the
    scale-event log, fleet-size timeline and replica-seconds
    accounting.  All built-ins are deterministic: the same stream and
    spec always reproduce the identical assignment and scaling history.
    """

    def __init__(
        self,
        groups: list[EngineGroup],
        router: str | RouterPolicy = "round-robin",
        autoscale: AutoscaleSpec | None = None,
        autoscaler: AutoscalerPolicy | None = None,
        faults: FaultSpec | None = None,
    ) -> None:
        if not groups:
            raise ValueError("groups must be a non-empty list")
        replicas = sum(group.count for group in groups)
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if autoscale is not None and not (
                autoscale.min_replicas <= replicas
                <= autoscale.max_replicas):
            raise ValueError(
                f"initial replicas={replicas} outside the autoscale "
                f"range [{autoscale.min_replicas}, "
                f"{autoscale.max_replicas}]")
        if autoscaler is not None and autoscale is None:
            raise ValueError("autoscaler instance given without an "
                             "AutoscaleSpec")
        if faults is not None and not isinstance(faults, FaultSpec):
            raise ValueError(
                f"faults must be a FaultSpec or None, got {faults!r}")
        self.groups = groups
        self.router = router
        self.autoscale = autoscale
        self.autoscaler = autoscaler
        self.faults = faults
        if len(groups) > 1:
            self._probe_capabilities()
        make_router(router)  # fail on unknown names at construction

    def _probe_capabilities(self) -> None:
        """Single-request microbenchmark per group: estimated prefill
        and decode token rates, comparable across chips.

        Entered only for mixed fleets — these rates flow into every
        router snapshot, and the homogeneous contract is that snapshots
        (and code paths) stay byte-identical to the pre-group engine.
        """
        for group in self.groups:
            engine = group.engine
            prefill_s = engine.device.prefill_time(
                engine.model, 1, 512, engine.num_devices).seconds
            group.prefill_tokens_per_s = 512.0 / prefill_s \
                if prefill_s > 0 else 0.0
            decode_s = engine.device.decode_step_time(
                engine.model, 8, 512, engine.num_devices).seconds
            group.decode_tokens_per_s = 8.0 / decode_s \
                if decode_s > 0 else 0.0

    @staticmethod
    def _route(router: RouterPolicy, request: Request,
               routable: list[ReplicaSim]) -> ReplicaSim:
        """One routing decision: snapshot, ask, map position -> replica.

        The router returns a position in the snapshot sequence (see
        :mod:`repro.cluster.router`); the engine owns the translation
        back to the concrete replica, so router code never needs to
        know that fleet ids can be non-contiguous.
        """
        snapshots = [replica.snapshot() for replica in routable]
        position = router.route(request, snapshots)
        if not 0 <= position < len(snapshots):
            raise ValueError(
                f"router returned replica index {position}, "
                f"snapshot lists {len(snapshots)} replicas")
        return routable[position]

    def run(self, requests, max_sim_seconds: float = 600.0, *,
            progress=None) -> ClusterResult:
        """Route the arrival stream, drain every replica, aggregate.

        One event loop serves every mode.  ``requests`` is a list (the
        classic path) or a lazy iterable /
        :class:`~repro.serving.stream.RequestStream`, pulled one arrival
        at a time and merged with the retry heap — bit-identical results
        either way, and the stream is never more than one request ahead
        of routing, faults or not.  Before each routing event every
        replica is advanced to its instant (and, on an autoscaled fleet,
        every decision due by then runs first).  ``progress`` is called
        as ``progress(sim_time, done_count)`` once per routed request;
        wall-clock throttling lives in the caller, keeping the engine
        deterministic.
        """
        horizon = max_sim_seconds
        router = make_router(self.router)
        policy = None
        if self.autoscale is not None:
            policy = self.autoscaler if self.autoscaler is not None \
                else make_autoscaler(self.autoscale.policy)
        fleet = _Fleet(self.groups, self.autoscale, policy, self.faults,
                       horizon)
        arrivals = as_stream(_sorted_by_arrival(requests))
        retries = fleet.retries
        last = 0.0
        while True:
            while True:
                # the earlier of the stream head and the retry heap; an
                # arrival keys as (t, 0, stream index), so it wins ties
                if arrivals and (not retries or (
                        arrivals[0].arrival_time, 0, arrivals.emitted)
                        < retries[0]):
                    kind, order = 0, arrivals.emitted
                    request = arrivals.popleft()
                    now = request.arrival_time
                elif retries:
                    now, kind, order, request = heapq.heappop(retries)
                else:
                    break
                last = max(last, now)
                fleet.decide_due(now, horizon)
                fleet.advance(now, horizon)
                fleet.fire(now)
                if retries and retries[0][0] < now:
                    # a crash pushed retries behind this event in time:
                    # requeue it under its own key and serve them first
                    heapq.heappush(retries, (now, kind, order, request))
                    continue
                if fleet.timed_out(request, now):
                    continue
                routable = fleet.routable(now)
                if not routable:
                    fleet.park(request, now, horizon)
                    continue
                self._route(router, request, routable).submit(request)
                if progress is not None:
                    progress(now, sum(len(r.finished) for r in fleet.live))
            if policy is not None and fleet.next_decision <= horizon \
                    and any(r.has_work for r in fleet.live):
                # keep the control loop ticking while the fleet drains,
                # so post-traffic scale-downs (and their replica-second
                # savings) are part of the simulated history
                fleet.decide_due(fleet.next_decision, horizon)
                continue
            fleet.advance(float("inf"), horizon)
            if not fleet.fire(last):
                break
        return fleet.finalize(arrivals.emitted)


class _Fleet:
    """Replica lifecycle, crash handling and the retry heap for one
    cluster run — every mode in one class.

    A *fixed* fleet has no autoscaler policy: it never decides, its
    replicas stay ready for the whole run, and a crashed replica
    restarts in place after ``restart_delay_s`` (the machine reboots;
    it is unroutable while down).  An *autoscaled* fleet runs the
    policy every ``decision_interval_s``; scale-ups pay the cold
    provision latency unless warm stock is available; scale-downs
    cancel still-provisioning replicas first (newest first — they hold
    no work), then drain the ready replica with the fewest outstanding
    requests (ties to the newest id).  Retiring a replica returns one
    slot to the warm pool, capped at ``warm_pool_size``.  A crashed
    replica retires on the spot — dead hardware is not a warm machine,
    so the pool is *not* refilled — and the next decision sees the loss
    as ``launched < desired``.

    On a multi-group fleet the same lifecycle runs per group: each
    scale-up unit launches into the *cheapest* group still under its
    ``max_count`` (cost ties to the earliest group), each scale-down
    unit removes from the most expensive group above its ``min_count``
    (ties to the latest group), a group-level ``provision_latency_s``
    overrides the fleet-wide cold latency, and warm stock is kept per
    group (a warm GPU is not a warm ADOR).  With one group every choice
    collapses to the single-pool behavior, bit for bit.

    With faults off ``injector`` is ``None`` and nothing here calls into
    :mod:`repro.cluster.faults`.  With faults on, each replica's fault
    plan is armed at its first advance, once its launch time is known,
    so its schedule is independent of fleet dynamics.  ``retries`` is
    the heap of routing events that did not come straight from the
    arrival stream: ``(t, 1, push count, request)`` for crash retries
    and parked requests, ``(t, 0, stream index, request)`` for an
    arrival requeued behind them — together with the stream's
    ``(t, 0, index)`` keys one deterministic total order that never
    compares two :class:`Request` objects.
    """

    def __init__(self, groups: list[EngineGroup],
                 spec: AutoscaleSpec | None,
                 policy: AutoscalerPolicy | None,
                 faults: FaultSpec | None, horizon: float) -> None:
        self.groups = groups
        self.spec = spec
        self.policy = policy
        self.injector = FaultInjector(faults, horizon) \
            if faults is not None else None
        self.retries: list[tuple[float, int, int, Request]] = []
        self._pushes = 0
        # the initial fleet: ids run 0..N-1 group by group, in spec order
        self.live: list[ReplicaSim] = []
        for index, group in enumerate(groups):
            for _ in range(group.count):
                self.live.append(ReplicaSim(len(self.live), index, group))
        self.everyone: list[ReplicaSim] = list(self.live)
        self.initial = len(self.live)
        self.next_id = self.initial
        # a fixed fleet's next decision never comes
        self.next_decision = spec.decision_interval_s \
            if policy is not None else float("inf")
        self.warm_stock = [spec.warm_pool_size if spec else 0
                           for _ in groups]
        self.events: list[ScaleEvent] = []
        self.samples: list[FleetSample] = []
        self.warm_launches = 0
        self.cold_launches = 0
        self._last_decision = 0.0
        self._busy_prev = 0.0
        self._retired_busy = 0.0

    # ------------------------------------------------------------------ #
    # Queries                                                              #
    # ------------------------------------------------------------------ #

    def routable(self, now: float) -> list[ReplicaSim]:
        """Ready, non-draining replicas that are not down after a crash
        — what the router may target."""
        return [r for r in self.live
                if not r.draining and r.ready_at <= now
                and r.restart_at <= now]

    def _launched(self) -> list[ReplicaSim]:
        """Ready + provisioning replicas: what counts toward ``desired``
        (draining ones are already on their way out)."""
        return [r for r in self.live if not r.draining]

    def _launched_per_group(self) -> list[int]:
        counts = [0] * len(self.groups)
        for replica in self._launched():
            counts[replica.group_index] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Stepping, crashes and retries                                        #
    # ------------------------------------------------------------------ #

    def advance(self, target: float, horizon: float) -> None:
        injector = self.injector
        if injector is None:
            for replica in self.live:
                replica.advance_to(target, horizon)
            return
        for replica in self.live:
            if replica.fault_plan is None:
                replica.fault_plan = injector.plan_for(
                    replica.replica_id, replica.launched_at)
            replica.advance_faulty(target, horizon)

    def fire(self, global_now: float) -> bool:
        """Fire every due crash; returns whether any fired.

        A crash is due once the run's event clock passes it, or — for a
        replica that stopped at its crash boundary with work in hand —
        as soon as the replica's own clock reaches it.  An idle
        replica's *future* crash never fires during the drain: nothing
        is there to lose and nothing waits on the machine.
        """
        injector = self.injector
        if injector is None:
            return False
        fired = False
        for replica in list(self.live):
            plan = replica.fault_plan
            if plan is None or plan.crash_at is None:
                continue
            crash = plan.crash_at
            if crash > injector.horizon:
                continue
            due = crash <= global_now \
                or (replica.has_work and replica.now >= crash)
            if not due:
                continue
            # iterations are indivisible: a crash mid-iteration takes
            # effect when the iteration ends (replica.now), never before
            # the scheduled instant itself
            when = max(crash, replica.now)
            fired = True
            if self.policy is None:
                # a fixed fleet's machine reboots in place
                downtime = injector.spec.restart_delay_s
                restart = when + downtime
            else:
                # an elastic fleet retires dead hardware and the policy
                # replaces the capacity
                downtime, restart = 0.0, float("inf")
                replica.retired_at = when
                self._retired_busy += replica.busy
                self.live.remove(replica)
            lost = replica.crash_reset(when, restart)
            plan.note_crash(restart)
            injector.record_crash(replica.replica_id, when, len(lost),
                                  downtime)
            for request in lost:
                self._requeue(request, when)
        return fired

    def push(self, time: float, request: Request) -> None:
        heapq.heappush(self.retries, (time, 1, self._pushes, request))
        self._pushes += 1

    def _requeue(self, request: Request, when: float) -> None:
        """Retry a crash-lost request, or record it failed when its
        retry budget or deadline is spent."""
        spec = self.injector.spec
        if request.retries >= spec.max_retries \
                or (spec.request_timeout_s is not None and when
                    - request.arrival_time > spec.request_timeout_s):
            self.injector.fail(request)
        else:
            request.reset_for_retry()
            self.injector.retries += 1
            self.push(when, request)

    def timed_out(self, request: Request, now: float) -> bool:
        """Deadline check at routing time; a missed deadline is a
        recorded terminal failure, not a silent drop."""
        if self.injector is None:
            return False
        timeout = self.injector.spec.request_timeout_s
        if timeout is not None and now - request.arrival_time > timeout:
            self.injector.fail(request)
            return True
        return False

    def park(self, request: Request, now: float, horizon: float) -> None:
        """No routable replica: defer ``request`` to the next instant
        capacity can appear — a restart within the horizon, a
        provisioning replica becoming ready, or the next decision (which
        can launch replacements) — or record it failed when none can.

        Without faults capacity always appears: scale-downs clamp at
        ``min_replicas >= 1`` non-draining replicas, so when none is
        ready one is provisioning (a mixed fleet can drain its last
        ready replica in an expensive group while a cheap replacement
        still provisions).  Only a fault run can fail a request here.
        """
        candidates = [r.ready_at for r in self.live
                      if not r.draining and r.ready_at > now]
        candidates += [r.restart_at for r in self.live
                       if now < r.restart_at <= horizon]
        if self.policy is not None and self.next_decision <= horizon:
            candidates.append(self.next_decision)
        if candidates:
            self.push(min(candidates), request)
        else:
            self.injector.fail(request)

    # ------------------------------------------------------------------ #
    # Decision instants                                                    #
    # ------------------------------------------------------------------ #

    def decide_due(self, now: float, horizon: float) -> None:
        """Run every decision instant at or before ``now``."""
        while self.next_decision <= now and self.next_decision <= horizon:
            self.decide(self.next_decision, horizon)
            self.next_decision += self.spec.decision_interval_s

    def decide(self, now: float, horizon: float) -> None:
        spec = self.spec
        self.advance(now, horizon)
        # fire due crashes before the policy looks: lost capacity must
        # be visible as launched < desired at this very decision
        self.fire(now)
        interval_ttfts = self._collect_interval_ttfts()
        self._retire_drained()
        routable = self.routable(now)
        launched = self._launched()
        observation = FleetObservation(
            clock_s=now,
            replicas=tuple(r.snapshot() for r in routable),
            provisioning=len(launched) - len(routable),
            interval_ttft_s=tuple(interval_ttfts),
        )
        desired = int(self.policy.desired_replicas(observation))
        desired = min(max(desired, spec.min_replicas), spec.max_replicas)
        delta = desired - len(launched)
        if delta > 0:
            self._scale_up(now, delta)
        elif delta < 0:
            self._scale_down(now, -delta)
        self._sample(now, observation)
        self._last_decision = now

    def _collect_interval_ttfts(self) -> list[float]:
        """TTFT of every request that completed since the last decision
        (including on replicas that drained in the meantime)."""
        ttfts: list[float] = []
        for replica in self.live:
            new = replica.finished[replica.reported_finished:]
            replica.reported_finished = len(replica.finished)
            ttfts.extend(r.ttft for r in new)
        return ttfts

    def _retire_drained(self) -> None:
        kept = []
        for replica in self.live:
            if replica.draining and not replica.has_work:
                # decommission backdated to when the last admitted
                # request actually finished, not when the control loop
                # noticed — replica-seconds stay honest
                self._retire(replica,
                             max(replica.now, replica.drain_started_at))
            else:
                kept.append(replica)
        self.live = kept

    def _retire(self, replica: ReplicaSim, when: float) -> None:
        replica.retired_at = when
        self._retired_busy += replica.busy
        # a drained (once-ready) replica is a warm machine and refills
        # its group's pool; a cancelled warm launch returns the slot it
        # took.  A cancelled *cold* launch never finished provisioning,
        # so no warm machine exists to return.
        if replica.ready_at <= when or replica.from_warm_pool:
            group = replica.group_index
            self.warm_stock[group] = min(self.warm_stock[group] + 1,
                                         self.spec.warm_pool_size)

    def _scale_up(self, now: float, count: int) -> None:
        spec = self.spec
        warm_used = 0
        ids = []
        launched = self._launched_per_group()
        groups = self.groups
        for _ in range(count):
            # cheapest group with headroom wins each unit; ties break
            # to the earliest group, so a one-group fleet always picks
            # its only group
            eligible = [i for i, g in enumerate(groups)
                        if g.max_count is None or launched[i] < g.max_count]
            if not eligible:
                break
            index = min(eligible,
                        key=lambda i: (groups[i].cost_per_replica_s, i))
            group = groups[index]
            warm = self.warm_stock[index] > 0
            if warm:
                self.warm_stock[index] -= 1
                warm_used += 1
                self.warm_launches += 1
                latency = spec.warm_provision_s
            else:
                self.cold_launches += 1
                latency = group.provision_latency_s \
                    if group.provision_latency_s is not None \
                    else spec.provision_latency_s
            replica = ReplicaSim(self.next_id, index, group)
            replica.launched_at = now
            replica.ready_at = now + latency
            replica.from_warm_pool = warm
            ids.append(self.next_id)
            self.next_id += 1
            self.live.append(replica)
            self.everyone.append(replica)
            launched[index] += 1
        if ids:
            self.events.append(ScaleEvent(
                clock_s=now, kind="up", delta=len(ids),
                replicas_after=len(self._launched()),
                warm_used=warm_used, replica_ids=tuple(ids)))

    def _scale_down_victim(self, now: float,
                           launched: list[int]
                           ) -> tuple[ReplicaSim, bool] | None:
        """Pick one replica to remove: ``(replica, cancel)`` where
        ``cancel`` means it was still provisioning (never served).

        The most expensive group above its floor gives up a replica
        first (cost ties to the latest group — the mirror of scale-up's
        earliest-group preference, so a fleet converges back to its
        cheap groups); within a group, still-provisioning replicas are
        cancelled newest-id first before any ready replica drains.
        """
        groups = self.groups
        eligible = [i for i, g in enumerate(groups)
                    if launched[i] > g.floor()]
        while eligible:
            index = max(eligible,
                        key=lambda i: (groups[i].cost_per_replica_s, i))
            provisioning = [r for r in self.live
                            if not r.draining and r.ready_at > now
                            and r.group_index == index]
            if provisioning:
                return max(provisioning,
                           key=lambda r: r.replica_id), True
            ready = [r for r in self.live
                     if not r.draining and r.ready_at <= now
                     and r.group_index == index]
            if ready:
                return min(ready,
                           key=lambda r: (r.outstanding_requests,
                                          -r.replica_id)), False
            eligible.remove(index)
        return None

    def _scale_down(self, now: float, count: int) -> None:
        ids = []
        drained = False
        launched = self._launched_per_group()
        for _ in range(count):
            victim = self._scale_down_victim(now, launched)
            if victim is None:
                break
            replica, cancel = victim
            if cancel:
                # never served traffic: cancel, don't drain
                self._retire(replica, now)
                self.live.remove(replica)
            else:
                replica.draining = True
                replica.drain_started_at = now
                drained = True
            launched[replica.group_index] -= 1
            ids.append(replica.replica_id)
        if drained:
            self._retire_drained()  # already-idle ones retire instantly
        if ids:
            self.events.append(ScaleEvent(
                clock_s=now, kind="down", delta=-len(ids),
                replicas_after=len(self._launched()),
                warm_used=0, replica_ids=tuple(ids)))

    def _sample(self, now: float, observation: FleetObservation) -> None:
        """Timeline entry: the fleet composition *after* the decision
        was enacted, plus the load/utilization the policy based it on."""
        interval = now - self._last_decision
        busy_total = sum(r.busy for r in self.live) + self._retired_busy
        alive = self._alive_seconds(now - interval, now)
        launched = self._launched()
        ready = self.routable(now)
        self.samples.append(FleetSample(
            clock_s=now,
            ready=len(ready),
            provisioning=len(launched) - len(ready),
            draining=len(self.live) - len(launched),
            outstanding_requests=observation.outstanding_requests,
            utilization=(busy_total - self._busy_prev) / alive
            if alive > 0 else 0.0,
        ))
        self._busy_prev = busy_total

    def _alive_seconds(self, start: float, end: float,
                       group: int | None = None) -> float:
        """Replica-seconds spent inside the window ``[start, end]``,
        optionally restricted to one replica group."""
        total = 0.0
        for replica in self.everyone:
            if group is not None and replica.group_index != group:
                continue
            stop = replica.retired_at if replica.retired_at is not None \
                else end
            total += max(0.0, min(stop, end) - max(replica.launched_at,
                                                   start))
        return total

    # ------------------------------------------------------------------ #
    # End of run                                                           #
    # ------------------------------------------------------------------ #

    def finalize(self, pulled: int) -> ClusterResult:
        """Aggregate the run, checking that every request pulled from
        the arrival stream ended finished, unfinished or failed."""
        self._retire_drained()
        outcomes = [(replica, replica.result())
                    for replica in self.everyone]
        wall = max((result.total_time_s for _, result in outcomes),
                   default=0.0)
        # a replica holding routed work is reported even when it only
        # became ready after the wall clock of a truncated run
        served = [(replica, result) for replica, result in outcomes
                  if replica.assigned_requests
                  or self._ever_ready(replica, wall)]
        results = [result for _, result in served]
        faults = self.injector.trace(wall) \
            if self.injector is not None else None
        accounted = sum(len(result.finished) + len(result.unfinished)
                        for result in results) \
            + (len(faults.failed) if faults is not None else 0)
        if accounted != pulled:
            raise RuntimeError(
                f"request conservation broken: the report accounts for "
                f"{accounted} requests, {pulled} were pulled from the "
                f"arrival stream")
        breakdowns: tuple[GroupBreakdown, ...] | None = None
        if len(self.groups) > 1:
            group_ids = [replica.group_index for replica, _ in served]
            meta = [(g.name, g.cost_per_replica_s) for g in self.groups]
            if self.policy is None:
                seconds = [wall * g.count for g in self.groups]
            else:
                seconds = [self._alive_seconds(0.0, wall, group=index)
                           for index in range(len(self.groups))]
            breakdowns = group_breakdowns(results, group_ids, meta,
                                          seconds)
        trace = None
        if self.policy is not None:
            trace = AutoscaleTrace(
                events=tuple(self.events),
                timeline=tuple(self.samples),
                replica_seconds=self._alive_seconds(0.0, wall),
                launched=len(self.everyone),
                retired=sum(1 for r in self.everyone
                            if r.retired_at is not None),
                # the timeline samples post-decision states only, so the
                # fleet that ran before the first decision is the floor
                peak_replicas=max([self.initial]
                                  + [s.ready + s.provisioning
                                     for s in self.samples]),
                warm_launches=self.warm_launches,
                cold_launches=self.cold_launches,
            )
        return aggregate_cluster(results, autoscale=trace, faults=faults,
                                 groups=breakdowns)

    @staticmethod
    def _ever_ready(replica: ReplicaSim, wall: float) -> bool:
        """False for replicas that never finished provisioning — whether
        cancelled by a scale-down or still mid-provision when the run
        ended.  Without routed work they never existed from the
        traffic's point of view, so they carry no per-replica result (an
        all-zero entry would skew the load-imbalance stats); they still
        cost replica-seconds."""
        end = replica.retired_at if replica.retired_at is not None \
            else wall
        return replica.ready_at <= end
