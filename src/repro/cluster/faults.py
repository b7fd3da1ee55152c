"""Deterministic fault injection for cluster runs.

A :class:`FaultSpec` describes *what goes wrong* with a fleet — replica
crashes, slowdown (straggler) windows and transient stalls — either as
seeded MTBF/MTTR renewal processes or as an explicit event list for
regression tests.  Everything is drawn from per-replica
``default_rng((seed, replica_id))`` substreams, so the schedule of one
replica never depends on how many others exist or when they launch:
the same spec + seed always reproduces the identical fault history,
retry sequence and QoS.

Semantics, matched to what the serving layer can honestly model:

* **crash** — the replica's in-flight work (queued, prefilling,
  decoding, routed-but-pending) is lost; its scheduler and per-replica
  prefix cache restart cold.  In a fixed fleet the machine restarts
  after ``restart_delay_s``; in an autoscaled fleet it retires (dead
  hardware is not a warm machine) and the autoscaler replaces the lost
  capacity through the normal provisioning/warm-pool lifecycle.  Lost
  requests are requeued with retry accounting under ``max_retries`` and
  the optional ``request_timeout_s`` deadline, after which they are
  recorded as *failed* — a terminal state, never silently dropped.
* **slowdown** — a straggler window: every iteration's step time on the
  replica is multiplied by ``slowdown_factor`` for
  ``slowdown_duration_s``; work keeps flowing, just slower.
* **stall** — the replica stops advancing for ``stall_duration_s``
  (a GC pause / network partition), then resumes where it left off.
  Stalled replicas stay routable — a router cannot see a stall that has
  not happened yet, only the queue it causes.

The cluster engine consults the spec only when a deployment carries
one; with ``faults=None`` a run makes zero calls into this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.spec_codec import SpecCodec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.serving.request import Request

_EVENT_KINDS = ("crash", "slowdown", "stall")


@dataclass(frozen=True)
class FaultEvent(SpecCodec):
    """One explicitly scheduled fault, for regression-style specs.

    ``duration_s`` is the window length for ``slowdown``/``stall`` and
    ignored for ``crash`` (downtime comes from the spec's
    ``restart_delay_s``); ``factor`` only applies to ``slowdown``.
    Events naming replica ids that never exist in the run simply never
    fire — a spec can be reused across fleet sizes.
    """

    kind: str
    replica_id: int
    time_s: float
    duration_s: float = 0.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in _EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"supported: {', '.join(_EVENT_KINDS)}")
        if self.replica_id < 0:
            raise ValueError("replica_id must be non-negative")
        if not self.time_s >= 0:
            raise ValueError("fault time_s must be non-negative")
        if self.kind in ("slowdown", "stall") and not self.duration_s > 0:
            raise ValueError(
                f"a {self.kind} window needs duration_s > 0")
        if not self.duration_s >= 0:
            raise ValueError("duration_s must be non-negative")
        if not self.factor >= 1:
            raise ValueError(
                "slowdown factor must be >= 1 (a straggler is slower, "
                "not faster)")


@dataclass(frozen=True)
class FaultSpec(SpecCodec):
    """What goes wrong, when, and what the serving layer owes each request.

    Rates are mean-time-between-failures of independent per-replica
    exponential renewal processes (``None`` disables that fault class);
    ``events`` adds explicitly scheduled faults on top — the regression
    escape hatch.  ``max_retries`` is the per-request retry budget after
    crashes and ``request_timeout_s`` the wall-clock deadline (measured
    from the original arrival) after which a request is recorded as
    failed instead of retried.  ``slo_ttft_s`` defines goodput: finished
    requests whose TTFT met the SLO, per second of fleet wall time.
    Injection is on when a deployment carries this spec.  JSON carrying
    the retired ``"enabled": true`` still loads; ``"enabled": false``
    fails, since dropping it would turn injection on.
    """

    seed: int = 0
    crash_mtbf_s: float | None = None
    restart_delay_s: float = 10.0
    slowdown_mtbf_s: float | None = None
    slowdown_factor: float = 2.0
    slowdown_duration_s: float = 5.0
    stall_mtbf_s: float | None = None
    stall_duration_s: float = 2.0
    max_retries: int = 2
    request_timeout_s: float | None = None
    slo_ttft_s: float = 1.0
    events: tuple[FaultEvent, ...] = ()

    _RETIRED_KEYS = {"enabled": True}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.seed < 0:
            raise ValueError(
                "seed must be non-negative (it feeds per-replica rng "
                "substreams)")
        for name in ("crash_mtbf_s", "slowdown_mtbf_s", "stall_mtbf_s",
                     "request_timeout_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive (or None)")
        if not self.restart_delay_s >= 0:
            raise ValueError("restart_delay_s must be non-negative")
        if not self.slowdown_factor >= 1:
            raise ValueError("slowdown_factor must be >= 1")
        if not self.slowdown_duration_s > 0:
            raise ValueError("slowdown_duration_s must be positive")
        if not self.stall_duration_s > 0:
            raise ValueError("stall_duration_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not self.slo_ttft_s > 0:
            raise ValueError("slo_ttft_s must be positive")
        events = self.events
        if isinstance(events, list):
            events = tuple(events)
            object.__setattr__(self, "events", events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise ValueError(
                    f"events must hold FaultEvent entries, got {event!r}")


# --------------------------------------------------------------------- #
# The realized schedule                                                  #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class _Window:
    """One degraded interval ``[start_s, end_s)`` on one replica."""

    start_s: float
    end_s: float
    kind: str            # "slowdown" | "stall"
    factor: float


class ReplicaFaultPlan:
    """The realized fault schedule of one replica.

    Slowdown and stall windows are drawn up-front as renewal processes
    from ``start`` to the horizon; crash times merge the spec's explicit
    events with lazy MTBF draws (the next drawn crash is sampled after
    each restart — a machine that is down cannot crash again).  All
    draws come from this replica's own rng substream, so the schedule is
    a pure function of (spec, seed, replica id, launch time).
    """

    def __init__(self, spec: FaultSpec, replica_id: int, start: float,
                 horizon: float) -> None:
        self.spec = spec
        self.replica_id = replica_id
        rng = np.random.default_rng((spec.seed, replica_id))
        self._rng = rng
        windows: list[_Window] = []
        self._draw_windows(windows, rng, start, horizon,
                           spec.slowdown_mtbf_s, spec.slowdown_duration_s,
                           "slowdown", spec.slowdown_factor)
        self._draw_windows(windows, rng, start, horizon,
                           spec.stall_mtbf_s, spec.stall_duration_s,
                           "stall", 1.0)
        explicit_crashes: list[float] = []
        for event in spec.events:
            if event.replica_id != replica_id:
                continue
            if event.kind == "crash":
                explicit_crashes.append(event.time_s)
            else:
                windows.append(_Window(
                    start_s=event.time_s,
                    end_s=min(event.time_s + event.duration_s, horizon),
                    kind=event.kind,
                    factor=event.factor if event.kind == "slowdown"
                    else 1.0))
        windows.sort(key=lambda w: (w.start_s, w.end_s, w.kind))
        self.windows: tuple[_Window, ...] = tuple(windows)
        self._explicit_crashes = sorted(explicit_crashes)
        self._drawn_crash: float | None = None
        if spec.crash_mtbf_s is not None:
            self._drawn_crash = start + float(
                rng.exponential(spec.crash_mtbf_s))
        self.crash_at: float | None = self._next_crash()

    @staticmethod
    def _draw_windows(windows: list[_Window], rng, start: float,
                      horizon: float, mtbf_s: float | None,
                      duration_s: float, kind: str,
                      factor: float) -> None:
        if mtbf_s is None:
            return
        t = start
        while True:
            t += float(rng.exponential(mtbf_s))
            if t >= horizon:
                return
            windows.append(_Window(
                start_s=t, end_s=min(t + duration_s, horizon),
                kind=kind, factor=factor))
            t += duration_s  # the next gap starts after recovery

    def _next_crash(self) -> float | None:
        candidates = []
        if self._explicit_crashes:
            candidates.append(self._explicit_crashes[0])
        if self._drawn_crash is not None:
            candidates.append(self._drawn_crash)
        return min(candidates) if candidates else None

    def note_crash(self, restart_at: float) -> None:
        """Advance the crash schedule past a crash that just fired.

        Crashes scheduled while the machine is still down are skipped;
        the next drawn crash is sampled from the restart instant.  An
        infinite ``restart_at`` means the replica is gone for good
        (autoscaled fleets retire crashed replicas) and clears the
        schedule.
        """
        while self._explicit_crashes \
                and self._explicit_crashes[0] <= restart_at:
            self._explicit_crashes.pop(0)
        if math.isinf(restart_at):
            self._explicit_crashes = []
            self._drawn_crash = None
        elif self.spec.crash_mtbf_s is not None:
            self._drawn_crash = restart_at + float(
                self._rng.exponential(self.spec.crash_mtbf_s))
        else:
            self._drawn_crash = None
        self.crash_at = self._next_crash()

    def window_at(self, t: float) -> _Window | None:
        """The degraded window covering ``t`` (stall wins on overlap —
        a stopped replica cannot be merely slow)."""
        active = None
        for window in self.windows:
            if window.start_s <= t < window.end_s:
                if window.kind == "stall":
                    return window
                if active is None:
                    active = window
            elif window.start_s > t:
                break
        return active

    def next_boundary(self, t: float, limit: float) -> float:
        """The next window edge after ``t``, clamped to ``limit`` —
        the farthest the replica may advance under one regime."""
        best = limit
        for window in self.windows:
            if window.start_s >= best:
                break
            if t < window.start_s:
                best = window.start_s
            elif t < window.end_s < best:
                best = window.end_s
        return best


# --------------------------------------------------------------------- #
# Run-level accounting                                                   #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually affected the run."""

    time_s: float
    kind: str              # "crash" | "slowdown" | "stall"
    replica_id: int
    duration_s: float      # downtime (crash/stall) or window length
    factor: float          # slowdown multiplier (1.0 otherwise)
    lost_requests: int     # in-flight requests a crash wiped


@dataclass(frozen=True)
class FaultTrace:
    """What the injected faults did to one cluster run.

    ``records`` is the chronological event log; ``failed`` holds every
    request that ended in the failed terminal state (retry budget
    exhausted, deadline passed, or no capacity left to retry on) —
    admitted work is either in the fleet's finished/unfinished results
    or here, never silently gone.  ``downtime_by_replica`` sums crash
    and stall downtime per replica id.
    """

    records: tuple[FaultRecord, ...]
    retries: int
    failed: tuple["Request", ...]
    downtime_by_replica: tuple[tuple[int, float], ...]

    @property
    def crashes(self) -> int:
        return sum(1 for r in self.records if r.kind == "crash")

    @property
    def slowdowns(self) -> int:
        return sum(1 for r in self.records if r.kind == "slowdown")

    @property
    def stalls(self) -> int:
        return sum(1 for r in self.records if r.kind == "stall")

    @property
    def failed_count(self) -> int:
        return len(self.failed)

    @property
    def lost_requests(self) -> int:
        """In-flight requests wiped by crashes (before retry/fail)."""
        return sum(r.lost_requests for r in self.records
                   if r.kind == "crash")


class FaultInjector:
    """Fault bookkeeping for one cluster run.

    Owns the per-replica plans (one rng substream each), the crash log,
    and the retry/failure counters; the cluster engine drives it on
    fault-injected runs and collects the final :class:`FaultTrace`.
    """

    def __init__(self, spec: FaultSpec, horizon: float) -> None:
        self.spec = spec
        self.horizon = horizon
        self.plans: list[ReplicaFaultPlan] = []
        self.crash_records: list[FaultRecord] = []
        self.retries = 0
        self.failed: list["Request"] = []

    def plan_for(self, replica_id: int, start: float) -> ReplicaFaultPlan:
        plan = ReplicaFaultPlan(self.spec, replica_id, start, self.horizon)
        self.plans.append(plan)
        return plan

    def record_crash(self, replica_id: int, when: float,
                     lost_requests: int, downtime_s: float) -> None:
        self.crash_records.append(FaultRecord(
            time_s=when, kind="crash", replica_id=replica_id,
            duration_s=downtime_s, factor=1.0,
            lost_requests=lost_requests))

    def fail(self, request: "Request") -> None:
        request.mark_failed()
        self.failed.append(request)

    def trace(self, wall: float) -> FaultTrace:
        """The final event log, with every window that started within
        the run's wall clock folded in chronologically."""
        records = list(self.crash_records)
        for plan in self.plans:
            for window in plan.windows:
                if window.start_s <= wall:
                    records.append(FaultRecord(
                        time_s=window.start_s, kind=window.kind,
                        replica_id=plan.replica_id,
                        duration_s=window.end_s - window.start_s,
                        factor=window.factor, lost_requests=0))
        records.sort(key=lambda r: (r.time_s, r.replica_id, r.kind))
        downtime: dict[int, float] = {}
        for record in records:
            if record.kind in ("crash", "stall"):
                downtime[record.replica_id] = downtime.get(
                    record.replica_id, 0.0) + record.duration_s
        return FaultTrace(
            records=tuple(records),
            retries=self.retries,
            failed=tuple(self.failed),
            downtime_by_replica=tuple(sorted(downtime.items())),
        )
