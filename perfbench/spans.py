"""Span tracing of the simulator's layers, from outside the program.

:func:`traced_layers` patches each layer's public entry points with a
wrapper that records one span per call — name, start, end and parent —
and restores every original on exit.  Spans stay in memory as parallel
arrays until :meth:`SpanLog.write` saves them; a layer's self time is
its spans' durations minus the time their child spans cover.

A function imported by name into another module (``run_decode_burst``
into ``repro.cluster.engine``, ``compute_qos`` into several) is replaced
under every module name that refers to it, so no call path escapes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np


class SpanLog:
    """In-memory span store plus the counters read at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.devices: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, *args)``
        runs once the span has closed (its cost lands on the parent)."""
        nid = self.name_id(name)
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def per_name(self) -> tuple[dict[str, int], dict[str, float]]:
        """Call counts and self seconds per span name."""
        count = len(self.name)
        names = np.frombuffer(self.name, dtype=np.int32, count=count)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=count)
        durations = np.frombuffer(self.end, count=count) \
            - np.frombuffer(self.start, count=count)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=durations[nested],
                            minlength=count)
        own = durations - child
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(self_s[i]) for i, n in enumerate(self.names)})

    def write(self, path) -> None:
        count = len(self.name)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32, count=count),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=count),
            start=np.frombuffer(self.start, count=count),
            end=np.frombuffer(self.end, count=count),
        )


class _Patcher:
    """Attribute replacement with exact undo."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, log: SpanLog, cls, attr: str, name: str,
               after=None) -> None:
        self.set(cls, attr, log.wrap(name, vars(cls)[attr], after))

    def function(self, log: SpanLog, original, name: str,
                 after=None) -> None:
        self.everywhere(original, log.wrap(name, original, after))

    def everywhere(self, original, replacement) -> None:
        """Replace ``original`` under every ``repro`` module name bound
        to it."""
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _TracedStream:
    """A streaming generator whose every pull is a ``generator`` span."""

    __slots__ = ("_next",)

    def __init__(self, log: SpanLog, source) -> None:
        def counted(request, *args):
            log.counts["generator.requests"] += 1

        self._next = log.wrap("generator", iter(source).__next__, counted)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _install(log: SpanLog, patch: _Patcher) -> None:
    from repro.api import facade
    from repro.cluster import autoscaler, engine as cluster_engine, faults
    from repro.cluster import report, router
    from repro.perf import baselines, cache
    from repro.serving import capacity, engine, generator, kv_allocator
    from repro.serving import prefix_cache, qos, request, scheduler
    from repro.serving import sessions

    counts = log.counts

    # serving.generator (+ serving.sessions): every streamed request is
    # one span; the capacity template is timed but streams nothing
    for module, attr in ((generator, "iter_poisson_requests"),
                         (generator, "iter_onoff_requests"),
                         (sessions, "iter_session_requests")):
        original = vars(module)[attr]

        @functools.wraps(original)
        def streamed(*args, _original=original, **kwargs):
            return _TracedStream(log, _original(*args, **kwargs))

        patch.everywhere(original, streamed)
    for attr in ("__init__", "requests_at"):
        patch.method(log, generator.PoissonArrivalTemplate, attr,
                     "generator.template")

    # cluster.router: every registered router class
    for value in list(vars(router).values()):
        if isinstance(value, type) and "route" in vars(value) \
                and value is not router.RouterPolicy:
            patch.method(log, value, "route", "router")

    # cluster.engine
    replica = cluster_engine.ReplicaSim
    patch.method(log, replica, "advance_to", "replica.advance")
    patch.method(log, replica, "advance_faulty", "replica.advance")
    patch.method(log, replica, "snapshot", "replica.snapshot")
    patch.method(log, cluster_engine.ClusterEngine, "run", "cluster.run")

    # serving.engine
    def engine_ran(result, *args, **kwargs):
        counts["engine.decode_steps"] += result.decode_steps
        counts["capacity.sim_tokens"] += result.generated_tokens

    def burst_ran(result, *args, **kwargs):
        counts["burst.steps"] += result[1]

    patch.method(log, engine.ServingEngine, "run", "engine.run", engine_ran)
    patch.function(log, engine.run_decode_burst, "burst", burst_ran)

    # serving.request
    patch.method(log, request.Request, "record_token", "record_token")

    # serving.scheduler
    def planned(plan, *args, **kwargs):
        if plan.decode_batch:
            counts["scheduler.decode_plans"] += 1
            counts["scheduler.decode_batch_sum"] += plan.decode_batch
            if plan.prefill_tokens:
                counts["scheduler.mixed_plans"] += 1

    sched = scheduler.ContinuousBatchingScheduler
    patch.method(log, sched, "enqueue", "scheduler.enqueue")
    patch.method(log, sched, "plan_iteration", "scheduler.plan", planned)
    patch.method(log, sched, "complete_iteration", "scheduler.complete")
    patch.method(log, sched, "complete_burst", "scheduler.complete")

    # serving.kv_allocator: an extend is useful when it took a block
    allocator = kv_allocator.PagedKvAllocator
    extend = log.wrap("kv.extend", vars(allocator)["extend"])

    def counted_extend(self, *args, **kwargs):
        before = self.used_blocks
        ok = extend(self, *args, **kwargs)
        if self.used_blocks != before:
            counts["kv.block_changes"] += 1
        return ok

    patch.set(allocator, "extend", functools.wraps(extend)(counted_extend))
    patch.method(log, allocator, "growth_blocks", "kv.growth_blocks")

    # serving.prefix_cache
    pcache = prefix_cache.PrefixCache
    patch.method(log, pcache, "acquire", "prefix.acquire")
    for attr in ("extend", "stash", "forfeit"):
        patch.method(log, pcache, attr, "prefix")

    # perf.cache over the device models it memoizes (a miss is an inner
    # call, nested under the cached one)
    device_init = vars(cache.CachedDeviceModel)["__init__"]

    @functools.wraps(device_init)
    def recorded_init(self, *args, **kwargs):
        device_init(self, *args, **kwargs)
        log.devices.append(self)

    patch.set(cache.CachedDeviceModel, "__init__", recorded_init)
    for attr in ("decode_step_time", "prefill_time", "decode_seconds_map"):
        patch.method(log, cache.CachedDeviceModel, attr, "device")
    for cls in _subclasses(baselines.DeviceModel):
        if cls is cache.CachedDeviceModel:
            continue
        for attr in ("decode_step_time", "prefill_time"):
            if attr in vars(cls):
                patch.method(log, cls, attr, "device.miss")

    # cluster.autoscaler: every registered policy class
    for value in list(vars(autoscaler).values()):
        if isinstance(value, type) and "desired_replicas" in vars(value) \
                and value is not autoscaler.AutoscalerPolicy:
            patch.method(log, value, "desired_replicas", "autoscaler")

    # cluster.faults
    for attr in ("plan_for", "record_crash", "fail", "trace"):
        patch.method(log, faults.FaultInjector, attr, "faults")
    for attr in ("window_at", "next_boundary", "note_crash"):
        patch.method(log, faults.ReplicaFaultPlan, attr, "faults")

    # serving.capacity
    patch.function(log, capacity.max_capacity_under_slo, "capacity")

    # serving.qos + cluster.report
    for original in (qos.compute_qos, qos.goodput_per_s,
                     report.aggregate_cluster, report.merge_results,
                     report.load_imbalance):
        patch.function(log, original, "report")
    patch.method(log, report.ClusterResult, "qos", "report")

    # the facade entry points themselves
    for original in (facade.simulate, facade.simulate_cluster,
                     facade.build_cluster_engine):
        patch.function(log, original, "api")


@contextlib.contextmanager
def traced_layers():
    """Patch every layer for the duration of the block; yields the
    :class:`SpanLog` that receives the spans."""
    log = SpanLog()
    patch = _Patcher()
    try:
        _install(log, patch)
        yield log
    finally:
        patch.restore()
