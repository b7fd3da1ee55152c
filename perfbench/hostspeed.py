"""Host-speed calibration: a frozen pure-Python kernel timed between
operations (numpy only builds its index array).

The shared runner this benchmark targets changes speed by 10-40% over
minutes (neighbouring tenants, not this process), which moves every host
timing together.  The kernel has two parts.  The first exercises the
interpreter paths the simulator's hot loops do — slotted-attribute
updates, tuple-keyed dict probes, float accumulation, list and heap
traffic.  The second follows a random cycle through an index array of
4 MiB, more than a core's L2 cache holds: contention for the shared
cache slows the simulator more than it slows a cache-resident loop, and
this part lets the kernel feel it too.  The array is built once per
process and stays resident, so it shifts peak RSS by a constant instead
of setting its floor, and it is not tracked by the garbage collector.
The kernel never imports the simulator, so no change to the program can
speed it up.  ``run.py`` times it before and after every operation and
scales each host time by ``REFERENCE_S / measured``: the reported
figures read as seconds on a host where one kernel pass takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: Seconds one kernel pass took on the reference host (2-core x86-64
#: container, Python 3.11) in a quiet phase.
REFERENCE_S = 0.06


class _Slot:
    __slots__ = ("key", "value", "total")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.total = 0.0


def _interpreter(steps: int = 30_000) -> float:
    table: dict[tuple[int, int], float] = {}
    live: list[_Slot] = []
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(steps):
        slot = _Slot(i, i * 0.5)
        live.append(slot)
        key = (i % 997, i % 13)
        value = table.get(key)
        if value is None:
            value = table[key] = float(i)
        total += value * 1e-9 + slot.value
        slot.total = total
        if i % 7 == 0:
            heapq.heappush(heap, (slot.value, i))
        if len(live) > 32:
            total -= min(s.total for s in live[:8]) * 1e-12
            del live[:16]
    while heap:
        heapq.heappop(heap)
    return total


def _cycle(count: int = 1 << 20) -> memoryview:
    """``next[i]``: one random cycle through all ``count`` entries,
    built without temporaries larger than the result."""
    order = np.arange(count, dtype=np.int32)
    np.random.default_rng(0).shuffle(order)
    following = np.empty_like(order)
    following[order[:-1]] = order[1:]
    following[order[-1]] = order[0]
    return memoryview(following)


_CHAIN = _cycle()


def _walk(steps: int = 1 << 18) -> int:
    chain = _CHAIN
    index = 0
    for _ in range(steps):
        index = chain[index]
    return index


def _kernel() -> float:
    return _interpreter() + _walk()


def measure() -> float:
    """Seconds of one kernel pass, right now.

    Garbage left by the caller is collected first and the collector is
    off while the kernel runs, so the reading never includes a walk of
    the caller's heap: it depends on the host alone.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
