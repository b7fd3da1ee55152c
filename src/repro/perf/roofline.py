"""The roofline's "which wall did we hit" tag.

A kernel's time is the maximum of its compute time and its memory time;
:class:`Bound` names the resource that set it, so the timing models'
breakdowns can report it everywhere (Figs. 11a, 15).
"""

from __future__ import annotations

import enum


class Bound(enum.Enum):
    """Which resource limited a kernel."""

    COMPUTE = "compute"
    MEMORY = "memory"
    NETWORK = "network"
    LATENCY = "latency"  # fixed overheads (fill/drain, kernel launch)
