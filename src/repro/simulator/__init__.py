"""Instruction-level execution simulator (the ADOR Scheduling Sim).

Executes compiled instruction streams (:mod:`repro.compiler`) against
per-unit resource timelines — MAC tree, systolic array, vector units,
DMA/DRAM and NoC — honoring dependencies and double-buffered weight
prefetch.  It is the deeper-fidelity counterpart of the closed-form
:class:`~repro.core.scheduling.HdaScheduler`; integration tests assert
the two agree on stage latencies.
"""

from repro.simulator.machine import (
    ExecutionReport,
    InstructionLevelSimulator,
    UnitTimeline,
)

__all__ = [
    "ExecutionReport",
    "InstructionLevelSimulator",
    "UnitTimeline",
]
