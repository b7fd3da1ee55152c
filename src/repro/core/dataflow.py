"""Multi-core dataflows of the ADOR template (paper Fig. 6b/c/d).

Two dataflows exist because latency and throughput want opposite
placements:

* **latency dataflow** (Fig. 6b): every core holds the *same* activation
  and a different weight slice fetched from its nearest DRAM module, so
  no bandwidth is wasted; results are synchronized with a pipelined
  all-gather whose small final-sum messages hide behind compute
  (Fig. 6d's comparison against all-reduce);
* **throughput dataflow** (Fig. 6c): cores hold *different* activations
  and the same weights are broadcast, letting weight prefetch double-
  buffer behind long GEMM tiles.

This module quantifies both: the NoC bandwidth each needs and the
synchronization bubble each exposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.chip import ChipSpec


class DataflowKind(enum.Enum):
    LATENCY = "latency"        # same activation, split weights, all-gather
    THROUGHPUT = "throughput"  # split activations, broadcast weights


class CoreSyncMethod(enum.Enum):
    """On-chip synchronization flavour (Fig. 6d)."""

    ALL_GATHER = "all-gather"
    ALL_REDUCE = "all-reduce"


@dataclass(frozen=True)
class SyncBubble:
    """Visible synchronization cost of a chained GEMV pipeline."""

    wire_seconds: float
    exposed_seconds: float

    @property
    def hidden_fraction(self) -> float:
        if self.wire_seconds == 0:
            return 1.0
        return 1.0 - self.exposed_seconds / self.wire_seconds


@dataclass(frozen=True)
class MultiCoreDataflow:
    """Dataflow analysis bound to one chip."""

    chip: ChipSpec
    kind: DataflowKind

    def sync_bytes_per_gemv(self, rows: int, output_dim: int,
                            method: CoreSyncMethod) -> float:
        """On-chip bytes a core exchanges to synchronize one GEMV output
        of 2-byte elements.

        All-gather moves each core's final-sum slice (``1/cores`` of the
        output); all-reduce moves full partial sums — ``cores`` times
        more data, plus it cannot start the next GEMV until accumulation
        finishes.
        """
        if rows < 1 or output_dim < 1:
            raise ValueError("rows and output_dim must be >= 1")
        full = float(rows) * output_dim * 2
        cores = self.chip.cores
        if cores == 1:
            return 0.0
        if method == CoreSyncMethod.ALL_GATHER:
            return full * (cores - 1) / cores
        return full * (cores - 1)

    def sync_terms(self, rows: int, output_dim: int,
                   method: CoreSyncMethod = CoreSyncMethod.ALL_GATHER
                   ) -> tuple[float, float, float]:
        """``(wire, hideable, hop)`` seconds of one GEMV sync: the terms
        of :meth:`sync_bubble` that do not depend on the compute time.

        All-gather pipelines chunk-by-chunk with the GEMV (Fig. 6d top);
        all-reduce serializes accumulation after transfer (bottom), so
        only a small fraction of its wire time can hide.
        """
        bytes_moved = self.sync_bytes_per_gemv(rows, output_dim, method)
        wire = bytes_moved / self.chip.noc.bandwidth_bytes_per_s
        hop = self.chip.cores / 2 * self.chip.noc.hop_latency_s
        overlappable = 0.95 if method == CoreSyncMethod.ALL_GATHER else 0.25
        return wire, wire * overlappable, hop

    def sync_bubble(self, rows: int, output_dim: int,
                    compute_seconds: float,
                    method: CoreSyncMethod = CoreSyncMethod.ALL_GATHER
                    ) -> SyncBubble:
        """Exposed sync time after overlapping with ``compute_seconds``."""
        wire, hideable, hop = self.sync_terms(rows, output_dim, method)
        hidden = min(hideable, compute_seconds)
        return SyncBubble(wire_seconds=wire,
                          exposed_seconds=wire - hidden + hop)

    def required_noc_bandwidth(self) -> float:
        """NoC bandwidth the dataflow needs to not throttle the cores.

        Latency dataflow: gathered final sums are tiny; the floor is set
        by re-broadcasting activations, roughly the DRAM bandwidth split
        across cores.  Throughput dataflow: the weight broadcast must
        sustain the systolic arrays' aggregate prefetch appetite.
        """
        if self.kind == DataflowKind.LATENCY:
            return self.chip.memory_bandwidth / max(1, self.chip.cores) * 4
        sa = self.chip.systolic_array
        if sa is None:
            return self.chip.memory_bandwidth
        # one 2-byte weight element per column per cycle during steady
        # prefetch
        per_core = sa.cols * sa.lanes * 2 * self.chip.frequency_hz
        # broadcast: one stream serves all cores
        return per_core
