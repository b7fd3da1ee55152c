"""Collective-communication volume and timing models (paper Fig. 7c).

The paper contrasts three tensor-parallel synchronization schemes:

* **all-gather** — each device computes a final-sum *slice* of the output
  and gathers the peers' slices.  Per-device traffic is
  ``(D-1)/D x tensor`` — essentially constant in the device count, which
  is why "all-gather maintains a constant data volume up to 16 devices";
* **all-reduce** — each device holds *partial sums of the full tensor*
  and exchanges them directly, so per-device traffic is
  ``(D-1) x tensor`` and grows linearly with the device count;
* **Megatron** — alternates column- and row-parallel GEMMs so each layer
  needs one all-gather plus one all-reduce: fewer synchronization points
  (good at 2 devices) but all-reduce volume growth (bad at 8-16).

All-gather's small final-sum messages also pipeline behind compute
(Fig. 6d), while all-reduce must accumulate before the next operator can
start — captured here as a per-method overlappable fraction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.interconnect import P2pSpec


class SyncMethod(enum.Enum):
    """Tensor-parallel synchronization scheme."""

    ALL_GATHER = "all-gather"
    ALL_REDUCE = "all-reduce"
    MEGATRON = "megatron"


def choose_sync_method(devices: int) -> SyncMethod:
    """The paper's rule (Fig. 7a, Section V-C): Megatron <= 2 devices,
    all-gather beyond."""
    if devices <= 2:
        return SyncMethod.MEGATRON
    return SyncMethod.ALL_GATHER


def all_gather_bytes_per_device(tensor_bytes: float, devices: int) -> float:
    """Per-device wire traffic of a direct all-gather."""
    _validate(tensor_bytes, devices)
    if devices == 1:
        return 0.0
    return tensor_bytes * (devices - 1) / devices


def all_reduce_bytes_per_device(tensor_bytes: float, devices: int) -> float:
    """Per-device wire traffic of a direct all-reduce of full partial sums."""
    _validate(tensor_bytes, devices)
    if devices == 1:
        return 0.0
    return tensor_bytes * (devices - 1)


def _validate(tensor_bytes: float, devices: int) -> None:
    if tensor_bytes < 0:
        raise ValueError("tensor_bytes must be non-negative")
    if devices < 1:
        raise ValueError("devices must be >= 1")


@dataclass(frozen=True)
class SyncPlan:
    """Per-layer synchronization profile of a TP method."""

    method: SyncMethod
    #: wire bytes per device per decoder layer
    bytes_per_layer: float
    #: protocol round-trips per decoder layer (latency hits)
    steps_per_layer: int
    #: fraction of wire time that pipelines behind compute (Fig. 6d)
    overlappable_fraction: float


#: Synchronization points per decoder layer.  The pure all-gather
#: dataflow keeps every weight column-split, which requires gathering
#: activations before *and* after both the attention output projection
#: and the MLP down projection — four small gathers per layer.  Megatron
#: and the pure all-reduce scheme sync twice per layer.
_AG_SYNCS_PER_LAYER = 4
_SYNCS_PER_LAYER = 2


def layer_sync_plan(method: SyncMethod, tensor_bytes: float,
                    devices: int) -> SyncPlan:
    """Per-layer sync volume/steps for a ``tensor_bytes`` activation.

    ``tensor_bytes`` is the full (un-sharded) activation tensor produced
    by one synchronized operator, i.e. ``rows x hidden x dtype``.
    """
    bytes_per_layer = layer_sync_bytes(method, tensor_bytes, devices)
    if devices == 1:
        return SyncPlan(method, bytes_per_layer, 0, 1.0)
    if method == SyncMethod.ALL_GATHER:
        return SyncPlan(method, bytes_per_layer,
                        steps_per_layer=_AG_SYNCS_PER_LAYER,
                        overlappable_fraction=0.90)
    if method == SyncMethod.ALL_REDUCE:
        return SyncPlan(method, bytes_per_layer,
                        steps_per_layer=_SYNCS_PER_LAYER,
                        overlappable_fraction=0.25)
    return SyncPlan(method, bytes_per_layer,
                    steps_per_layer=_SYNCS_PER_LAYER,
                    overlappable_fraction=0.50)


def layer_sync_bytes(method: SyncMethod, tensor_bytes: float,
                     devices: int) -> float:
    """Wire bytes per device per decoder layer of a TP method: the
    ``bytes_per_layer`` of :func:`layer_sync_plan`, without building
    the plan."""
    _validate(tensor_bytes, devices)
    if devices == 1:
        return 0.0
    if method == SyncMethod.ALL_GATHER:
        return _AG_SYNCS_PER_LAYER * all_gather_bytes_per_device(
            tensor_bytes, devices)
    if method == SyncMethod.ALL_REDUCE:
        return _SYNCS_PER_LAYER * all_reduce_bytes_per_device(
            tensor_bytes, devices)
    if method == SyncMethod.MEGATRON:
        return all_gather_bytes_per_device(tensor_bytes, devices) \
            + all_reduce_bytes_per_device(tensor_bytes, devices)
    raise ValueError(f"unknown method {method!r}")


def collective_terms(plan: SyncPlan, p2p: P2pSpec,
                     num_layers: int) -> tuple[float, float, float]:
    """``(wire, hideable, latency)`` seconds of a model's TP sync: the
    terms of :func:`visible_collective_time` that do not depend on the
    compute time."""
    wire = num_layers * plan.bytes_per_layer / p2p.bandwidth_bytes_per_s
    latency = num_layers * plan.steps_per_layer * p2p.latency_s
    return wire, wire * plan.overlappable_fraction, latency


def visible_collective_time(plan: SyncPlan, p2p: P2pSpec, num_layers: int,
                            compute_seconds: float) -> float:
    """Sync time left exposed after overlapping with ``compute_seconds``.

    The overlappable fraction of the wire time hides behind compute (up
    to the compute time available); protocol latency is never hidden.
    """
    if compute_seconds < 0:
        raise ValueError("compute time must be non-negative")
    wire, hideable, latency = collective_terms(plan, p2p, num_layers)
    return wire - min(hideable, compute_seconds) + latency
