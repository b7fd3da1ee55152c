"""Unit tests for collective-communication models (paper Fig. 7c)."""

import pytest

from repro.hardware.interconnect import P2pSpec
from repro.parallel.collectives import (
    SyncMethod,
    all_gather_bytes_per_device,
    all_reduce_bytes_per_device,
    collective_terms,
    layer_sync_plan,
    visible_collective_time,
)

TENSOR = 32 * 4096 * 2  # a batch-32 hidden activation in fp16


class TestVolumes:
    def test_single_device_is_free(self):
        assert all_gather_bytes_per_device(TENSOR, 1) == 0.0
        assert all_reduce_bytes_per_device(TENSOR, 1) == 0.0

    def test_all_gather_volume_saturates(self):
        """Fig. 7(c): all-gather volume is ~constant in device count."""
        v2 = all_gather_bytes_per_device(TENSOR, 2)
        v16 = all_gather_bytes_per_device(TENSOR, 16)
        assert v16 < 2 * v2
        assert v16 < TENSOR  # never exceeds one tensor

    def test_all_reduce_volume_scales_linearly(self):
        """Fig. 7(c): all-reduce scales with the device count."""
        v2 = all_reduce_bytes_per_device(TENSOR, 2)
        v16 = all_reduce_bytes_per_device(TENSOR, 16)
        assert v16 == pytest.approx(15 * v2)

    def test_gather_always_cheaper_than_reduce(self):
        for devices in (2, 4, 8, 16):
            assert all_gather_bytes_per_device(TENSOR, devices) \
                < all_reduce_bytes_per_device(TENSOR, devices)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            all_gather_bytes_per_device(-1.0, 2)
        with pytest.raises(ValueError):
            all_reduce_bytes_per_device(TENSOR, 0)


class TestLayerSyncPlan:
    def test_single_device_plan_is_empty(self):
        plan = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 1)
        assert plan.bytes_per_layer == 0.0
        assert plan.steps_per_layer == 0

    def test_megatron_between_extremes_at_scale(self):
        """At 16 devices: AG < Megatron < AR in volume (Fig. 7c)."""
        ag = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 16)
        meg = layer_sync_plan(SyncMethod.MEGATRON, TENSOR, 16)
        ar = layer_sync_plan(SyncMethod.ALL_REDUCE, TENSOR, 16)
        assert ag.bytes_per_layer < meg.bytes_per_layer < ar.bytes_per_layer

    def test_megatron_has_fewest_steps(self):
        ag = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 4)
        meg = layer_sync_plan(SyncMethod.MEGATRON, TENSOR, 4)
        assert meg.steps_per_layer < ag.steps_per_layer

    def test_all_gather_overlaps_best(self):
        ag = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 4)
        ar = layer_sync_plan(SyncMethod.ALL_REDUCE, TENSOR, 4)
        assert ag.overlappable_fraction > ar.overlappable_fraction


class TestTiming:
    P2P = P2pSpec(bandwidth_bytes_per_s=64e9, latency_s=1e-6)

    def test_terms_make_up_the_unoverlapped_time(self):
        """With no compute to hide behind, the visible time is the whole
        wire time plus the protocol latency."""
        plan = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 8)
        wire, hideable, latency = collective_terms(plan, self.P2P, 32)
        assert wire > 0 and latency > 0
        assert 0 < hideable <= wire
        assert visible_collective_time(plan, self.P2P, 32, 0.0) \
            == wire + latency

    def test_visible_time_never_exceeds_raw(self):
        plan = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 8)
        raw = visible_collective_time(plan, self.P2P, 32,
                                      compute_seconds=0.0)
        assert raw > 0
        visible = visible_collective_time(plan, self.P2P, 32,
                                          compute_seconds=1.0)
        assert visible <= raw

    def test_more_compute_hides_more(self):
        plan = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 8)
        little = visible_collective_time(plan, self.P2P, 32, 1e-6)
        lots = visible_collective_time(plan, self.P2P, 32, 1.0)
        assert lots < little

    def test_latency_is_never_hidden(self):
        plan = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 8)
        floor = 32 * plan.steps_per_layer * self.P2P.latency_s
        visible = visible_collective_time(plan, self.P2P, 32, 1e9)
        assert visible >= floor

    def test_rejects_negative_compute(self):
        plan = layer_sync_plan(SyncMethod.ALL_GATHER, TENSOR, 8)
        with pytest.raises(ValueError):
            visible_collective_time(plan, self.P2P, 32, -1.0)
