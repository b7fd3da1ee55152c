"""Unit tests for overlap analysis (Fig. 13b) and the sync-method rule."""

import pytest

from repro.hardware.interconnect import P2pSpec
from repro.models.zoo import get_model
from repro.parallel.collectives import SyncMethod, choose_sync_method
from repro.parallel.overlap import (
    OverlapModel,
    WorkloadPhase,
    minimum_p2p_bandwidth,
)


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


def make_overlap(llama3, phase, batch=32):
    return OverlapModel(
        model=llama3,
        memory_bandwidth=2e12,
        peak_flops=417e12,
        phase=phase,
        batch=batch,
        seq_len=1024,
    )


class TestOverlap:
    def test_decode_overlaps_best(self, llama3):
        """Fig. 13(b): memory-bound decode hides sync almost entirely."""
        p2p = P2pSpec(32e9)
        decode = make_overlap(llama3, WorkloadPhase.DECODE)
        prefill = make_overlap(llama3, WorkloadPhase.PREFILL)
        assert decode.speedup(16, p2p) > prefill.speedup(16, p2p)

    def test_decode_insensitive_to_p2p(self, llama3):
        decode = make_overlap(llama3, WorkloadPhase.DECODE, batch=8)
        slow = decode.speedup(8, P2pSpec(16e9))
        fast = decode.speedup(8, P2pSpec(128e9))
        assert fast < slow * 1.3

    def test_prefill_needs_bandwidth(self, llama3):
        prefill = make_overlap(llama3, WorkloadPhase.PREFILL)
        slow = prefill.speedup(16, P2pSpec(16e9))
        fast = prefill.speedup(16, P2pSpec(128e9))
        assert fast > 2 * slow

    def test_continuous_between_phases(self, llama3):
        p2p = P2pSpec(64e9)
        speeds = {phase: make_overlap(llama3, phase).speedup(8, p2p)
                  for phase in WorkloadPhase}
        assert speeds[WorkloadPhase.PREFILL] \
            <= speeds[WorkloadPhase.CONTINUOUS] \
            <= speeds[WorkloadPhase.DECODE]

    def test_single_device_has_no_sync(self, llama3):
        overlap = make_overlap(llama3, WorkloadPhase.DECODE)
        assert overlap.visible_sync_seconds(1, P2pSpec(16e9)) == 0.0

    def test_minimum_p2p_modest_for_decode(self, llama3):
        """The paper: PCIe-class links suffice for the decode dataflow."""
        overlap = make_overlap(llama3, WorkloadPhase.DECODE)
        needed = minimum_p2p_bandwidth(overlap, 8, efficiency_target=0.95)
        assert needed <= 64e9

    def test_minimum_p2p_single_device_zero(self, llama3):
        overlap = make_overlap(llama3, WorkloadPhase.DECODE)
        assert minimum_p2p_bandwidth(overlap, 1) == 0.0

    def test_stricter_target_needs_more_bandwidth(self, llama3):
        overlap = make_overlap(llama3, WorkloadPhase.PREFILL, batch=1)
        relaxed = minimum_p2p_bandwidth(overlap, 8, efficiency_target=0.5)
        strict = minimum_p2p_bandwidth(overlap, 8, efficiency_target=0.99)
        assert strict >= relaxed


class TestMapper:
    def test_sync_method_rule(self):
        assert choose_sync_method(2) == SyncMethod.MEGATRON
        assert choose_sync_method(4) == SyncMethod.ALL_GATHER
        assert choose_sync_method(16) == SyncMethod.ALL_GATHER
