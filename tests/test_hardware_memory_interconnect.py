"""Unit tests for memory and interconnect specifications."""

import pytest

from repro.hardware.interconnect import NocSpec, NocTopology, P2pSpec
from repro.hardware.memory import Dram, DramKind, Sram, GIB


class TestDram:
    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            Dram(DramKind.HBM2, 1 * GIB, 0.0)

    def test_rejects_zero_modules(self):
        with pytest.raises(ValueError):
            Dram(DramKind.HBM2, 1 * GIB, 1e12, modules=0)

    def test_str_mentions_kind(self):
        assert "HBM3e" in str(Dram(DramKind.HBM3E, 80 * GIB, 3.35e12))


class TestSram:
    def test_zero_size_allowed(self):
        assert Sram(0).size_bytes == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Sram(-1)


class TestNoc:
    def test_default_topology_is_ring(self):
        assert NocSpec(1e12).topology == NocTopology.RING


class TestP2p:
    def test_transfer_includes_latency(self):
        p2p = P2pSpec(bandwidth_bytes_per_s=64e9, latency_s=1e-6)
        assert p2p.transfer_time(64e3) == pytest.approx(1e-6 + 1e-6)

    def test_zero_payload_costs_latency_only(self):
        p2p = P2pSpec(64e9)
        assert p2p.transfer_time(0) == p2p.latency_s

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            P2pSpec(0)
