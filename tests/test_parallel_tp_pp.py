"""Unit tests for tensor/pipeline parallel latency models (Fig. 13a, 7b)."""

import pytest

from repro.hardware.interconnect import P2pSpec
from repro.models.zoo import get_model
from repro.parallel.collectives import SyncMethod
from repro.parallel.pipeline_parallel import PipelineParallelModel
from repro.parallel.tensor_parallel import TpLatencyModel, tp_scalability_curve

P2P_128 = P2pSpec(128e9)
DEVICES = [1, 2, 4, 8, 16]


@pytest.fixture
def llama3():
    return get_model("llama3-8b")


def curve(llama3, method, p2p=P2P_128):
    return tp_scalability_curve(llama3, 32, 1024, DEVICES, 2e12, p2p, method)


class TestFig13aOrderings:
    def test_megatron_wins_at_two_devices(self, llama3):
        ag = curve(llama3, SyncMethod.ALL_GATHER)
        meg = curve(llama3, SyncMethod.MEGATRON)
        assert meg[1] >= ag[1]

    def test_all_gather_wins_at_scale(self, llama3):
        ag = curve(llama3, SyncMethod.ALL_GATHER)
        meg = curve(llama3, SyncMethod.MEGATRON)
        ar = curve(llama3, SyncMethod.ALL_REDUCE)
        for i in (3, 4):  # 8 and 16 devices
            assert ag[i] > meg[i] > ar[i]

    def test_all_reduce_saturates(self, llama3):
        ar = curve(llama3, SyncMethod.ALL_REDUCE)
        assert ar[4] < ar[3] * 1.2  # 16 devices barely better than 8
        assert ar[4] < 8.0

    def test_all_gather_scales_near_linearly(self, llama3):
        ag = curve(llama3, SyncMethod.ALL_GATHER)
        assert ag[4] > 10.0  # >10x at 16 devices

    def test_speedups_start_at_one(self, llama3):
        for method in SyncMethod:
            assert curve(llama3, method)[0] == pytest.approx(1.0)

    def test_better_p2p_helps_all_reduce_most(self, llama3):
        slow = curve(llama3, SyncMethod.ALL_REDUCE, P2pSpec(32e9))
        fast = curve(llama3, SyncMethod.ALL_REDUCE, P2pSpec(256e9))
        assert fast[4] > 1.5 * slow[4]


class TestTpModel:
    def test_body_shards_by_devices(self, llama3):
        tp = TpLatencyModel(llama3, 2e12, P2P_128)
        one = tp.decode_step_seconds(32, 1024, 1, SyncMethod.ALL_GATHER)
        eight = tp.decode_step_seconds(32, 1024, 8, SyncMethod.ALL_GATHER)
        assert eight < one / 4  # sub-linear but substantial

    def test_rejects_zero_devices(self, llama3):
        tp = TpLatencyModel(llama3, 2e12, P2P_128)
        with pytest.raises(ValueError):
            tp.decode_step_seconds(32, 1024, 0, SyncMethod.ALL_GATHER)

    def test_rejects_bad_bandwidth(self, llama3):
        with pytest.raises(ValueError):
            TpLatencyModel(llama3, 0.0, P2P_128)


class TestPipelineParallel:
    def test_latency_never_improves(self, llama3):
        """The paper's Fig. 7(b) point: PP gives no latency benefit."""
        pp = PipelineParallelModel(llama3, P2P_128)
        for devices in (2, 4, 8):
            assert pp.token_latency_seconds(0.01, devices, batch=32) >= 0.01

    def test_hops_add_latency(self, llama3):
        pp = PipelineParallelModel(llama3, P2P_128)
        assert pp.token_latency_seconds(0.01, 8, 32) > 0.01

    def test_throughput_scales(self, llama3):
        pp = PipelineParallelModel(llama3, P2P_128)
        assert pp.throughput_scaling(8) == pytest.approx(8 * 0.95)
