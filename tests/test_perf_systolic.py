"""Unit tests for the weight-stationary systolic-array timing model."""

import pytest

from repro.hardware.components import SystolicArray
from repro.perf.systolic import SystolicTimingModel

BW = 2e12


def make_model(rows=64, cols=64, cores=32, lanes=1, freq=1.5e9):
    return SystolicTimingModel(
        array=SystolicArray(rows, cols, lanes=lanes),
        cores=cores,
        frequency_hz=freq,
    )


class TestClosedForm:
    def test_single_tile_single_core_cycles(self):
        """One 64x64 weight tile, m rows: load + m + fill/drain."""
        model = make_model(cores=1)
        est = model.gemm(256, 64, 64, BW, weights_resident=True,
                         core_split="m")
        # pipeline head (load=64) + compute (256 + 126)
        assert est.cycles == 64 + 256 + 64 + 64 - 2

    def test_tiles_count(self):
        """A 256x256 weight is 4 x 4 tiles of 64x64, each streaming the
        128 activation rows through the 126-cycle fill and drain."""
        model = make_model(cores=1)
        est = model.gemm(128, 256, 256, BW, weights_resident=True,
                         core_split="m")
        assert est.cycles == 64 + (128 + 126) * (256 // 64) * (256 // 64)

    def test_utilization_at_most_one(self):
        model = make_model()
        for m in (1, 16, 1024, 8192):
            est = model.gemm(m, 4096, 4096, BW)
            assert 0 < est.utilization <= 1.0

    def test_large_m_approaches_full_utilization(self):
        model = make_model(cores=1)
        est = model.gemm(100_000, 64, 64, BW, weights_resident=True)
        assert est.utilization > 0.98


class TestDataflowChoices:
    def test_double_buffering_helps(self):
        model = make_model()
        buffered = model.gemm(512, 4096, 4096, BW, double_buffered=True)
        exposed = model.gemm(512, 4096, 4096, BW, double_buffered=False)
        assert buffered.seconds < exposed.seconds

    def test_auto_split_picks_the_better(self):
        model = make_model()
        auto = model.gemm(1024, 4096, 4096, BW)
        m_split = model.gemm(1024, 4096, 4096, BW, core_split="m")
        n_split = model.gemm(1024, 4096, 4096, BW, core_split="n")
        assert auto.seconds == min(m_split.seconds, n_split.seconds)

    def test_n_split_wins_for_small_m(self):
        """With one request's prefill, M per core starves the pipeline;
        splitting weight columns across cores is faster."""
        model = make_model(cores=32)
        m_split = model.gemm(64, 4096, 4096, BW, core_split="m")
        n_split = model.gemm(64, 4096, 4096, BW, core_split="n")
        assert n_split.seconds < m_split.seconds

    def test_weights_resident_is_no_slower(self):
        model = make_model()
        resident = model.gemm(16, 4096, 4096, BW, weights_resident=True)
        streamed = model.gemm(16, 4096, 4096, BW, weights_resident=False)
        assert resident.seconds <= streamed.seconds

    def test_weights_resident_removes_memory_bound(self):
        """Resident weights take DRAM out of the time: a 40x slower
        memory leaves it unchanged."""
        model = make_model()
        fast = model.gemm(16, 4096, 4096, BW, weights_resident=True)
        slow = model.gemm(16, 4096, 4096, 50e9, weights_resident=True)
        assert slow.seconds == fast.seconds


class TestBound:
    """Which wall sets each GEMM's time: compute, the pipeline's
    fill/drain, or (in ``TestBandwidthStall``) DRAM."""

    def test_long_m_is_compute_bound(self):
        """Enough rows hide the fill/drain and the weight stream, even
        over a slow DRAM: the time is the FLOPs over the peak."""
        model = make_model(cores=1)
        est = model.gemm(100_000, 64, 64, dram_bandwidth=50e9)
        flops = 2.0 * 100_000 * 64 * 64
        assert est.seconds == pytest.approx(flops / model.peak_flops,
                                            rel=0.01)

    def test_short_m_is_latency_bound(self):
        """Fewer rows than the array's fill/drain (126 cycles on 64x64)
        leave the pipeline, not compute or DRAM, setting the time."""
        est = make_model().gemm(16, 4096, 4096, BW, weights_resident=True,
                                core_split="n")
        # 64 x 2 tiles per core, each 16 rows plus the 126-cycle fill/drain
        assert est.cycles == 64 + (16 + 126) * 64 * 2
        assert est.utilization <= 16 / (16 + 126)


class TestBandwidthStall:
    def test_slow_dram_forces_memory_bound(self):
        """At 50 GB/s the weight stream sets the time: every weight byte
        once, at the usable share of the bandwidth."""
        model = make_model()
        est = model.gemm(64, 4096, 4096, dram_bandwidth=50e9)
        weight_bytes = 4096 * 4096 * 2
        assert est.seconds == pytest.approx(
            weight_bytes / (50e9 * model.dram_stream_utilization), rel=0.01)

    def test_monotonic_in_bandwidth(self):
        model = make_model()
        times = [model.gemm(64, 4096, 4096, bw).seconds
                 for bw in (0.25e12, 0.5e12, 1e12, 2e12)]
        assert times == sorted(times, reverse=True)

    def test_monotonic_in_m(self):
        model = make_model()
        times = [model.gemm(m, 4096, 4096, BW).seconds
                 for m in (32, 128, 512, 2048)]
        assert times == sorted(times)


class TestValidation:
    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            make_model().gemm(0, 64, 64, BW)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            make_model().gemm(64, 64, 64, 0.0)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError, match="core_split"):
            make_model().gemm(64, 64, 64, BW, core_split="x")

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SystolicTimingModel(SystolicArray(32, 32), 0, 1e9)

    def test_peak_flops(self):
        model = make_model(rows=64, cols=64, cores=32)
        assert model.peak_flops == pytest.approx(2 * 4096 * 32 * 1.5e9)


class TestFig11aShape:
    """Few big cores lose on decode (fill/drain), many small cores lose
    on prefill (tiling) — 64x64 x 32 cores balances (paper Fig. 11a)."""

    CONFIGS = ((32, 128), (64, 32), (128, 8))  # (array size, cores)

    def _decode_time(self, size, cores):
        model = make_model(rows=size, cols=size, cores=cores)
        return model.gemm(32, 4096, 4096, BW).seconds  # batch-32 GEMV-ish

    def _prefill_time(self, size, cores):
        model = make_model(rows=size, cols=size, cores=cores)
        return model.gemm(1024, 4096, 4096, BW).seconds

    def test_decode_punishes_huge_arrays(self):
        assert self._decode_time(128, 8) > self._decode_time(64, 32)

    def test_balanced_config_is_never_worst(self):
        decode = {s: self._decode_time(s, c) for s, c in self.CONFIGS}
        prefill = {s: self._prefill_time(s, c) for s, c in self.CONFIGS}
        assert decode[64] < max(decode.values())
        assert prefill[64] < max(prefill.values())
