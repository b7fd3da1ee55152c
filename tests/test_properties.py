"""Property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import hda_gemm_seconds
from repro.hardware.components import MacTree, SystolicArray
from repro.models.config import ModelConfig
from repro.models.footprint import peak_local_memory
from repro.models.kv_cache import kv_cache_bytes, kv_fraction_of_traffic
from repro.parallel.collectives import (
    SyncMethod,
    all_gather_bytes_per_device,
    all_reduce_bytes_per_device,
    layer_sync_bytes,
    layer_sync_plan,
)
from repro.perf.effective_bandwidth import MT_BANDWIDTH_CURVE
from repro.perf.mac_tree import MacTreeTimingModel
from repro.perf.systolic import SystolicTimingModel

dims = st.integers(min_value=1, max_value=8192)
small_dims = st.integers(min_value=1, max_value=512)
devices = st.integers(min_value=1, max_value=64)
batches = st.integers(min_value=1, max_value=512)


# --------------------------------------------------------------------- #
# Model configuration invariants                                         #
# --------------------------------------------------------------------- #

model_configs = st.builds(
    ModelConfig,
    name=st.just("prop-model"),
    num_layers=st.integers(1, 128),
    hidden_size=st.sampled_from([256, 512, 1024, 4096, 8192]),
    num_heads=st.sampled_from([4, 8, 16, 32, 64]),
    num_kv_heads=st.sampled_from([1, 2, 4]),
    intermediate_size=st.sampled_from([1024, 4096, 14336]),
    vocab_size=st.sampled_from([32000, 128256]),
)


@given(config=model_configs)
def test_active_params_never_exceed_total(config):
    assert config.active_params_per_token <= config.num_parameters


@given(config=model_configs, batch=batches,
       seq=st.integers(min_value=1, max_value=16384))
def test_kv_fraction_in_unit_interval(config, batch, seq):
    fraction = kv_fraction_of_traffic(config, batch, seq)
    assert 0.0 <= fraction < 1.0


@given(config=model_configs, batch=batches,
       seq=st.integers(min_value=1, max_value=8192))
def test_kv_fraction_monotone_in_batch(config, batch, seq):
    assert kv_fraction_of_traffic(config, batch, seq) \
        <= kv_fraction_of_traffic(config, batch + 1, seq)


@given(config=model_configs, batch=st.integers(1, 256))
def test_footprint_monotone_in_batch(config, batch):
    small = peak_local_memory(config, batch)
    large = peak_local_memory(config, batch + 1)
    for key in small.as_dict():
        assert small.as_dict()[key] <= large.as_dict()[key]


@given(config=model_configs, batch=batches, seq=st.integers(0, 8192))
def test_kv_cache_bytes_additive(config, batch, seq):
    both = kv_cache_bytes(config, batch, seq)
    assert both == batch * kv_cache_bytes(config, 1, seq)


# --------------------------------------------------------------------- #
# Effective-bandwidth curve invariants                                   #
# --------------------------------------------------------------------- #

@given(ops=st.floats(min_value=0, max_value=1e18, allow_nan=False))
def test_bandwidth_curve_clamped(ops):
    util = MT_BANDWIDTH_CURVE.utilization(ops)
    assert MT_BANDWIDTH_CURVE.floor <= util <= MT_BANDWIDTH_CURVE.ceiling


@given(a=st.floats(min_value=1, max_value=1e17),
       factor=st.floats(min_value=1.0, max_value=100.0))
def test_bandwidth_curve_monotone(a, factor):
    assert MT_BANDWIDTH_CURVE.utilization(a) \
        <= MT_BANDWIDTH_CURVE.utilization(a * factor) + 1e-12


# --------------------------------------------------------------------- #
# Systolic-array timing invariants                                       #
# --------------------------------------------------------------------- #

sa_models = st.builds(
    SystolicTimingModel,
    array=st.builds(SystolicArray,
                    rows=st.sampled_from([16, 32, 64, 128]),
                    cols=st.sampled_from([16, 32, 64, 128])),
    cores=st.sampled_from([1, 8, 32]),
    frequency_hz=st.just(1.5e9),
)


@settings(max_examples=50)
@given(model=sa_models, m=small_dims, k=small_dims, n=small_dims)
def test_sa_utilization_in_unit_interval(model, m, k, n):
    est = model.gemm(m, k, n, dram_bandwidth=2e12)
    assert 0.0 < est.utilization <= 1.0
    assert est.seconds > 0


@settings(max_examples=50)
@given(model=sa_models, m=small_dims, k=small_dims, n=small_dims)
def test_sa_monotone_in_m(model, m, k, n):
    t1 = model.gemm(m, k, n, 2e12).seconds
    t2 = model.gemm(m + 64, k, n, 2e12).seconds
    assert t2 >= t1 - 1e-15


@settings(max_examples=50)
@given(model=sa_models, m=small_dims, k=small_dims, n=small_dims)
def test_sa_resident_weights_never_slower(model, m, k, n):
    streamed = model.gemm(m, k, n, 2e12, weights_resident=False).seconds
    resident = model.gemm(m, k, n, 2e12, weights_resident=True).seconds
    assert resident <= streamed + 1e-15


# --------------------------------------------------------------------- #
# MAC-tree invariants                                                    #
# --------------------------------------------------------------------- #

mt_models = st.builds(
    MacTreeTimingModel,
    tree=st.builds(MacTree,
                   tree_size=st.sampled_from([8, 16, 32]),
                   lanes=st.sampled_from([1, 4, 16])),
    cores=st.sampled_from([1, 32]),
    frequency_hz=st.just(1.5e9),
    dram_bandwidth=st.just(2e12),
)


@settings(max_examples=50)
@given(model=mt_models, batch=st.integers(1, 256), k=dims, n=dims)
def test_mt_gemv_at_least_stream_time(model, batch, k, n):
    est = model.gemv(batch, k, n)
    flops = 2.0 * batch * k * n
    stream = k * n * 2 / model.curve.effective_bandwidth(
        model.dram_bandwidth, flops)
    assert est.seconds >= stream - 1e-15
    assert est.seconds >= flops / model.peak_flops - 1e-15


@settings(max_examples=50)
@given(model=mt_models, batch=st.integers(1, 128),
       ctx=st.integers(1, 4096))
def test_mt_attention_monotone_in_context(model, batch, ctx):
    short = model.decode_attention(batch, 32, 8, 128, ctx).seconds
    longer = model.decode_attention(batch, 32, 8, 128, ctx + 64).seconds
    assert longer >= short - 1e-15


@settings(max_examples=30)
@given(model=mt_models, batch=st.integers(1, 128), ctx=st.integers(1, 2048))
def test_mt_more_lanes_never_slower(model, batch, ctx):
    more = MacTreeTimingModel(
        tree=MacTree(model.tree.tree_size, model.tree.lanes * 2),
        cores=model.cores, frequency_hz=model.frequency_hz,
        dram_bandwidth=model.dram_bandwidth)
    assert more.decode_attention(batch, 32, 8, 128, ctx).seconds \
        <= model.decode_attention(batch, 32, 8, 128, ctx).seconds + 1e-15


# --------------------------------------------------------------------- #
# Collective invariants                                                  #
# --------------------------------------------------------------------- #

@given(tensor=st.floats(min_value=0, max_value=1e12), d=devices)
def test_gather_never_exceeds_reduce(tensor, d):
    assert all_gather_bytes_per_device(tensor, d) \
        <= all_reduce_bytes_per_device(tensor, d) + 1e-9


@given(tensor=st.floats(min_value=1, max_value=1e12),
       d=st.integers(min_value=2, max_value=64))
def test_gather_bounded_by_tensor(tensor, d):
    assert all_gather_bytes_per_device(tensor, d) < tensor


@given(tensor=st.floats(min_value=1, max_value=1e9),
       d=st.integers(min_value=2, max_value=32),
       method=st.sampled_from(list(SyncMethod)))
def test_sync_plans_non_negative(tensor, d, method):
    plan = layer_sync_plan(method, tensor, d)
    assert plan.bytes_per_layer >= 0
    assert plan.steps_per_layer >= 0
    assert 0.0 <= plan.overlappable_fraction <= 1.0


@given(tensor=st.floats(min_value=0, max_value=1e12),
       d=st.integers(min_value=1, max_value=64),
       method=st.sampled_from(list(SyncMethod)))
def test_sync_bytes_are_the_plans(tensor, d, method):
    assert layer_sync_bytes(method, tensor, d).hex() \
        == layer_sync_plan(method, tensor, d).bytes_per_layer.hex()


# --------------------------------------------------------------------- #
# Allocation invariants                                                  #
# --------------------------------------------------------------------- #

rates = st.floats(min_value=1e9, max_value=1e15)


@given(flops=st.floats(min_value=1, max_value=1e15), sa=rates, mt=rates)
def test_split_fractions_sum_to_one(flops, sa, mt):
    """Both pools are busy for the whole makespan, and their shares of
    the GEMM add up to all of it."""
    seconds = hda_gemm_seconds(flops, sa, mt)
    assert (seconds * sa + seconds * mt) / flops == pytest.approx(1.0)


@given(flops=st.floats(min_value=1, max_value=1e15), sa=rates, mt=rates)
def test_makespan_never_worse_than_best_single_pool(flops, sa, mt):
    combined = hda_gemm_seconds(flops, sa, mt)
    assert combined <= flops / sa + 1e-12
    assert combined <= flops / mt + 1e-12
