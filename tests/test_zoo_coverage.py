"""Whole-zoo coverage: every registered model must be servable.

These tests sweep the full model registry through the scheduler and the
capacity math, catching any architecture whose derived quantities break
a downstream assumption (odd head counts, MoE routing, tied embeddings,
encoder configs with vocab 1, ...).
"""

import pytest

from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.kv_cache import kv_bytes_per_token, max_batch_for_memory
from repro.models.footprint import peak_local_memory
from repro.models.graph import decode_operators
from repro.models.zoo import get_model, list_models

DEVICE = AdorDeviceModel(ador_table3())
ALL_MODELS = list_models()
#: models small enough to decode on one 80 GiB device
SINGLE_DEVICE = [name for name in ALL_MODELS
                 if get_model(name).param_bytes < 60e9]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_decode_operators_build(name):
    model = get_model(name)
    ops = decode_operators(model, batch=2, context_len=64)
    assert ops[-1].name == "lm_head"
    assert all(op.flops >= 0 for op in ops)


@pytest.mark.parametrize("name", ALL_MODELS)
def test_footprint_positive_and_finite(name):
    report = peak_local_memory(get_model(name), batch=8)
    assert 0 < max(report.as_dict().values()) < 1e9


@pytest.mark.parametrize("name", SINGLE_DEVICE)
def test_decode_step_reasonable(name):
    """Every servable model decodes a batch-16 step in 0.1–100 ms."""
    model = get_model(name)
    step = DEVICE.decode_step_time(model, 16, 512).seconds
    assert 1e-4 < step < 0.1, f"{name}: {step * 1e3:.2f} ms"


@pytest.mark.parametrize("name", SINGLE_DEVICE)
def test_decode_faster_for_smaller_models(name):
    """Step time correlates with active parameter bytes (stream-bound)."""
    model = get_model(name)
    step = DEVICE.decode_step_time(model, 16, 512).seconds
    stream_floor = model.active_param_bytes_per_token / (2e12 * 0.95)
    assert step > 0.9 * stream_floor


@pytest.mark.parametrize("name", SINGLE_DEVICE)
def test_kv_capacity_positive(name):
    model = get_model(name)
    batch = max_batch_for_memory(model, 1024, 80 * 2**30)
    assert batch >= 1, f"{name} cannot host a single request"


def test_zoo_kv_intensity_spread():
    """The zoo spans the KV-intensity spectrum the paper studies: from
    MQA (bytes/token tiny) to MHA 70B-class (hundreds of KiB/token)."""
    per_token = {name: kv_bytes_per_token(get_model(name))
                 for name in ALL_MODELS}
    assert min(per_token.values()) < 20 * 1024
    assert max(per_token.values()) > 300 * 1024


def test_prefill_scales_with_model_size():
    small = DEVICE.prefill_time(get_model("phi-3-mini"), 1, 512).seconds
    large = DEVICE.prefill_time(get_model("llama3-8b"), 1, 512).seconds
    assert small < large
