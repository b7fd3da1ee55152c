"""Fig. 15 — QoS comparison across designs.

TTFT and TBT for LLaMA3-8B (1 device) and LLaMA3-70B (8 devices, TP)
across the A100, LLMCompass-L, LLMCompass-T and the ADOR design, over
batch sizes 16-150.  The paper's headlines: ADOR ~= A100 at batch 16;
at batch 150 ADOR reaches 2.36x (8B) / 2.51x (70B) the A100's TBT, and
1.93x / 3.78-4.01x its TTFT / TBT area efficiency.
"""

from conftest import run_once

from repro.analysis.metrics import area_efficiency_gain, qos_gain
from repro.analysis.tables import format_table
from repro.core.scheduling import device_model_for
from repro.hardware.area import AreaModel
from repro.hardware.presets import ader_reference_designs
from repro.models.zoo import get_model

BATCHES = (16, 64, 128, 150)
SEQ = 1024


def _qos(model_name, devices):
    model = get_model(model_name)
    designs = ader_reference_designs()
    ttft_rows, tbt_rows = [], []
    for name, chip in designs.items():
        device = device_model_for(chip)
        ttft = [device.prefill_time(model, 1, SEQ, devices).seconds * 1e3
                for _ in BATCHES]
        tbt = [1.0 / device.decode_step_time(model, b, SEQ, devices).seconds
               for b in BATCHES]
        ttft_rows.append([name] + ttft)
        tbt_rows.append([name] + tbt)
    return ttft_rows, tbt_rows


def _gains(tbt_rows, area_model, designs):
    ador = next(r for r in tbt_rows if r[0] == "ADOR")
    a100_row = next(r for r in tbt_rows if r[0] == "A100")
    tbt_gain = qos_gain(candidate_seconds=1.0 / ador[-1],
                        baseline_seconds=1.0 / a100_row[-1])
    area_gain = area_efficiency_gain(
        candidate_seconds=1.0 / ador[-1],
        candidate_area=area_model.die_area_mm2(designs["ADOR"]),
        baseline_seconds=1.0 / a100_row[-1],
        baseline_area=area_model.die_area_mm2(designs["A100"]),
    )
    return tbt_gain, area_gain


def test_fig15a_llama3_8b(benchmark, report):
    ttft_rows, tbt_rows = run_once(benchmark, lambda: _qos("llama3-8b", 1))
    designs = ader_reference_designs()
    tbt_gain, area_gain = _gains(tbt_rows, AreaModel(), designs)
    text = format_table(
        ["design"] + [f"batch {b}" for b in BATCHES],
        ttft_rows, title="Fig. 15(a) TTFT (ms), LLaMA3-8B, 1 device",
    ) + "\n\n" + format_table(
        ["design"] + [f"batch {b}" for b in BATCHES],
        tbt_rows, title="Fig. 15(a) TBT (tokens/s), LLaMA3-8B, 1 device",
    ) + (f"\n\nADOR vs A100 at batch 150: TBT {tbt_gain:.2f}x "
         f"(paper 2.36x), TBT area efficiency {area_gain:.2f}x "
         f"(paper 3.78x)")
    report("fig15a_llama3_8b", text)

    by_name = {row[0]: row[1:] for row in tbt_rows}
    # parity at batch 16, ADOR leads at 150
    assert by_name["ADOR"][0] < 1.5 * by_name["A100"][0]
    assert 2.0 < tbt_gain < 2.8
    assert 3.2 < area_gain < 4.5
    # every design's TBT degrades with batch
    for name, series in by_name.items():
        assert list(series) == sorted(series, reverse=True), name
    # TTFT ordering: T best, L worst
    ttft = {row[0]: row[1] for row in ttft_rows}
    assert ttft["LLMCompass-T"] < ttft["ADOR"] < ttft["A100"] \
        < ttft["LLMCompass-L"]


def test_fig15b_llama3_70b(benchmark, report):
    ttft_rows, tbt_rows = run_once(benchmark, lambda: _qos("llama3-70b", 8))
    designs = ader_reference_designs()
    tbt_gain, area_gain = _gains(tbt_rows, AreaModel(), designs)
    text = format_table(
        ["design"] + [f"batch {b}" for b in BATCHES],
        ttft_rows, title="Fig. 15(b) TTFT (ms), LLaMA3-70B, 8 devices",
    ) + "\n\n" + format_table(
        ["design"] + [f"batch {b}" for b in BATCHES],
        tbt_rows, title="Fig. 15(b) TBT (tokens/s), LLaMA3-70B, 8 devices",
    ) + (f"\n\nADOR vs A100 at batch 150: TBT {tbt_gain:.2f}x "
         f"(paper 2.51x), TBT area efficiency {area_gain:.2f}x "
         f"(paper 4.01x)")
    report("fig15b_llama3_70b", text)

    assert 2.1 < tbt_gain < 2.9
    assert 3.4 < area_gain < 4.6
