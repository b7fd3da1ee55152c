"""Fig. 11 — compute-unit exploration.

(a) decoder-layer latency breakdown for three systolic-array shapes at
the same MAC budget (32^2 x 128c / 64^2 x 32c / 128^2 x 8c), prefill and
decode;
(b) self-attention latency vs. MAC-tree lanes for the MHA / GQA / MQA
exemplars at 2 TB/s;
(c) the performance gain of the HDA (SA + MT) over an SA-only chip.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.components import MacTree, SystolicArray
from repro.hardware.presets import ador_table3
from repro.models.layers import Phase
from repro.models.zoo import get_model
from repro.perf.mac_tree import MacTreeTimingModel

SA_CONFIGS = ((32, 128), (64, 32), (128, 8))
OPS = ("qkv_proj", "attention", "out_proj", "mlp_gate", "mlp_up", "mlp_down")


def _chip_with_sa(size, cores):
    base = ador_table3()
    return base.with_updates(
        name=f"ADOR {size}x{size}x{cores}c",
        cores=cores,
        systolic_array=SystolicArray(size, size),
    )


def _fig11a():
    model = get_model("llama3-8b")
    tables = {}
    for phase, batch, q, ctx in ((Phase.PREFILL, 1, 1024, 1024),
                                 (Phase.DECODE, 32, 1, 1024)):
        rows = []
        for size, cores in SA_CONFIGS:
            device = AdorDeviceModel(_chip_with_sa(size, cores))
            breakdown = device.layer_breakdown(
                model, phase, batch, q, ctx)
            row = [f"{size}x{size} x{cores}c"]
            row += [breakdown.get(op, 0.0) * model.num_layers * 1e3
                    for op in OPS]
            row.append(sum(breakdown.values()) * model.num_layers * 1e3)
            rows.append(row)
        tables[phase] = rows
    return tables


def test_fig11a_sa_configurations(benchmark, report):
    tables = run_once(benchmark, _fig11a)
    text = []
    for phase, rows in tables.items():
        text.append(format_table(
            ["SA config"] + [f"{op} (ms)" for op in OPS] + ["total (ms)"],
            rows,
            title=f"Fig. 11(a): LLaMA3-8B {phase.value} decoder latency "
                  "breakdown (batch 32 decode / seq 1024 prefill)",
        ))
    report("fig11a_sa_configs", "\n\n".join(text))
    decode_totals = {row[0]: row[-1] for row in tables[Phase.DECODE]}
    # huge arrays with few cores lose decode latency to fill/drain
    assert decode_totals["64x64 x32c"] <= decode_totals["128x128 x8c"]


def _fig11b():
    rows = []
    for model_name, label in (("llama2-7b", "MHA"), ("llama3-8b", "GQA"),
                              ("falcon-7b", "MQA")):
        model = get_model(model_name)
        row = [f"{model_name} ({label})"]
        for lanes in (1, 8, 16):
            mt = MacTreeTimingModel(MacTree(16, lanes), cores=32,
                                    frequency_hz=1.5e9, dram_bandwidth=2e12)
            est = mt.decode_attention(
                batch=32, num_heads=model.num_heads,
                num_kv_heads=model.num_kv_heads,
                head_dim=model.head_dim, context_len=1024)
            row.append(est.seconds * model.num_layers * 1e3)
        rows.append(row)
    return rows


def test_fig11b_mac_tree_lanes(benchmark, report):
    rows = run_once(benchmark, _fig11b)
    report("fig11b_mt_lanes", format_table(
        ["model", "16x1 (ms)", "16x8 (ms)", "16x16 (ms)"],
        rows,
        title="Fig. 11(b): self-attention latency vs. MAC-tree lanes, "
              "batch 32, seq 1024, 2 TB/s",
    ))
    mha, gqa, mqa = rows
    # final ordering matches the figure: MHA slowest, MQA fastest
    assert mha[3] > gqa[3] > mqa[3]
    # GQA and MQA benefit from lanes; MQA keeps gaining to 16
    assert gqa[1] > gqa[2]
    assert mqa[2] > mqa[3]


def _fig11c():
    model = get_model("llama3-8b")
    hda = AdorDeviceModel(ador_table3(), use_mac_tree=True)
    sa_only = AdorDeviceModel(ador_table3(), use_mac_tree=False)
    rows = []
    for batch in (16, 32, 64, 128):
        with_mt = hda.decode_step_time(model, batch, 1024).seconds
        without = sa_only.decode_step_time(model, batch, 1024).seconds
        rows.append([batch, without * 1e3, with_mt * 1e3, without / with_mt])
    return rows


def test_fig11c_hda_gain(benchmark, report):
    rows = run_once(benchmark, _fig11c)
    report("fig11c_hda_gain", format_table(
        ["batch", "SA-only (ms)", "SA+MT (ms)", "gain (x)"],
        rows,
        title="Fig. 11(c): decode-step gain of the HDA design "
              "(SA+MT) over SA-only, LLaMA3-8B",
    ))
    assert all(row[3] > 1.2 for row in rows), "HDA must win at every batch"
