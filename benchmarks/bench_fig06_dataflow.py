"""Fig. 6(d) — all-gather vs. all-reduce core synchronization.

Chained GEMVs on the latency dataflow: all-gather pipelines its small
final-sum messages behind compute, all-reduce exposes a bubble for
accumulating full partial sums.  The bench quantifies the exposed bubble
per layer for the Table III ADOR chip.
"""

from conftest import run_once

from repro.analysis.tables import format_table
from repro.core.dataflow import (
    CoreSyncMethod,
    DataflowKind,
    MultiCoreDataflow,
)
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.layers import Phase
from repro.models.zoo import get_model

BATCH = 32


def _bubbles():
    chip = ador_table3()
    flow = MultiCoreDataflow(chip, DataflowKind.LATENCY)
    model = get_model("llama3-8b")
    breakdown = AdorDeviceModel(chip).layer_breakdown(
        model, Phase.DECODE, BATCH, 1, 1024)
    compute = breakdown["out_proj"]
    rows = []
    for method in CoreSyncMethod:
        bubble = flow.sync_bubble(BATCH, model.hidden_size, compute, method)
        rows.append([
            method.value,
            flow.sync_bytes_per_gemv(BATCH, model.hidden_size, method) / 1e3,
            bubble.wire_seconds * 1e6,
            bubble.exposed_seconds * 1e6,
            100.0 * bubble.hidden_fraction,
        ])
    return rows


def test_fig6d_sync_bubbles(benchmark, report):
    rows = run_once(benchmark, _bubbles)
    report("fig06d_sync_bubbles", format_table(
        ["method", "bytes/GEMV (KB)", "wire (us)", "exposed (us)",
         "hidden (%)"],
        rows,
        title="Fig. 6(d): core-synchronization bubble per GEMV, "
              "ADOR 32 cores, batch 32",
    ))
    gather = next(r for r in rows if r[0] == "all-gather")
    reduce = next(r for r in rows if r[0] == "all-reduce")
    assert gather[1] < reduce[1], "all-gather must move less data"
    assert gather[3] < reduce[3], "all-gather must expose a smaller bubble"
    assert gather[4] > 85.0, "all-gather pipelining must hide most wire time"
