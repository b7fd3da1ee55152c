"""Capacity-planning speed — the fast SLO-capacity search vs reference.

Not a paper figure: this bench measures the *capacity search itself* on
a Fig. 16-style study (four model/SLO scenarios, 250 requests per
probe) and extends the repo's recorded perf trajectory
(``BENCH_capacity_speed.json``, the second entry after
``BENCH_sim_speed.json``).  It compares:

* **reference** — :func:`repro.serving.capacity.reference_capacity_search`,
  the pre-optimization sequential algorithm: eager endpoint probes,
  fresh workload generation per probe, full-horizon simulations and a
  final best-rate re-simulation;
* **fast** — :func:`repro.serving.capacity.max_capacity_under_slo` at
  default settings: probe caching with lazy endpoints, arrival-template
  reuse, saturation early-abort, and one shared memoized device model
  across every probe of the study.

The found rates must be **identical** per scenario (the bench asserts
it), and a separate untimed pass runs ``early_abort="verify"`` to prove
per-probe that every abort verdict matches the full simulation — the
reported parity must be 100%.

Run standalone for CI smoke: ``python benchmarks/bench_capacity_speed.py
--quick`` (two scenarios, 150 requests, asserts fast >= reference,
still writes the JSON).
"""

import argparse
import json
import pathlib
import sys
import time

from repro.analysis.tables import format_table
from repro.core.scheduling import AdorDeviceModel
from repro.hardware.presets import ador_table3
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.capacity import (
    max_capacity_under_slo,
    reference_capacity_search,
)
from repro.serving.dataset import ULTRACHAT_LIKE

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_capacity_speed.json"

#: (model, devices, SLO label, TBT SLO) — the Fig. 16 study, at the
#: committed bench's exact operating point (250 requests, 7 bisection
#: steps, seed 7, default rate bounds).
SCENARIOS = (
    ("llama3-8b", 1, "strict", 0.025),
    ("llama3-8b", 1, "relaxed", 0.050),
    ("yi-34b", 2, "strict", 0.030),
    ("yi-34b", 2, "relaxed", 0.060),
)
QUICK_SCENARIOS = SCENARIOS[:2]

FULL_SEARCH = dict(request_count=250, iterations=7, seed=7)
QUICK_SEARCH = dict(request_count=150, iterations=5, seed=7,
                    rate_bounds=(0.5, 128.0))


def _study(scenarios, search, device, **kwargs):
    """Run one capacity study; returns (results, wall_seconds)."""
    results = []
    start = time.perf_counter()
    for model_name, devices, label, slo in scenarios:
        model = get_model(model_name)
        results.append(search(device, model, ULTRACHAT_LIKE, slo_tbt_s=slo,
                              num_devices=devices, **kwargs))
    return results, time.perf_counter() - start


def run_capacity_speed(quick: bool = False) -> dict:
    scenarios = QUICK_SCENARIOS if quick else SCENARIOS
    search_kwargs = QUICK_SEARCH if quick else FULL_SEARCH

    baseline, baseline_wall = _study(
        scenarios, reference_capacity_search, AdorDeviceModel(ador_table3()),
        **search_kwargs)
    # one memoized device shared by every probe of every scenario — the
    # sweep-cache half of the optimization (fresh wrapper, cold start
    # included in the measured wall)
    fast_device = CachedDeviceModel(AdorDeviceModel(ador_table3()))
    fast, fast_wall = _study(
        scenarios, max_capacity_under_slo, fast_device, **search_kwargs)

    rows = []
    for (model_name, devices, label, slo), ref, opt in \
            zip(scenarios, baseline, fast):
        rows.append({
            "model": model_name,
            "devices": devices,
            "slo": label,
            "slo_tbt_ms": slo * 1e3,
            "reference_rate": ref.max_requests_per_s,
            "fast_rate": opt.max_requests_per_s,
            "rate_identical": ref.max_requests_per_s
            == opt.max_requests_per_s,
            "qos_identical": ref.qos_at_max == opt.qos_at_max,
            "reference_simulations": ref.simulations,
            "fast_simulations": opt.simulations,
            "fast_aborted_probes": sum(1 for p in opt.probes if p.aborted),
        })

    # untimed parity pass: every abort verdict re-checked against the
    # full simulation, per probe
    verify_device = CachedDeviceModel(AdorDeviceModel(ador_table3()))
    probes = aborted = matches = 0
    for model_name, devices, label, slo in scenarios:
        model = get_model(model_name)
        outcome = max_capacity_under_slo(
            verify_device, model, ULTRACHAT_LIKE, slo_tbt_s=slo,
            num_devices=devices, early_abort="verify", **search_kwargs)
        probes += len(outcome.probes)
        for probe in outcome.probes:
            if probe.aborted:
                aborted += 1
                matches += bool(probe.abort_verdict_matches)

    payload = {
        "benchmark": "capacity_speed",
        "mode": "quick" if quick else "full",
        "scenarios": rows,
        "reference_wall_s": baseline_wall,
        "fast_wall_s": fast_wall,
        "speedup": baseline_wall / fast_wall,
        "found_rate_identical": all(r["rate_identical"] for r in rows),
        "early_abort": {
            "probes": probes,
            "aborted": aborted,
            "parity_matches": matches,
            "parity_rate": matches / aborted if aborted else 1.0,
        },
    }
    return payload


def render(payload: dict) -> str:
    rows = [[r["model"], r["devices"], r["slo"], r["slo_tbt_ms"],
             r["reference_rate"], r["fast_rate"],
             str(r["rate_identical"]), r["reference_simulations"],
             r["fast_simulations"], r["fast_aborted_probes"]]
            for r in payload["scenarios"]]
    abort = payload["early_abort"]
    lines = [
        format_table(
            ["model", "devices", "SLO", "TBT SLO (ms)", "ref rate (req/s)",
             "fast rate (req/s)", "identical", "ref sims", "fast sims",
             "aborted"],
            rows,
            title="Capacity-search speed: fast search (probe cache + lazy "
                  "endpoints + arrival reuse + early abort + shared device "
                  "cache) vs sequential reference"),
        f"study wall: reference {payload['reference_wall_s']:.2f} s, "
        f"fast {payload['fast_wall_s']:.2f} s "
        f"({payload['speedup']:.1f}x), found rates identical: "
        f"{payload['found_rate_identical']}",
        f"early-abort parity: {abort['parity_matches']}/{abort['aborted']} "
        f"aborted probes match the full-simulation verdict "
        f"({abort['parity_rate']:.0%}) across {abort['probes']} probes",
    ]
    return "\n\n".join(lines)


def check(payload: dict, min_speedup: float) -> None:
    assert payload["found_rate_identical"], \
        "fast capacity search diverged from the sequential reference"
    for row in payload["scenarios"]:
        assert row["qos_identical"], \
            f"{row['model']}/{row['slo']}: QoS at max diverged"
    abort = payload["early_abort"]
    assert abort["parity_rate"] == 1.0, \
        f"early-abort verdict parity {abort['parity_rate']:.0%} < 100%"
    assert payload["speedup"] >= min_speedup, \
        f"capacity speedup {payload['speedup']:.2f}x < {min_speedup:.1f}x"


def test_capacity_speed(benchmark, report):
    # imported lazily: the CI smoke runs this file standalone in an
    # environment without pytest
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_capacity_speed(quick=False))
    report("capacity_speed", render(payload))
    DEFAULT_OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {DEFAULT_OUT}]")
    check(payload, min_speedup=3.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small config for CI smoke")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail below this study speedup "
                             "(default: 3.0 full, 1.0 quick)")
    args = parser.parse_args(argv)
    payload = run_capacity_speed(quick=args.quick)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {args.out}]")
    minimum = args.min_speedup
    if minimum is None:
        minimum = 1.0 if args.quick else 3.0
    check(payload, min_speedup=minimum)
    return 0


if __name__ == "__main__":
    sys.exit(main())
