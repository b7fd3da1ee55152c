"""Mixed ADOR+GPU fleet vs homogeneous fleets at equal cost.

Not a paper figure: ADOR's cluster analysis (Fig. 13/16) assumes N
copies of one chip; this bench measures what an explicitly
heterogeneous fleet (``FleetSpec``) buys.  Three fleets with the same
replica-second cost rate (12 cost-units/s) serve the identical
heavy-tailed trace — short decode-heavy chat bulk plus a long
prefill-heavy prompt tail — at a moderate and a saturating rate:

1. **bulk** — 12x ADOR (cheap, prefill-capped: an 8k-token prompt's
   own prefill is ~0.47 s, a p99 TTFT floor no replica count fixes);
2. **premium** — 4x H100 (1.9x ADOR prefill speed, but the fewest
   replicas per cost-unit: the fleet saturates first as rate grows);
3. **mixed** — 1x H100 + 9x ADOR behind the ``hetero-aware`` router,
   which sends prefill-heavy prompts to the prefill-fast group by
   capability-normalized backlog.

The headline: each homogeneous fleet has a rate where it clearly loses
(bulk's p99 floor at the moderate rate, premium's goodput collapse at
the saturating rate), while the mixed fleet tracks the best
homogeneous fleet at **both** rates — so on worst-case-across-rates
p99 TTFT and SLO goodput the mixed fleet beats both pure fleets at
equal cost.  The mixed-fleet capacity search
(:func:`repro.api.find_fleet_capacity`) then recovers a cost-optimal
group mix for a fixed demand on the same trace.  All runs are
deterministic, so the committed numbers (``BENCH_hetero_fleet.json``)
regenerate exactly.

Run standalone for CI smoke: ``python benchmarks/bench_hetero_fleet.py
--quick`` (smaller streams, looser bars, still writes the JSON).
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.api import (
    DeploymentSpec,
    FleetSpec,
    ReplicaGroupSpec,
    WorkloadSpec,
    find_fleet_capacity,
    simulate,
)
from repro.serving.dataset import ChatTraceConfig
from repro.serving.qos import goodput_per_s

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_hetero_fleet.json"

#: Short decode-heavy bulk (median 400-token prompts) plus a long
#: prefill-heavy tail (sigma 1.5 puts ~9% of prompts past 2k tokens,
#: clipped at 8k) — the regime where per-group capability matters.
TRACE = ChatTraceConfig(
    name="mixed-prefill-decode",
    input_median=400.0,
    input_sigma=1.5,
    output_median=180.0,
    output_sigma=0.9,
    max_input=8192,
    max_output=1024,
)

ADOR_COST = 1.0   # replica-second cost units
H100_COST = 3.0   # premium chip: 1.9x ADOR prefill, 1.5x decode

#: At the high rate the generated-token demand (~11k tok/s) sits
#: between the premium fleet's aggregate capacity (~9k tok/s, it
#: saturates and its queue grows for the whole arrival window) and the
#: bulk/mixed fleets' (~13k tok/s, both stay stable).
FULL = {
    "seeds": (13, 29, 47),
    "num_requests": {"moderate": 900, "saturating": 900},
    "rates_per_s": {"moderate": 20.0, "saturating": 42.0},
    "slo_ttft_s": 0.2,
    "cost_rate": 12.0,
    "capacity": {"rate_per_s": 10.0, "num_requests": 240,
                 "slo_tbt_s": 0.05},
}
#: The saturating rate needs the full ~21 s arrival window for the
#: premium fleet's queue to actually build (shorter streams drain
#: before the collapse shows), so quick mode only trims the moderate
#: rate and the seed count.
QUICK = {
    "seeds": (13,),
    "num_requests": {"moderate": 240, "saturating": 900},
    "rates_per_s": {"moderate": 20.0, "saturating": 42.0},
    "slo_ttft_s": 0.2,
    "cost_rate": 12.0,
    "capacity": {"rate_per_s": 6.0, "num_requests": 120,
                 "slo_tbt_s": 0.05},
}


def _group(chip, count, cost, name, **kwargs):
    return ReplicaGroupSpec(chip=chip, count=count, max_batch=32,
                            cost_per_replica_s=cost, name=name, **kwargs)


def _fleets() -> dict:
    """Three fleets at the identical 12 cost-units/s rate."""
    return {
        "bulk-12xador": (
            FleetSpec(groups=(_group("ador", 12, ADOR_COST, "ador-pool"),)),
            "slo-aware"),
        "premium-4xh100": (
            FleetSpec(groups=(_group("h100", 4, H100_COST, "gpu-pool"),)),
            "slo-aware"),
        "mixed-1xh100+9xador": (
            FleetSpec(groups=(_group("h100", 1, H100_COST, "gpu-pool"),
                              _group("ador", 9, ADOR_COST, "ador-pool"))),
            "hetero-aware:2048"),
    }


def _fleet_cost_rate(fleet: FleetSpec) -> float:
    return sum(g.count * g.cost_per_replica_s for g in fleet.groups)


def _run_one(config, fleet, router, rate_label, seed) -> dict:
    rate = config["rates_per_s"][rate_label]
    workload = WorkloadSpec(trace=TRACE, rate_per_s=rate,
                            num_requests=config["num_requests"][rate_label],
                            seed=seed)
    report = simulate(DeploymentSpec(fleet=fleet, router=router), workload)
    qos = report.qos
    result = report.result
    goodput = goodput_per_s(result.finished, result.total_time_s,
                            config["slo_ttft_s"])
    return {
        "seed": seed,
        "rate_per_s": rate,
        "p95_ttft_s": qos.ttft_p95_s,
        "p99_ttft_s": qos.ttft_p99_s,
        "tokens_per_s": qos.tokens_per_s,
        "goodput_per_s": goodput,
        "slo_attainment": goodput / rate,
        "finished": len(result.finished),
        "unfinished": len(result.unfinished),
    }


def _determinism_probe(config) -> bool:
    """Same spec + seed => identical QoS and per-group breakdown."""
    fleet, router = _fleets()["mixed-1xh100+9xador"]

    def run_once():
        workload = WorkloadSpec(
            trace=TRACE,
            rate_per_s=config["rates_per_s"]["saturating"],
            num_requests=config["num_requests"]["saturating"],
            seed=config["seeds"][0])
        report = simulate(DeploymentSpec(fleet=fleet, router=router),
                          workload)
        return report.qos, report.groups

    return run_once() == run_once()


def _search_capacity(config) -> dict:
    """Cost-optimal mix for a fixed demand on the same trace.

    Group 0 (ADOR) is the bisected axis; the premium group spans the
    {0, 1} lattice, so the search decides whether one H100 is worth
    three ADORs at this demand.
    """
    spec = config["capacity"]
    fleet = FleetSpec(groups=(
        _group("ador", 6, ADOR_COST, "ador-pool", min_count=0, max_count=8),
        _group("h100", 1, H100_COST, "gpu-pool", min_count=0, max_count=1),
    ))
    workload = WorkloadSpec(trace=TRACE, rate_per_s=spec["rate_per_s"],
                            num_requests=spec["num_requests"], seed=13)
    report = find_fleet_capacity(
        DeploymentSpec(fleet=fleet, router="hetero-aware:2048"),
        workload, slo_tbt_s=spec["slo_tbt_s"])
    return {
        "rate_per_s": spec["rate_per_s"],
        "slo_tbt_s": spec["slo_tbt_s"],
        "mix": report.mix_label(),
        "counts": list(report.counts),
        "cost_rate": report.cost_rate,
        "probes": len(report.probes),
        "simulations": report.simulations,
    }


def run_hetero_fleet(quick: bool = False) -> dict:
    config = QUICK if quick else FULL
    fleets = _fleets()
    runs = []
    for label, (fleet, router) in fleets.items():
        assert _fleet_cost_rate(fleet) == config["cost_rate"]
        for rate_label in config["rates_per_s"]:
            for seed in config["seeds"]:
                row = _run_one(config, fleet, router, rate_label, seed)
                row["fleet"] = label
                row["router"] = router
                row["rate_label"] = rate_label
                runs.append(row)

    def median(label, rate_label, key):
        return float(np.median([r[key] for r in runs
                                if r["fleet"] == label
                                and r["rate_label"] == rate_label]))

    per_fleet = {}
    for label in fleets:
        rates = {
            rate_label: {
                "p99_ttft_s": median(label, rate_label, "p99_ttft_s"),
                "slo_attainment": median(label, rate_label,
                                         "slo_attainment"),
            }
            for rate_label in config["rates_per_s"]
        }
        per_fleet[label] = {
            **rates,
            "worst_p99_ttft_s": max(r["p99_ttft_s"]
                                    for r in rates.values()),
            "worst_slo_attainment": min(r["slo_attainment"]
                                        for r in rates.values()),
        }
    return {
        "benchmark": "hetero_fleet",
        "mode": "quick" if quick else "full",
        "config": {
            "seeds": list(config["seeds"]),
            "num_requests": dict(config["num_requests"]),
            "rates_per_s": dict(config["rates_per_s"]),
            "slo_ttft_s": config["slo_ttft_s"],
            "cost_rate": config["cost_rate"],
            "trace": TRACE.name,
            "capacity": dict(config["capacity"]),
        },
        "runs": runs,
        "summary": {
            "per_fleet": per_fleet,
            "capacity": _search_capacity(config),
            "deterministic": _determinism_probe(config),
        },
    }


def render(payload: dict) -> str:
    rows = [[r["fleet"], r["rate_label"], r["seed"],
             r["p95_ttft_s"] * 1e3, r["p99_ttft_s"] * 1e3,
             r["tokens_per_s"], r["goodput_per_s"],
             r["slo_attainment"]]
            for r in payload["runs"]]
    summary = payload["summary"]
    config = payload["config"]
    worst = [[label,
              stats["worst_p99_ttft_s"] * 1e3,
              stats["worst_slo_attainment"]]
             for label, stats in summary["per_fleet"].items()]
    capacity = summary["capacity"]
    return "\n\n".join([
        format_table(
            ["fleet", "rate", "seed", "p95 TTFT (ms)", "p99 TTFT (ms)",
             "tokens/s", "goodput/s", "SLO attain"],
            rows,
            title=f"Equal-cost fleets ({config['cost_rate']:g} "
                  f"cost-units/s) on the {config['trace']} trace"),
        format_table(
            ["fleet", "worst-case p99 TTFT (ms)", "worst-case attain"],
            worst, title="Worst case across rates (median over seeds)"),
        f"capacity search at {capacity['rate_per_s']:g} req/s "
        f"(TBT SLO {capacity['slo_tbt_s']:g} s): cheapest mix "
        f"{capacity['mix']} at {capacity['cost_rate']:g} cost-units/s "
        f"({capacity['simulations']} simulations, "
        f"{capacity['probes']} probes), "
        f"deterministic={summary['deterministic']}",
    ])


def check(payload: dict) -> None:
    summary = payload["summary"]
    quick = payload["mode"] == "quick"
    per_fleet = summary["per_fleet"]
    bulk = per_fleet["bulk-12xador"]
    premium = per_fleet["premium-4xh100"]
    mixed = per_fleet["mixed-1xh100+9xador"]

    assert summary["deterministic"], \
        "mixed-fleet run diverged between identical replays"
    for r in payload["runs"]:
        assert r["unfinished"] == 0, \
            f"{r['fleet']} seed {r['seed']} at {r['rate_label']} " \
            f"dropped {r['unfinished']} requests"

    # each homogeneous fleet has a rate where it clearly loses
    floor_ratio = 1.15 if quick else 1.25
    collapse_ratio = 1.3 if quick else 1.5
    assert bulk["moderate"]["p99_ttft_s"] \
        >= floor_ratio * premium["moderate"]["p99_ttft_s"], \
        "bulk fleet's prefill-floor p99 penalty vanished at the " \
        "moderate rate"
    assert premium["saturating"]["p99_ttft_s"] \
        >= collapse_ratio * mixed["saturating"]["p99_ttft_s"], \
        "premium fleet no longer saturates at the high rate"

    # the headline: worst-case-across-rates, mixed beats both
    p99_slack = 1.10 if quick else 1.03
    attain_slack = 0.93 if quick else 0.97
    homog_best_p99 = min(bulk["worst_p99_ttft_s"],
                         premium["worst_p99_ttft_s"])
    homog_best_attain = max(bulk["worst_slo_attainment"],
                            premium["worst_slo_attainment"])
    assert mixed["worst_p99_ttft_s"] <= p99_slack * homog_best_p99, \
        f"mixed worst-case p99 {mixed['worst_p99_ttft_s']:.3f}s above " \
        f"the best homogeneous fleet's {homog_best_p99:.3f}s"
    assert mixed["worst_slo_attainment"] \
        >= attain_slack * homog_best_attain, \
        f"mixed worst-case attainment {mixed['worst_slo_attainment']:.3f}" \
        f" below the best homogeneous fleet's {homog_best_attain:.3f}"

    capacity = summary["capacity"]
    assert capacity["counts"][0] >= 1, \
        "capacity search returned an empty fleet"
    assert 0.0 < capacity["cost_rate"] <= payload["config"]["cost_rate"], \
        "cost-optimal mix costs more than the benched fleets"
    assert capacity["simulations"] <= capacity["probes"], \
        "probe cache re-simulated a repeated mix"


def test_hetero_fleet_cost_parity(benchmark, report):
    # imported lazily: the CI smoke runs this file standalone in an
    # environment without pytest
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_hetero_fleet(quick=False))
    report("hetero_fleet", render(payload))
    DEFAULT_OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {DEFAULT_OUT}]")
    check(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small config for CI smoke")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    payload = run_hetero_fleet(quick=args.quick)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {args.out}]")
    check(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
