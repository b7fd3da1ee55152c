"""Autoscaled fleet vs fixed max-size fleet on bursty traffic.

Not a paper figure: ADOR's serving analysis (Fig. 13/16) assumes a
fixed device count; this bench measures what elasticity buys.  A
bursty on/off (Markov-modulated) arrival stream alternates saturating
bursts with near-idle lulls — the diurnal shape of real chat traffic —
and two deployments serve the identical request streams:

1. **fixed** — ``max_replicas`` endpoints behind join-shortest-queue,
   provisioned for the burst peak and idle through every lull;
2. **autoscaled** — the ``queue-depth`` policy growing the fleet from
   ``min_replicas`` within the same ``max_replicas`` cap, paying a
   10 s cold provision latency unless the warm pool (0.1 s) covers the
   launch, and draining replicas through the lulls.

The headline: the autoscaled fleet matches the fixed fleet's p99 TTFT
(saturated bursts dominate the tail either way, and mid-burst
scale-ups inject empty replicas that JSQ exploits immediately) while
consuming **>= 20% fewer replica-seconds** — capacity that tracks load
instead of the peak.  Both runs are deterministic, so the committed
numbers (``BENCH_autoscale.json``) regenerate exactly.

Run standalone for CI smoke: ``python benchmarks/bench_autoscale.py
--quick`` (smaller fleet and stream, looser bars, still writes the
JSON).
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.cluster import AutoscaleSpec, ClusterEngine, EngineGroup
from repro.core.scheduling import device_model_for
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.dataset import ULTRACHAT_LIKE
from repro.serving.generator import iter_onoff_requests
from repro.serving.scheduler import SchedulerLimits

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_autoscale.json"

#: Bursts at 45 req/s saturate even the 8-replica fleet (per-replica
#: capacity is ~4-5 req/s at max_batch=12 on the ultrachat trace), so
#: p99 TTFT is set by in-burst queueing for both deployments; the
#: 20 s lulls at 0.25 req/s are where the fixed fleet burns idle
#: replica-seconds the autoscaler reclaims.
FULL = {
    "seeds": (3, 7, 11, 19, 23),
    "on_rate_per_s": 45.0,
    "off_rate_per_s": 0.25,
    "phase_seconds": 20.0,
    "num_requests": 1000,
    "max_batch": 12,
    "min_replicas": 2,
    "max_replicas": 8,
}
QUICK = {
    "seeds": (3, 7),
    "on_rate_per_s": 45.0,
    "off_rate_per_s": 0.25,
    "phase_seconds": 12.0,
    "num_requests": 300,
    "max_batch": 12,
    "min_replicas": 1,
    "max_replicas": 4,
}


def _autoscale_spec(config) -> AutoscaleSpec:
    return AutoscaleSpec(
        policy="queue-depth",
        min_replicas=config["min_replicas"],
        max_replicas=config["max_replicas"],
        decision_interval_s=0.25,
        provision_latency_s=10.0,
        warm_pool_size=config["max_replicas"],
        warm_provision_s=0.1,
    )


def _stream(config, seed):
    return list(iter_onoff_requests(
        ULTRACHAT_LIKE,
        on_rate_per_s=config["on_rate_per_s"],
        off_rate_per_s=config["off_rate_per_s"],
        phase_seconds=config["phase_seconds"],
        seed=seed, count=config["num_requests"]))


def _run_pair(config, device, model, seed) -> dict:
    """Fixed max-size fleet vs autoscaled fleet on one request stream."""
    limits = SchedulerLimits(max_batch=config["max_batch"],
                             prefill_chunk_tokens=512)
    fixed = ClusterEngine(
        [EngineGroup("ador", device, model, limits,
                     count=config["max_replicas"])],
        router="least-outstanding").run(
        _stream(config, seed), max_sim_seconds=600.0)
    auto = ClusterEngine(
        [EngineGroup("ador", device, model, limits,
                     count=config["min_replicas"])],
        router="least-outstanding",
        autoscale=_autoscale_spec(config)).run(
        _stream(config, seed), max_sim_seconds=600.0)
    trace = auto.autoscale
    fixed_rs = config["max_replicas"] * fixed.merged.total_time_s
    fixed_busy = sum(r.busy_time_s for r in fixed.replica_results)
    return {
        "seed": seed,
        "requests": config["num_requests"],
        "fixed_finished": len(fixed.merged.finished),
        "auto_finished": len(auto.merged.finished),
        "fixed_p99_ttft_s": fixed.qos().ttft_p99_s,
        "auto_p99_ttft_s": auto.qos().ttft_p99_s,
        "fixed_replica_seconds": fixed_rs,
        "auto_replica_seconds": trace.replica_seconds,
        "fixed_utilization": fixed_busy / fixed_rs,
        "peak_replicas": trace.peak_replicas,
        "scale_ups": trace.scale_ups,
        "scale_downs": trace.scale_downs,
        "warm_launches": trace.warm_launches,
        "cold_launches": trace.cold_launches,
    }


def _determinism_probe(config, device, model) -> bool:
    """Same stream + spec => identical scaling history and QoS."""
    def run_once():
        limits = SchedulerLimits(max_batch=config["max_batch"],
                                 prefill_chunk_tokens=512)
        engine = ClusterEngine(
            [EngineGroup("ador", device, model, limits,
                         count=config["min_replicas"])],
            router="least-outstanding", autoscale=_autoscale_spec(config))
        result = engine.run(_stream(config, config["seeds"][0]),
                            max_sim_seconds=600.0)
        return result.autoscale, result.qos()

    return run_once() == run_once()


def run_autoscale(quick: bool = False) -> dict:
    config = QUICK if quick else FULL
    model = get_model("llama3-8b")
    device = CachedDeviceModel(device_model_for(get_chip("ador")))
    runs = [_run_pair(config, device, model, seed)
            for seed in config["seeds"]]
    fixed_p99 = float(np.mean([r["fixed_p99_ttft_s"] for r in runs]))
    auto_p99 = float(np.mean([r["auto_p99_ttft_s"] for r in runs]))
    fixed_rs = float(np.mean([r["fixed_replica_seconds"] for r in runs]))
    auto_rs = float(np.mean([r["auto_replica_seconds"] for r in runs]))
    return {
        "benchmark": "autoscale",
        "mode": "quick" if quick else "full",
        "config": {key: (list(value) if isinstance(value, tuple)
                         else value)
                   for key, value in config.items()},
        "runs": runs,
        "summary": {
            "fixed_p99_ttft_s": fixed_p99,
            "auto_p99_ttft_s": auto_p99,
            "p99_ratio": auto_p99 / fixed_p99,
            "fixed_replica_seconds": fixed_rs,
            "auto_replica_seconds": auto_rs,
            "replica_seconds_saved": 1.0 - auto_rs / fixed_rs,
            "fixed_utilization": float(np.mean(
                [r["fixed_utilization"] for r in runs])),
            "deterministic": _determinism_probe(config, device, model),
        },
    }


def render(payload: dict) -> str:
    rows = [[r["seed"],
             r["fixed_p99_ttft_s"] * 1e3,
             r["auto_p99_ttft_s"] * 1e3,
             r["auto_p99_ttft_s"] / r["fixed_p99_ttft_s"],
             r["fixed_replica_seconds"],
             r["auto_replica_seconds"],
             1.0 - r["auto_replica_seconds"] / r["fixed_replica_seconds"],
             r["peak_replicas"],
             f"{r['scale_ups']}/{r['scale_downs']}"]
            for r in payload["runs"]]
    summary = payload["summary"]
    config = payload["config"]
    return "\n\n".join([
        format_table(
            ["seed", "fixed p99 TTFT (ms)", "auto p99 TTFT (ms)",
             "p99 ratio", "fixed rep-s", "auto rep-s", "saved",
             "peak", "ups/downs"],
            rows,
            title=f"Autoscaled vs fixed {config['max_replicas']}x ADOR, "
                  f"bursty on/off ultrachat "
                  f"({config['on_rate_per_s']:g}/"
                  f"{config['off_rate_per_s']:g} req/s, "
                  f"{config['phase_seconds']:g} s phases)"),
        f"mean: p99 ratio {summary['p99_ratio']:.3f} "
        f"(<= 1 means the elastic fleet matches the fixed tail), "
        f"replica-seconds saved {summary['replica_seconds_saved']:.1%} "
        f"(fixed fleet utilization {summary['fixed_utilization']:.2f}), "
        f"deterministic={summary['deterministic']}",
    ])


def check(payload: dict) -> None:
    summary = payload["summary"]
    quick = payload["mode"] == "quick"
    assert summary["deterministic"], \
        "autoscaled run diverged between identical replays"
    for r in payload["runs"]:
        assert r["fixed_finished"] == r["requests"], \
            f"seed {r['seed']}: fixed fleet dropped requests"
        assert r["auto_finished"] == r["requests"], \
            f"seed {r['seed']}: autoscaled fleet lost requests " \
            f"(drain contract violated)"
        assert r["scale_ups"] >= 1 and r["scale_downs"] >= 1, \
            f"seed {r['seed']}: fleet never scaled"
    # the headline claims; the quick config is too small for the full
    # bars but must show the same direction
    max_ratio = 1.15 if quick else 1.0
    min_saved = 0.08 if quick else 0.20
    assert summary["p99_ratio"] <= max_ratio, \
        f"autoscaled p99 TTFT {summary['p99_ratio']:.3f}x the fixed " \
        f"fleet (bar: {max_ratio})"
    assert summary["replica_seconds_saved"] >= min_saved, \
        f"replica-seconds saved {summary['replica_seconds_saved']:.1%} " \
        f"below the {min_saved:.0%} bar"


def test_autoscale_elasticity(benchmark, report):
    # imported lazily: the CI smoke runs this file standalone in an
    # environment without pytest
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_autoscale(quick=False))
    report("autoscale_elasticity", render(payload))
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
    payload = run_autoscale(quick=args.quick)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {args.out}]")
    check(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
