"""Goodput under replica crashes, and recovery: elastic vs fixed fleet.

Not a paper figure: ADOR's serving analysis (Fig. 13/16) assumes a
healthy fixed fleet; this bench measures what deterministic fault
injection (``repro.cluster.faults``) reveals about serving *through*
failures.  Two questions:

1. **Degradation** — a 4x ADOR fleet serves the identical steady
   ultrachat stream while per-replica crash MTBF sweeps from "never"
   down to well inside the run length.  Crashes lose every in-flight
   request (requeued under the retry budget, original arrival time
   kept), so raw throughput sags and the TTFT tail — and with it
   **goodput**, completions meeting the TTFT SLO per second — degrades
   monotonically as crashes become more frequent.
2. **Recovery** — one crash, two fleets.  The fixed fleet waits out
   the full restart delay with a hole in its capacity; the autoscaled
   fleet sees the crash as capacity loss at the next decision tick and
   fills the hole from its warm pool in a couple of seconds.  Recovery
   time is read off the fleet timeline: first instant the ready count
   is back to its pre-crash value.

Fault schedules are seeded per replica, so every row regenerates
bit-identically (``BENCH_resilience.json``); the determinism probe
reruns the heaviest-crash config and compares the full fault trace
and QoS.

Run standalone for CI smoke: ``python benchmarks/bench_resilience.py
--quick`` (one seed, shorter stream, same shape).
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from repro.analysis.tables import format_table
from repro.cluster import AutoscaleSpec, ClusterEngine, EngineGroup
from repro.cluster.faults import FaultEvent, FaultSpec
from repro.cluster.report import AutoscaleTrace
from repro.core.scheduling import device_model_for
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel
from repro.serving.dataset import ULTRACHAT_LIKE
from repro.serving.generator import iter_poisson_requests
from repro.serving.qos import goodput_per_s
from repro.serving.scheduler import SchedulerLimits

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_resilience.json"

#: 14 req/s across 4 replicas runs each at ~80% of its ~4.5 req/s
#: capacity, so the fault-free fleet meets a 1 s TTFT SLO comfortably
#: and every crash-induced requeue burst shows up in the tail.  MTBFs
#: are per replica: 30 s over a ~35 s run means every replica is
#: expected to crash about once.
FULL = {
    "seeds": (3, 7, 11),
    "rate_per_s": 14.0,
    "num_requests": 400,
    "replicas": 4,
    "max_batch": 12,
    "crash_mtbfs_s": (None, 120.0, 60.0, 30.0),
    "restart_delay_s": 8.0,
    "max_retries": 3,
    "slo_ttft_s": 1.0,
    "crash_time_s": 10.0,
}
QUICK = {
    "seeds": (3,),
    "rate_per_s": 14.0,
    "num_requests": 150,
    "replicas": 4,
    "max_batch": 12,
    "crash_mtbfs_s": (None, 60.0, 20.0),
    "restart_delay_s": 8.0,
    "max_retries": 3,
    "slo_ttft_s": 1.0,
    "crash_time_s": 5.0,
}


def _stream(config, seed):
    return list(iter_poisson_requests(
        ULTRACHAT_LIKE, config["rate_per_s"], seed, config["num_requests"]))


def _fleet(config, device, model) -> list[EngineGroup]:
    """The bench's one group: ``replicas`` ADOR replicas."""
    return [EngineGroup("ador", device, model, _limits(config),
                        count=config["replicas"])]


def _limits(config) -> SchedulerLimits:
    return SchedulerLimits(max_batch=config["max_batch"],
                           prefill_chunk_tokens=512)


def _fault_spec(config, mtbf_s) -> FaultSpec | None:
    if mtbf_s is None:
        return None
    return FaultSpec(seed=1, crash_mtbf_s=mtbf_s,
                     restart_delay_s=config["restart_delay_s"],
                     max_retries=config["max_retries"],
                     slo_ttft_s=config["slo_ttft_s"])


def _run_degradation(config, device, model, seed, mtbf_s) -> dict:
    engine = ClusterEngine(_fleet(config, device, model),
                           router="least-outstanding",
                           faults=_fault_spec(config, mtbf_s))
    result = engine.run(_stream(config, seed), max_sim_seconds=600.0)
    wall = result.merged.total_time_s
    finished = result.merged.finished
    trace = result.faults
    return {
        "seed": seed,
        "crash_mtbf_s": mtbf_s,
        "finished": len(finished),
        "failed": trace.failed_count if trace else 0,
        "crashes": trace.crashes if trace else 0,
        "retries": trace.retries if trace else 0,
        "lost_requests": trace.lost_requests if trace else 0,
        "throughput_req_s": len(finished) / wall,
        "goodput_req_s": goodput_per_s(finished, wall,
                                       config["slo_ttft_s"]),
        "p99_ttft_s": result.qos().ttft_p99_s,
    }


def _recovery_spec(config) -> FaultSpec:
    return FaultSpec(
        seed=1, restart_delay_s=config["restart_delay_s"],
        max_retries=config["max_retries"],
        slo_ttft_s=config["slo_ttft_s"],
        events=(FaultEvent(kind="crash", replica_id=0,
                           time_s=config["crash_time_s"]),))


def _recovery_from_timeline(trace: AutoscaleTrace,
                            crash_time_s: float) -> float:
    """Seconds from the crash until the ready count is back to its
    pre-crash value (timeline samples land on decision ticks)."""
    before = max((sample.ready for sample in trace.timeline
                  if sample.clock_s < crash_time_s), default=0)
    for sample in trace.timeline:
        if sample.clock_s > crash_time_s and sample.ready >= before:
            return sample.clock_s - crash_time_s
    return float("inf")


def _run_recovery(config, device, model) -> dict:
    """One crash at a fixed instant: fixed fleet vs warm elastic fleet."""
    seed = config["seeds"][0]
    spec = _recovery_spec(config)
    fixed = ClusterEngine(_fleet(config, device, model),
                          router="least-outstanding",
                          faults=spec).run(
        _stream(config, seed), max_sim_seconds=600.0)
    # min == max pins the fleet size: the only scaling the policy can
    # do is replace crashed capacity, so the recovery measurement is
    # not confounded by load-driven ups/downs draining the warm pool
    autoscale = AutoscaleSpec(
        policy="queue-depth",
        min_replicas=config["replicas"],
        max_replicas=config["replicas"],
        decision_interval_s=1.0,
        provision_latency_s=10.0,
        warm_pool_size=2,
        warm_provision_s=1.0)
    elastic = ClusterEngine(_fleet(config, device, model),
                            router="least-outstanding",
                            autoscale=autoscale, faults=spec).run(
        _stream(config, seed), max_sim_seconds=600.0)
    fixed_downtime = dict(fixed.faults.downtime_by_replica).get(0, 0.0)
    return {
        "crash_time_s": config["crash_time_s"],
        "fixed_recovery_s": fixed_downtime,
        "elastic_recovery_s": _recovery_from_timeline(
            elastic.autoscale, config["crash_time_s"]),
        "fixed_finished": len(fixed.merged.finished),
        "elastic_finished": len(elastic.merged.finished),
        "fixed_failed": fixed.faults.failed_count,
        "elastic_failed": elastic.faults.failed_count,
        "elastic_launches": elastic.autoscale.launched,
        "elastic_warm_launches": elastic.autoscale.warm_launches,
    }


def _determinism_probe(config, device, model) -> bool:
    """Same spec + seed => identical fault trace, retries, and QoS."""
    heaviest = config["crash_mtbfs_s"][-1]

    def run_once():
        engine = ClusterEngine(_fleet(config, device, model),
                               router="least-outstanding",
                               faults=_fault_spec(config, heaviest))
        result = engine.run(_stream(config, config["seeds"][0]),
                            max_sim_seconds=600.0)
        trace = result.faults
        return (trace.records, trace.retries,
                tuple(sorted(r.request_id for r in trace.failed)),
                trace.downtime_by_replica, result.qos())

    return run_once() == run_once()


def run_resilience(quick: bool = False) -> dict:
    config = QUICK if quick else FULL
    model = get_model("llama3-8b")
    device = CachedDeviceModel(device_model_for(get_chip("ador")))
    runs = [_run_degradation(config, device, model, seed, mtbf)
            for mtbf in config["crash_mtbfs_s"]
            for seed in config["seeds"]]
    by_mtbf = []
    for mtbf in config["crash_mtbfs_s"]:
        rows = [r for r in runs if r["crash_mtbf_s"] == mtbf]
        by_mtbf.append({
            "crash_mtbf_s": mtbf,
            "goodput_req_s": float(np.mean(
                [r["goodput_req_s"] for r in rows])),
            "throughput_req_s": float(np.mean(
                [r["throughput_req_s"] for r in rows])),
            "p99_ttft_s": float(np.mean(
                [r["p99_ttft_s"] for r in rows])),
            "crashes": int(np.sum([r["crashes"] for r in rows])),
            "retries": int(np.sum([r["retries"] for r in rows])),
            "failed": int(np.sum([r["failed"] for r in rows])),
        })
    recovery = _run_recovery(config, device, model)
    clean_goodput = by_mtbf[0]["goodput_req_s"]
    worst_goodput = by_mtbf[-1]["goodput_req_s"]
    return {
        "benchmark": "resilience",
        "mode": "quick" if quick else "full",
        "config": {key: (list(value) if isinstance(value, tuple)
                         else value)
                   for key, value in config.items()},
        "runs": runs,
        "by_mtbf": by_mtbf,
        "recovery": recovery,
        "summary": {
            "clean_goodput_req_s": clean_goodput,
            "worst_goodput_req_s": worst_goodput,
            "goodput_retained": worst_goodput / clean_goodput,
            "clean_p99_ttft_s": by_mtbf[0]["p99_ttft_s"],
            "worst_p99_ttft_s": by_mtbf[-1]["p99_ttft_s"],
            "fixed_recovery_s": recovery["fixed_recovery_s"],
            "elastic_recovery_s": recovery["elastic_recovery_s"],
            "deterministic": _determinism_probe(config, device, model),
        },
    }


def render(payload: dict) -> str:
    config = payload["config"]
    rows = [["never" if r["crash_mtbf_s"] is None
             else f"{r['crash_mtbf_s']:g}",
             r["goodput_req_s"],
             r["throughput_req_s"],
             r["p99_ttft_s"] * 1e3,
             r["crashes"], r["retries"], r["failed"]]
            for r in payload["by_mtbf"]]
    summary = payload["summary"]
    recovery = payload["recovery"]
    return "\n\n".join([
        format_table(
            ["crash MTBF (s)", "goodput (req/s)", "throughput (req/s)",
             "p99 TTFT (ms)", "crashes", "retries", "failed"],
            rows,
            title=f"{config['replicas']}x ADOR under seeded crashes, "
                  f"steady ultrachat {config['rate_per_s']:g} req/s, "
                  f"TTFT SLO {config['slo_ttft_s'] * 1e3:g} ms "
                  f"(mean over {len(config['seeds'])} seed(s))"),
        f"recovery from one crash at t={recovery['crash_time_s']:g}s: "
        f"fixed fleet {recovery['fixed_recovery_s']:.1f} s (full restart "
        f"delay), warm elastic fleet "
        f"{recovery['elastic_recovery_s']:.1f} s "
        f"({recovery['elastic_warm_launches']} warm launch(es)); "
        f"goodput retained at the heaviest crash rate "
        f"{summary['goodput_retained']:.1%}, "
        f"deterministic={summary['deterministic']}",
    ])


def check(payload: dict) -> None:
    summary = payload["summary"]
    config = payload["config"]
    assert summary["deterministic"], \
        "faulty run diverged between identical replays"
    for r in payload["runs"]:
        assert r["finished"] + r["failed"] == config["num_requests"], \
            f"seed {r['seed']} mtbf {r['crash_mtbf_s']}: requests lost " \
            f"without accounting"
        if r["crash_mtbf_s"] is None:
            assert r["crashes"] == 0 and r["retries"] == 0
    heaviest = payload["by_mtbf"][-1]
    assert heaviest["crashes"] >= 1, \
        "heaviest crash rate produced no crashes — sweep is vacuous"
    assert summary["worst_goodput_req_s"] \
        < summary["clean_goodput_req_s"], \
        "crashes did not degrade goodput"
    assert summary["worst_p99_ttft_s"] >= summary["clean_p99_ttft_s"], \
        "crashes did not degrade the TTFT tail"
    recovery = payload["recovery"]
    assert recovery["elastic_recovery_s"] \
        < recovery["fixed_recovery_s"], \
        f"warm elastic fleet recovered in " \
        f"{recovery['elastic_recovery_s']:.1f} s, not faster than the " \
        f"fixed fleet's {recovery['fixed_recovery_s']:.1f} s restart"
    assert recovery["fixed_finished"] + recovery["fixed_failed"] \
        == config["num_requests"]
    assert recovery["elastic_finished"] + recovery["elastic_failed"] \
        == config["num_requests"]


def test_resilience(benchmark, report):
    # imported lazily: the CI smoke runs this file standalone in an
    # environment without pytest
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_resilience(quick=False))
    report("resilience", render(payload))
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
    payload = run_resilience(quick=args.quick)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {args.out}]")
    check(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
