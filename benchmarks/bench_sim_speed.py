"""Simulator speed — the fast path vs the reference loop.

Not a paper figure: this bench measures the *simulator itself*, in
wall-clock simulated-tokens-per-second, and seeds the repo's recorded
perf trajectory (``BENCH_sim_speed.json``).  Two workloads:

1. **single-engine** — one continuous-batching ADOR endpoint under a
   Poisson ultrachat load;
2. **cluster-4x** — four replicas behind a join-shortest-queue router at
   a saturating arrival rate, the shape of a real capacity sweep.

Each runs twice: the fast path (device-model memoization via
:class:`~repro.perf.cache.CachedDeviceModel`, compiled prefill and
decode kernels, multi-step decode fast-forward) and the reference path
(``sim_cache=False`` — the original one-iteration-at-a-time loop with
uncompiled device models, whose per-operator prefill and decode
evaluations both kernels are held to).  With ``context_bucket=1`` the two must be
bit-identical; the bench asserts that before reporting any speedup.

A second table quantizes the decode context (``context_bucket > 1``) and
reports the measured QoS error against the exact run — the number to
consult before enabling bucketing in a coarse design sweep.

Run standalone for CI smoke: ``python benchmarks/bench_sim_speed.py
--quick`` (tiny config, asserts fast >= reference, still writes the
JSON).
"""

import argparse
import functools
import json
import pathlib
import sys
import time

from repro.analysis.sweep import sweep
from repro.analysis.tables import format_table
from repro.api import (
    ClusterReport,
    DeploymentSpec,
    ServingReport,
    WorkloadSpec,
    simulate,
)
from repro.cluster.engine import ClusterEngine, EngineGroup
from repro.core.scheduling import device_model_for
from repro.models.zoo import get_model
from repro.perf.cache import CachedDeviceModel

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_sim_speed.json"

#: The measured operating points.  max_batch=32 is a deliberately
#: realistic admission cap (the bursty-routing bench uses 12): batch
#: pins at the cap under load, which is also what makes memoization
#: effective.  The cluster rate saturates four replicas.
SINGLE = ("single-engine",
          DeploymentSpec(chip="ador", max_batch=32),
          WorkloadSpec(rate_per_s=12.0, num_requests=400, seed=7))
CLUSTER = ("cluster-4x",
           DeploymentSpec(chip="ador", replicas=4,
                          router="least-outstanding", max_batch=32),
           WorkloadSpec(rate_per_s=60.0, num_requests=2000, seed=7))
QUICK_SINGLE = ("single-engine",
                DeploymentSpec(chip="ador", max_batch=16),
                WorkloadSpec(rate_per_s=10.0, num_requests=120, seed=7))
QUICK_CLUSTER = ("cluster-2x",
                 DeploymentSpec(chip="ador", replicas=2,
                                router="least-outstanding", max_batch=16),
                 WorkloadSpec(rate_per_s=25.0, num_requests=300, seed=7))

BUCKETS = (32, 128)

#: QoS fields the bucket-error study compares (headline metrics).
_QOS_FIELDS = ("ttft_mean_s", "ttft_p95_s", "ttft_p99_s", "tbt_mean_s",
               "tbt_p95_s", "e2e_mean_s", "tokens_per_s")


def _qos_key(report: ServingReport | ClusterReport):
    qos = report.qos
    result = report.result
    return tuple(getattr(qos, f) for f in _QOS_FIELDS) + (
        qos.ttft_p50_s, qos.tbt_p50_s, qos.tbt_p99_s, qos.e2e_p95_s,
        qos.requests_per_s, result.total_time_s, result.iterations,
        result.decode_steps, result.busy_time_s, result.decode_time_s,
        result.prefill_time_s)


def _measure(name, deployment, workload):
    """Fast vs reference wall-clock for one workload; asserts parity."""
    start = time.perf_counter()
    fast = simulate(deployment, workload)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    reference = simulate(deployment, workload, sim_cache=False)
    ref_s = time.perf_counter() - start
    identical = _qos_key(fast) == _qos_key(reference)
    tokens = fast.result.generated_tokens
    return {
        "workload": name,
        "replicas": deployment.replicas,
        "max_batch": deployment.max_batch,
        "rate_per_s": workload.rate_per_s,
        "num_requests": workload.num_requests,
        "simulated_tokens": tokens,
        "fast_wall_s": fast_s,
        "reference_wall_s": ref_s,
        "fast_tokens_per_wall_s": tokens / fast_s,
        "reference_tokens_per_wall_s": tokens / ref_s,
        "speedup": ref_s / fast_s,
        "bit_identical": identical,
    }


def _cache_stats(deployment, workload):
    """Hit rates of the shared device-model cache on one cluster run."""
    model = get_model(deployment.model)
    device = CachedDeviceModel(device_model_for(deployment.chip_spec()))
    engine = ClusterEngine(
        [EngineGroup("ador", device, model, deployment.scheduler_limits(),
                     num_devices=deployment.num_devices,
                     count=deployment.replicas)],
        router=deployment.router)
    engine.run(workload.build_requests())
    return device.cache_info()


# module-level (and case passed via partial) so ProcessPoolExecutor
# workers can pickle it under any start method, spawn included
def _bucket_point(case, bucket):
    _, deployment, workload = case
    report = simulate(deployment, workload, context_bucket=bucket)
    return {field: getattr(report.qos, field) for field in _QOS_FIELDS}


def _bucket_error_rows(case, workers):
    """Measured QoS error of context bucketing vs the exact fast path."""
    _, deployment, workload = case
    exact = {field: getattr(simulate(deployment, workload).qos, field)
             for field in _QOS_FIELDS}
    rows = []
    point = functools.partial(_bucket_point, case)
    for bucket, metrics in sweep(BUCKETS, point, workers=workers):
        errors = {field: abs(metrics[field] - exact[field])
                  / abs(exact[field])
                  for field in _QOS_FIELDS if exact[field] != 0}
        worst = max(errors, key=errors.get)
        rows.append({
            "context_bucket": bucket,
            "max_rel_error": errors[worst],
            "max_rel_error_field": worst,
            "tbt_mean_rel_error": errors["tbt_mean_s"],
            "ttft_p95_rel_error": errors["ttft_p95_s"],
        })
    return rows


def run_sim_speed(quick: bool = False, workers: int | None = 2) -> dict:
    cases = [QUICK_SINGLE, QUICK_CLUSTER] if quick else [SINGLE, CLUSTER]
    measurements = [_measure(*case) for case in cases]
    cluster_case = cases[-1]
    payload = {
        "benchmark": "sim_speed",
        "mode": "quick" if quick else "full",
        "workloads": measurements,
        "cluster_cache": _cache_stats(cluster_case[1], cluster_case[2]),
        "context_bucket_error": _bucket_error_rows(cluster_case, workers),
    }
    return payload


def render(payload: dict) -> str:
    speed_rows = [[m["workload"], m["simulated_tokens"],
                   m["reference_wall_s"], m["fast_wall_s"],
                   m["fast_tokens_per_wall_s"], m["speedup"],
                   str(m["bit_identical"])]
                  for m in payload["workloads"]]
    bucket_rows = [[row["context_bucket"],
                    row["max_rel_error"] * 100,
                    row["max_rel_error_field"],
                    row["tbt_mean_rel_error"] * 100]
                   for row in payload["context_bucket_error"]]
    cache = payload["cluster_cache"]
    return "\n\n".join([
        format_table(
            ["workload", "sim tokens", "ref wall (s)", "fast wall (s)",
             "fast tok/s", "speedup", "bit-identical"],
            speed_rows,
            title="Simulator speed: fast path (cache + compiled prefill "
                  "and decode kernels + fast-forward) vs reference loop"),
        format_table(
            ["context bucket", "max QoS err (%)", "worst field",
             "TBT mean err (%)"],
            bucket_rows,
            title="Context-bucket quantization error (cluster workload, "
                  "vs exact)"),
        f"cluster cache: decode hit rate {cache['decode_hit_rate']:.3f} "
        f"({cache['decode_entries']} entries), prefill hit rate "
        f"{cache['prefill_hit_rate']:.3f} ({cache['prefill_entries']} "
        f"entries)",
    ])


def check(payload: dict, min_cluster_speedup: float) -> None:
    for measurement in payload["workloads"]:
        assert measurement["bit_identical"], \
            f"{measurement['workload']}: fast path diverged from reference"
        assert measurement["speedup"] >= 1.0, \
            f"{measurement['workload']}: fast path slower than reference " \
            f"({measurement['speedup']:.2f}x)"
    cluster = payload["workloads"][-1]
    assert cluster["speedup"] >= min_cluster_speedup, \
        f"cluster speedup {cluster['speedup']:.2f}x < " \
        f"{min_cluster_speedup:.1f}x"
    for row in payload["context_bucket_error"]:
        assert row["max_rel_error"] < 0.25, \
            f"bucket {row['context_bucket']} error unexpectedly large"


def test_sim_speed(benchmark, report):
    # imported lazily: the CI smoke runs this file standalone in an
    # environment without pytest
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_sim_speed(quick=False))
    report("sim_speed", render(payload))
    DEFAULT_OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {DEFAULT_OUT}]")
    check(payload, min_cluster_speedup=5.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny config for CI smoke")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool workers for the bucket sweep")
    parser.add_argument("--min-cluster-speedup", type=float, default=None,
                        help="fail below this cluster speedup "
                             "(default: 5.0 full, 1.0 quick)")
    args = parser.parse_args(argv)
    payload = run_sim_speed(quick=args.quick, workers=args.workers)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {args.out}]")
    minimum = args.min_cluster_speedup
    if minimum is None:
        minimum = 1.0 if args.quick else 5.0
    check(payload, min_cluster_speedup=minimum)
    return 0


if __name__ == "__main__":
    sys.exit(main())
