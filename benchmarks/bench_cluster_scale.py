"""Cluster scale — streaming arrivals, sink-mode serving, and sharding.

Not a paper figure: this bench measures the *simulator's* million-request
regime and seeds the recorded perf trajectory
(``BENCH_cluster_scale.json``).  Three sections:

1. **stream** — a single continuous-batching ADOR endpoint fed a lazy
   wave-shaped arrival stream in sink mode (finished requests are
   aggregated by :class:`~repro.perf.scale.StreamStats` and dropped), in
   simulated-tokens-per-wall-second.  Full mode pushes >= 1e6 requests
   through without ever materializing the list; the wave shape (small
   simultaneous cohorts, long outputs) maximizes pure-decode bursts,
   which is where the event-compressed core pays.

2. **parity** — the lazy stream vs. a list of the same request
   sequence on a 4-replica cluster workload (the engine's two input
   paths; the JSON key keeps its ``stream_vs_materialized`` name), and
   two runs of ``shards=1``, the exact unsharded engine path (the JSON
   key keeps its ``shard1_vs_unsharded`` name): both must be
   bit-identical (every replica counter, every request timeline) before
   any number here is trusted.

3. **shard** — ``shards=2`` worker processes vs. the in-process engine
   on the same fixed fleet.  The speedup is recorded *honestly*: on a
   single-core runner process sharding buys nothing (expect <= 1x); the
   row exists so multi-core runs have a baseline to compare against.

Run standalone for CI smoke: ``python benchmarks/bench_cluster_scale.py
--quick`` (small counts, same assertions except the million-request
floor, still writes the JSON).
"""

import argparse
import json
import pathlib
import sys
import time

from repro.analysis.tables import format_table
from repro.api import DeploymentSpec, WorkloadSpec, simulate, simulate_cluster
from repro.api.facade import _device_for
from repro.cluster.engine import ClusterEngine, EngineGroup
from repro.hardware.registry import get_chip
from repro.models.zoo import get_model
from repro.perf.scale import StreamStats
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_cluster_scale.json"

#: Stream-section shape: cohorts of WAVE requests arrive together, far
#: enough apart that each cohort drains before the next.  Long outputs
#: with short prompts keep the engine in pure-decode bursts — one event
#: per completed cohort instead of one per token — which is the regime
#: the event-compressed core is built for.
WAVE = 64
WAVE_INPUT = 16
WAVE_OUTPUT = 512
WAVE_SPACING_S = 10_000.0

STREAM_FULL = 1_000_000
STREAM_QUICK = 50_000

CLUSTER = (DeploymentSpec(chip="ador", replicas=4,
                          router="least-outstanding", max_batch=32),
           WorkloadSpec(rate_per_s=60.0, num_requests=2000, seed=7))
QUICK_CLUSTER = (DeploymentSpec(chip="ador", replicas=4,
                                router="least-outstanding", max_batch=16),
                 WorkloadSpec(rate_per_s=40.0, num_requests=400, seed=7))


def wave_arrivals(count):
    """Lazy wave-shaped arrival stream (never a list)."""
    for i in range(count):
        yield Request(request_id=i,
                      arrival_time=(i // WAVE) * WAVE_SPACING_S,
                      input_tokens=WAVE_INPUT, output_tokens=WAVE_OUTPUT)


def request_fingerprints(requests):
    return sorted(
        (r.request_id, r.generated_tokens, r.prefilled_tokens,
         r.first_token_time, r.last_token_time, r.finish_time,
         r.state.value)
        for r in requests)


def cluster_fingerprint(result):
    return tuple(
        (rep.total_time_s, rep.iterations, rep.decode_steps,
         request_fingerprints(rep.finished),
         request_fingerprints(rep.unfinished))
        for rep in result.replica_results)


def _measure_stream(count):
    """Sink-mode streaming run; the request list never exists."""
    device = _device_for(get_chip("ador"), True, 1)
    engine = ServingEngine(device, get_model("llama3-8b"),
                           SchedulerLimits(max_batch=WAVE))
    stats = StreamStats()
    horizon = (count // WAVE + 2) * WAVE_SPACING_S
    start = time.perf_counter()
    result = engine.run(wave_arrivals(count), max_sim_seconds=horizon,
                        sink=stats)
    wall = time.perf_counter() - start
    assert stats.finished == count, \
        f"stream run dropped requests: {stats.finished}/{count}"
    return {
        "requests": count,
        "simulated_tokens": stats.tokens,
        "simulated_seconds": result.total_time_s,
        "wall_s": wall,
        "tokens_per_wall_s": stats.tokens / wall,
        "requests_per_wall_s": count / wall,
        "mean_ttft_s": stats.mean_ttft_s,
        "mean_e2e_s": stats.mean_e2e_s,
    }


def _measure_parity(deployment, workload):
    """Stream-vs-list (same sequence) and repeat-run shards=1
    bit-identity."""
    device = _device_for(get_chip("ador"), True, 1)
    model = get_model(deployment.model)

    def engine():
        return ClusterEngine(
            [EngineGroup("ador", device, model,
                         deployment.scheduler_limits(),
                         num_devices=deployment.num_devices,
                         count=deployment.replicas)],
            router=deployment.router)

    streamed = engine().run(workload.request_stream())
    materialized = engine().run(workload.build_requests())
    stream_identical = cluster_fingerprint(streamed) \
        == cluster_fingerprint(materialized)

    shard1 = simulate_cluster(deployment, workload, shards=1).cluster
    reference = simulate(deployment, workload)
    shard1_identical = cluster_fingerprint(shard1) \
        == cluster_fingerprint(reference.cluster)
    return {
        "replicas": deployment.replicas,
        "num_requests": workload.num_requests,
        "stream_vs_materialized_identical": stream_identical,
        "shard1_vs_unsharded_identical": shard1_identical,
        "bit_identical": stream_identical and shard1_identical,
    }


def _measure_shards(deployment, workload):
    """In-process engine vs. 2 shard worker processes, wall clock."""
    start = time.perf_counter()
    unsharded = simulate_cluster(deployment, workload).cluster
    unsharded_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded = simulate_cluster(deployment, workload, shards=2).cluster
    sharded_s = time.perf_counter() - start
    conserved = (
        len(sharded.merged.finished) + len(sharded.merged.unfinished)
        == len(unsharded.merged.finished)
        + len(unsharded.merged.unfinished))
    return {
        "shards": 2,
        "replicas": deployment.replicas,
        "num_requests": workload.num_requests,
        "unsharded_wall_s": unsharded_s,
        "sharded_wall_s": sharded_s,
        "speedup": unsharded_s / sharded_s,
        "requests_conserved": conserved,
    }


def run_cluster_scale(quick: bool = False) -> dict:
    stream_count = STREAM_QUICK if quick else STREAM_FULL
    deployment, workload = QUICK_CLUSTER if quick else CLUSTER
    return {
        "benchmark": "cluster_scale",
        "mode": "quick" if quick else "full",
        "stream": _measure_stream(stream_count),
        "parity": _measure_parity(deployment, workload),
        "shard": _measure_shards(deployment, workload),
    }


def render(payload: dict) -> str:
    stream = payload["stream"]
    parity = payload["parity"]
    shard = payload["shard"]
    return "\n\n".join([
        format_table(
            ["requests", "sim tokens", "sim seconds", "wall (s)",
             "tokens/wall s", "requests/wall s"],
            [[stream["requests"], stream["simulated_tokens"],
              stream["simulated_seconds"], stream["wall_s"],
              stream["tokens_per_wall_s"],
              stream["requests_per_wall_s"]]],
            title="Streaming sink-mode serving (constant memory, "
                  "wave arrivals)"),
        format_table(
            ["replicas", "requests", "stream==list", "shard1==engine"],
            [[parity["replicas"], parity["num_requests"],
              str(parity["stream_vs_materialized_identical"]),
              str(parity["shard1_vs_unsharded_identical"])]],
            title="Bit-identity (fingerprints over every replica and "
                  "request)"),
        format_table(
            ["shards", "replicas", "requests", "in-proc wall (s)",
             "sharded wall (s)", "speedup", "conserved"],
            [[shard["shards"], shard["replicas"], shard["num_requests"],
              shard["unsharded_wall_s"], shard["sharded_wall_s"],
              shard["speedup"], str(shard["requests_conserved"])]],
            title="Sharded worker processes vs in-process engine "
                  "(modeled partition; speedup is honest — expect <= 1x "
                  "on a single-core runner)"),
    ])


def check(payload: dict) -> None:
    parity = payload["parity"]
    assert parity["bit_identical"], \
        "streaming/sharding parity broken — numbers above are untrusted"
    stream = payload["stream"]
    shard = payload["shard"]
    assert shard["requests_conserved"], "sharded run lost requests"
    if payload["mode"] == "full":
        assert stream["requests"] >= 1_000_000, \
            f"full mode must stream >= 1e6 requests, " \
            f"got {stream['requests']}"
        assert stream["tokens_per_wall_s"] >= 10_000_000, \
            f"stream throughput {stream['tokens_per_wall_s']:,.0f} " \
            f"tok/s < 10M floor"
    else:
        assert stream["tokens_per_wall_s"] >= 1_000_000, \
            f"quick stream throughput " \
            f"{stream['tokens_per_wall_s']:,.0f} tok/s < 1M floor"


def test_cluster_scale(benchmark, report):
    # imported lazily: the CI smoke runs this file standalone in an
    # environment without pytest
    from conftest import run_once

    payload = run_once(benchmark, lambda: run_cluster_scale(quick=False))
    report("cluster_scale", render(payload))
    DEFAULT_OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {DEFAULT_OUT}]")
    check(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small counts for CI smoke")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    payload = run_cluster_scale(quick=args.quick)
    print(render(payload))
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[written to {args.out}]")
    check(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
