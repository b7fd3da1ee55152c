"""Simulator host-throughput benchmark.

Times whole simulator operations (arrival generation + simulation +
report, through the public API) on one workload, checks every simulated
output against the fingerprints recorded in ``golden.json``, and prints
one JSON result object as the last line of standard output.

    python3 perfbench/run.py --workload poisson-4x --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (host wall time, untraced,
scaled to a reference host speed by the calibration kernel in
``hostspeed.py``).
``--trace 1`` runs one untraced and one traced operation, reports the
per-layer ledger from the traced one, and repeats the traced pass on
``--second-seed`` to confirm which layers the workload bypasses.  The
traced operation's spans are written to ``perfbench/out/``.  Workloads
and their reasons are in ``workloads.json``; see ``README.md`` for the
metric definitions.
``END_TO_END`` and ``LEDGER`` below name every metric with its unit;
``contract.py`` copies them into ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: ``--trace 0`` metrics: name -> (unit, better, bound).  Host times
#: drift by 10-40% on a shared runner even after scaling, hence the
#: widest bound; resident memory barely moves run to run.
END_TO_END = {
    "sim_tokens_per_wall_s": ("tokens/s", "higher", 0.25),
    "study_wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: ``--trace 1`` metrics, the per-layer ledger: name -> (unit, better).
LEDGER = {
    "generator.requests": ("count", "lower"),
    "generator.self_s": ("s", "lower"),
    "router.calls": ("count", "lower"),
    "router.self_s": ("s", "lower"),
    "replica.advance_calls": ("count", "lower"),
    "replica.advance_self_s": ("s", "lower"),
    "replica.snapshot_calls": ("count", "lower"),
    "replica.snapshot_self_s": ("s", "lower"),
    "cluster.run_self_s": ("s", "lower"),
    "engine.run_self_s": ("s", "lower"),
    "engine.decode_steps": ("count", "lower"),
    "burst.calls": ("count", "lower"),
    "burst.steps": ("count", "higher"),
    "burst.steps_per_call": ("steps/call", "higher"),
    "burst.self_s": ("s", "lower"),
    "burst.ff_share": ("ratio", "higher"),
    "record_token.calls": ("count", "lower"),
    "record_token.self_s": ("s", "lower"),
    "scheduler.enqueue_calls": ("count", "lower"),
    "scheduler.enqueue_self_s": ("s", "lower"),
    "scheduler.plan_calls": ("count", "lower"),
    "scheduler.plan_self_s": ("s", "lower"),
    "scheduler.complete_calls": ("count", "lower"),
    "scheduler.complete_self_s": ("s", "lower"),
    "scheduler.mixed_plans": ("count", "lower"),
    "scheduler.mean_decode_batch": ("requests", "higher"),
    "kv.extend_calls": ("count", "lower"),
    "kv.extend_self_s": ("s", "lower"),
    "kv.growth_blocks_calls": ("count", "lower"),
    "kv.growth_blocks_self_s": ("s", "lower"),
    "kv.block_changes": ("count", "lower"),
    "kv.extend_useful_share": ("ratio", "higher"),
    "prefix.acquire_calls": ("count", "lower"),
    "prefix.self_s": ("s", "lower"),
    "prefix.hit_rate": ("ratio", "higher"),
    "prefix.saved_prefill_tokens": ("tokens", "higher"),
    "prefix.evictions": ("count", "lower"),
    "prefix.preemptions": ("count", "lower"),
    "device.decode_hit_rate": ("ratio", "higher"),
    "device.decode_misses": ("count", "lower"),
    "device.prefill_hit_rate": ("ratio", "higher"),
    "device.prefill_misses": ("count", "lower"),
    "device.miss_self_s": ("s", "lower"),
    "device.self_s": ("s", "lower"),
    "autoscaler.decisions": ("count", "lower"),
    "autoscaler.self_s": ("s", "lower"),
    "autoscaler.scale_ups": ("count", "lower"),
    "autoscaler.scale_downs": ("count", "lower"),
    "autoscaler.replica_seconds": ("replica-s", "lower"),
    "faults.self_s": ("s", "lower"),
    "faults.crashes": ("count", "lower"),
    "faults.slowdowns": ("count", "lower"),
    "faults.retries": ("count", "lower"),
    "faults.failed_requests": ("count", "lower"),
    "capacity.probes": ("count", "lower"),
    "capacity.aborted_probes": ("count", "higher"),
    "capacity.probe_self_s": ("s", "lower"),
    "capacity.sim_tokens": ("tokens", "lower"),
    "report.calls": ("count", "lower"),
    "report.self_s": ("s", "lower"),
    "api.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def _bootstrap() -> None:
    """Import the simulator from this checkout's sources, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {SRC}; "
                 f"run from the root of a full checkout")
    sys.path.insert(0, str(SRC))


def _problems(outcome, golden: dict, slot: int) -> list[str]:
    """Why an operation's output is wrong (empty when it is right)."""
    problems = []
    if not outcome.conserved:
        problems.append(
            f"conservation broken: {outcome.accounted} requests accounted "
            f"for, {outcome.generated} generated")
    recorded = golden.get(str(slot))
    if recorded is None:
        problems.append(f"no recorded fingerprint for input slot {slot}")
    elif outcome.fingerprint != recorded["fingerprint"]:
        problems.append(
            f"simulated output differs from the recorded fingerprint "
            f"(slot {slot}: {outcome.fingerprint[:12]} != "
            f"{recorded['fingerprint'][:12]})")
    return problems


def _timed(workload, inputs):
    """One untraced operation: (raw result, host wall seconds)."""
    gc.collect()
    start = time.perf_counter()
    raw = workload.run(inputs)
    return raw, time.perf_counter() - start


def _setup_seconds(name: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median host seconds from interpreter launch to the first request,
    as (scaled to the reference host, raw)."""
    import hostspeed

    scaled, raw = [], []
    for _ in range(repeats):
        reference = hostspeed.REFERENCE_S / hostspeed.measure()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), name,
                 str(seed)],
                stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.communicate(timeout=120)
            except BaseException:
                child.kill()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(
                f"setup probe for {name} failed (exit {child.returncode})")
        raw.append(elapsed)
        scaled.append(elapsed * reference)
    return statistics.median(scaled), statistics.median(raw)


def _metrics(values: dict, table: dict) -> dict:
    """``values`` as result metrics, with the units ``table`` declares."""
    if values.keys() != table.keys():
        raise AssertionError(
            f"metrics {sorted(values.keys() ^ table.keys())} are measured "
            f"or declared, not both")
    return {name: {"value": values[name], "unit": table[name][0]}
            for name in table}


def end_to_end(workload, seed: int, seconds: float, golden: dict,
               setup_repeats: int) -> dict:
    import hostspeed

    slot = workload.slot(seed)
    inputs = workload.prepare(seed)
    setup_s, setup_raw = _setup_seconds(workload.name, seed, setup_repeats)
    walls: list[float] = []
    raw_walls: list[float] = []
    rates: list[float] = []
    attempted = failed = 0
    summary: list[str] = []
    began = time.perf_counter()
    before = hostspeed.measure()
    while attempted == 0 or time.perf_counter() - began < seconds:
        attempted += 1
        try:
            raw, wall = _timed(workload, inputs)
        except Exception:  # an operation that raises is a failed one
            failed += 1
            print(f"operation {attempted} raised:", flush=True)
            traceback.print_exc(file=sys.stdout)
            continue
        outcome = workload.outcome(inputs, raw)
        problems = _problems(outcome, golden, slot)
        tokens, summary = outcome.sim_tokens, outcome.summary
        # the calibration pass must see none of the operation's objects,
        # so that only the host's speed moves it
        del raw, outcome
        after = hostspeed.measure()
        # host speed while this operation ran: the calibration passes
        # on either side of it
        scaled = wall * hostspeed.REFERENCE_S / ((before + after) / 2)
        before = after
        if problems:
            failed += 1
            print(f"operation {attempted} failed: {'; '.join(problems)}")
        raw_walls.append(wall)
        walls.append(scaled)
        rates.append(tokens / scaled)
    if not walls:
        sys.exit(f"perfbench: all {attempted} operations raised")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {workload.name}, seed {seed} (input slot {slot}): "
          f"{attempted} operations, {attempted - failed} matched the "
          f"recorded outputs, {failed} failed")
    for line in summary:
        print(f"  {line}")
    print(f"host wall per operation: median {statistics.median(walls):.4f} s "
          f"at reference host speed ({statistics.median(raw_walls):.4f} s "
          f"raw), max {max(raw_walls):.4f} s raw, over {len(walls)} "
          f"operations")
    print(f"host set-up: median {setup_s:.4f} s at reference host speed "
          f"({setup_raw:.4f} s raw) over {setup_repeats} fresh processes; "
          f"peak RSS {peak_rss_mb:.1f} MB")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics({
            "sim_tokens_per_wall_s": statistics.median(rates),
            "study_wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }, END_TO_END),
    }


def _layer_metrics(log, outcome, wall: float, untraced: float) -> dict:
    """The per-layer ledger of one traced operation."""
    calls, own = log.per_name()
    counts = log.counts

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def share(part, whole):
        return part / whole if whole else 0.0

    cluster = outcome.cluster
    merged = cluster.merged if cluster is not None else None
    decode_steps = merged.decode_steps if merged is not None \
        else counts["engine.decode_steps"]
    prefix = merged.prefix_cache if merged is not None else None
    autoscale = cluster.autoscale if cluster is not None else None
    faults = cluster.faults if cluster is not None else None
    hits = {key: sum(getattr(d.stats, key) for d in log.devices)
            for key in ("decode_hits", "decode_misses", "prefill_hits",
                        "prefill_misses")}
    probes = [p for r in outcome.capacity or () for p in r.probes]
    attributed = sum(own.values())
    return _metrics({
        "generator.requests": counts["generator.requests"],
        "generator.self_s": s("generator", "generator.template"),
        "router.calls": c("router"),
        "router.self_s": s("router"),
        "replica.advance_calls": c("replica.advance"),
        "replica.advance_self_s": s("replica.advance"),
        "replica.snapshot_calls": c("replica.snapshot"),
        "replica.snapshot_self_s": s("replica.snapshot"),
        "cluster.run_self_s": s("cluster.run"),
        "engine.run_self_s": s("engine.run"),
        "engine.decode_steps": decode_steps,
        "burst.calls": c("burst"),
        "burst.steps": counts["burst.steps"],
        "burst.steps_per_call": share(counts["burst.steps"], c("burst")),
        "burst.self_s": s("burst"),
        "burst.ff_share": share(counts["burst.steps"], decode_steps),
        "record_token.calls": c("record_token"),
        "record_token.self_s": s("record_token"),
        "scheduler.enqueue_calls": c("scheduler.enqueue"),
        "scheduler.enqueue_self_s": s("scheduler.enqueue"),
        "scheduler.plan_calls": c("scheduler.plan"),
        "scheduler.plan_self_s": s("scheduler.plan"),
        "scheduler.complete_calls": c("scheduler.complete"),
        "scheduler.complete_self_s": s("scheduler.complete"),
        "scheduler.mixed_plans": counts["scheduler.mixed_plans"],
        "scheduler.mean_decode_batch": share(
            counts["scheduler.decode_batch_sum"],
            counts["scheduler.decode_plans"]),
        "kv.extend_calls": c("kv.extend"),
        "kv.extend_self_s": s("kv.extend"),
        "kv.growth_blocks_calls": c("kv.growth_blocks"),
        "kv.growth_blocks_self_s": s("kv.growth_blocks"),
        "kv.block_changes": counts["kv.block_changes"],
        "kv.extend_useful_share": share(counts["kv.block_changes"],
                                        c("kv.extend")),
        "prefix.acquire_calls": c("prefix.acquire"),
        "prefix.self_s": s("prefix.acquire", "prefix"),
        "prefix.hit_rate": prefix.hit_rate if prefix else 0.0,
        "prefix.saved_prefill_tokens":
            prefix.saved_prefill_tokens if prefix else 0,
        "prefix.evictions": prefix.evictions if prefix else 0,
        "prefix.preemptions": prefix.preemptions if prefix else 0,
        "device.decode_hit_rate": share(
            hits["decode_hits"], hits["decode_hits"] + hits["decode_misses"]),
        "device.decode_misses": hits["decode_misses"],
        "device.prefill_hit_rate": share(
            hits["prefill_hits"],
            hits["prefill_hits"] + hits["prefill_misses"]),
        "device.prefill_misses": hits["prefill_misses"],
        "device.miss_self_s": s("device.miss"),
        "device.self_s": s("device"),
        "autoscaler.decisions": c("autoscaler"),
        "autoscaler.self_s": s("autoscaler"),
        "autoscaler.scale_ups": autoscale.scale_ups if autoscale else 0,
        "autoscaler.scale_downs": autoscale.scale_downs if autoscale else 0,
        "autoscaler.replica_seconds":
            autoscale.replica_seconds if autoscale else 0.0,
        "faults.self_s": s("faults"),
        "faults.crashes": faults.crashes if faults else 0,
        "faults.slowdowns": faults.slowdowns if faults else 0,
        "faults.retries": faults.retries if faults else 0,
        "faults.failed_requests": faults.failed_count if faults else 0,
        "capacity.probes": len(probes),
        "capacity.aborted_probes": sum(p.aborted for p in probes),
        "capacity.probe_self_s": s("capacity"),
        "capacity.sim_tokens": counts["capacity.sim_tokens"],
        "report.calls": c("report"),
        "report.self_s": s("report"),
        "api.self_s": s("api"),
        "trace.spans": len(log.name),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced,
        "trace.unattributed_s": wall - attributed,
    }, LEDGER)


def _bypass_report(name: str, runs) -> list[str]:
    """Confirm the layers ``workloads.json`` predicts this workload
    bypasses recorded zero calls on every traced seed."""
    import workloads

    lines = []
    for row in workloads.CONFIG["predictions"]:
        if name not in row["zero_on"]:
            continue
        for seed, calls in runs:
            total = sum(calls.get(span, 0) for span in row["spans"])
            verdict = "held" if total == 0 else "DID NOT HOLD"
            lines.append(f"bypass {row['layer']} on {name}, seed {seed}: "
                         f"{total} calls, prediction {verdict}")
    return lines


def traced(workload, seed: int, second_seed: int, golden: dict) -> dict:
    import spans

    attempted = failed = 0

    def checked(label, s, outcome):
        nonlocal failed
        problems = _problems(outcome, golden, workload.slot(s))
        if problems:
            failed += 1
            print(f"{label} failed: {'; '.join(problems)}")

    inputs = workload.prepare(seed)
    _timed(workload, inputs)  # warm-up: lazy imports, allocator pools
    raw, untraced_wall = _timed(workload, inputs)
    base = workload.outcome(inputs, raw)
    attempted += 2
    checked("untraced operation", seed, base)
    with spans.traced_layers() as log:
        raw, wall = _timed(workload, inputs)
    attempted += 1
    outcome = workload.outcome(inputs, raw)
    checked("traced operation", seed, outcome)
    if outcome.fingerprint != base.fingerprint:
        failed += 1
        print("traced operation changed the simulated output")
    metrics = _layer_metrics(log, outcome, wall, untraced_wall)
    OUT.mkdir(exist_ok=True)
    log.write(OUT / f"spans-{workload.name}.npz")
    runs = [(seed, log.per_name()[0])]
    del log

    second_inputs = workload.prepare(second_seed)
    with spans.traced_layers() as second:
        raw = workload.run(second_inputs)
    attempted += 1
    checked("second-seed traced operation", second_seed,
            workload.outcome(second_inputs, raw))
    runs.append((second_seed, second.per_name()[0]))
    bypass = _bypass_report(workload.name, runs)

    print(f"workload {workload.name}, traced on seeds {seed} and "
          f"{second_seed}: {attempted} operations, {failed} failed")
    for line in outcome.summary:
        print(f"  {line}")
    print(f"host wall: untraced {untraced_wall:.4f} s, traced {wall:.4f} s "
          f"({len(metrics)} per-layer metrics, "
          f"{metrics['trace.spans']['value']} spans)")
    self_total = sum(m["value"] for n, m in metrics.items()
                     if n.endswith("_s") and not n.startswith("trace."))
    print(f"layer self times {self_total:.4f} s + unattributed "
          f"{metrics['trace.unattributed_s']['value']:.4f} s = traced wall "
          f"{self_total + metrics['trace.unattributed_s']['value']:.4f} s")
    for line in bypass:
        print(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the end-to-end run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", type=int, default=None,
                        help="seed of the second traced pass "
                             "(default: --seed + 1)")
    args = parser.parse_args(argv)
    _bootstrap()
    import workloads

    workload = workloads.get(args.workload)
    golden = workloads.load_golden().get(workload.name, {})
    if args.trace:
        second = args.second_seed if args.second_seed is not None \
            else args.seed + 1
        result = traced(workload, args.seed, second, golden)
    else:
        result = end_to_end(workload, args.seed, args.seconds, golden,
                            workloads.CONFIG["setup_repeats"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
