"""Command-line interface: ``python -m repro`` or ``repro-ador``.

Seven subcommands cover the library's main entry points:

* ``models``   — list the model zoo with key architecture facts;
* ``evaluate`` — prefill/decode latency of a model on a chip preset;
* ``search``   — run the ADOR architecture search (Fig. 9);
* ``serve``    — simulate a serving endpoint and report QoS (Fig. 14b);
* ``capacity`` — search the max sustainable rate under an SLO (Fig. 16);
* ``run``      — execute a declarative ``experiment.json`` end-to-end;
* ``lint``     — run the AST-based determinism & contract checker.

Chips resolve by name through :mod:`repro.hardware.registry`, so presets
registered by third-party code are addressable here without changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings

from repro.analysis.tables import format_table
from repro.api import (
    AutoscaleSpec,
    CapacitySpec,
    DeploymentSpec,
    EndpointOverloaded,
    FaultSpec,
    FleetSpec,
    PrefixCacheSpec,
    ReplicaGroupSpec,
    WorkloadSpec,
    find_capacity,
    load_experiment,
    run_experiment,
    simulate,
)
from repro.cluster.autoscaler import list_autoscalers
from repro.cluster.router import list_routers
from repro.serving.prefix_cache import list_eviction_policies
from repro.core.requirements import (
    SearchRequest,
    ServiceLevelObjectives,
    VendorConstraints,
)
from repro.core.scheduling import device_model_for
from repro.core.search import AdorSearch
from repro.hardware.area import AreaModel
from repro.hardware.power import PowerModel
from repro.hardware.registry import CHIP_REGISTRY, get_chip, list_chips
from repro.models.zoo import get_model, list_models
from repro.quality.lint import (
    exit_code,
    format_json,
    format_text,
    lint_paths,
)
from repro.quality.rules import all_rules, rule_tokens
from repro.serving.capacity import EndpointUnservable


def __getattr__(name: str):
    # Deprecation shim: the old hard-coded preset table is now the chip
    # registry; keep ``from repro.cli import CHIP_PRESETS`` importable.
    if name == "CHIP_PRESETS":
        warnings.warn(
            "repro.cli.CHIP_PRESETS is deprecated; use "
            "repro.hardware.registry.get_chip/list_chips instead",
            DeprecationWarning, stacklevel=2)
        return {chip: CHIP_REGISTRY.get(chip) for chip in list_chips()}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = []
    for name in list_models():
        model = get_model(name)
        rows.append([
            name,
            f"{model.num_parameters / 1e9:.2f}B",
            model.num_layers,
            model.hidden_size,
            f"{model.num_heads}/{model.num_kv_heads}",
            model.attention_kind.value,
        ])
    print(format_table(
        ["model", "params", "layers", "hidden", "q/kv heads", "attention"],
        rows, title="Model zoo"))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    chip = get_chip(args.chip)
    device = device_model_for(chip)
    area = AreaModel().die_area_mm2(chip)
    power = PowerModel().tdp_w(chip)
    print(f"{chip}")
    print(f"die area {area:.0f} mm^2, TDP estimate {power:.0f} W\n")
    rows = []
    for batch in args.batches:
        prefill = device.prefill_time(model, 1, args.seq_len, args.devices)
        decode = device.decode_step_time(model, batch, args.seq_len,
                                         args.devices)
        rows.append([batch, prefill.seconds * 1e3, decode.seconds * 1e3,
                     1.0 / decode.seconds])
    print(format_table(
        ["batch", "TTFT (ms)", "decode step (ms)", "TBT (tok/s)"],
        rows, title=f"{model.name} on {chip.name}, seq {args.seq_len}, "
                    f"{args.devices} device(s)"))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    request = SearchRequest(
        model_names=tuple(args.models),
        slos=ServiceLevelObjectives(
            ttft_slo_s=args.ttft_ms / 1e3,
            tbt_slo_s=args.tbt_ms / 1e3,
            batch_size=args.batch,
            seq_len=args.seq_len,
        ),
        vendor=VendorConstraints(
            area_budget_mm2=args.area_budget,
            power_budget_w=args.power_budget,
        ),
        num_devices=args.devices,
    )
    result = AdorSearch(request).run()
    for line in result.log:
        print(line)
    chip = result.best.chip
    print(f"\nproposed: {chip}")
    print(f"  area {result.best.area_mm2:.0f} mm^2, "
          f"TDP {PowerModel().tdp_w(chip):.0f} W, "
          f"requirements {'met' if result.requirements_met else 'NOT met'}")
    if result.notes:
        print(f"  {result.notes}")
    return 0 if result.requirements_met else 1


_AUTOSCALE_KNOBS = (
    ("autoscale_min", "min_replicas"),
    ("autoscale_max", "max_replicas"),
    ("autoscale_interval", "decision_interval_s"),
    ("autoscale_provision_s", "provision_latency_s"),
    ("autoscale_warm_pool", "warm_pool_size"),
    ("autoscale_warm_provision_s", "warm_provision_s"),
)


_PREFIX_CACHE_KNOBS = (
    ("prefix_cache_fraction", "reclaimable_fraction"),
    ("prefix_cache_eviction", "eviction"),
    ("prefix_cache_block_tokens", "block_tokens"),
)


_FAULT_KNOBS = (
    ("fault_seed", "seed"),
    ("fault_crash_mtbf_s", "crash_mtbf_s"),
    ("fault_restart_delay_s", "restart_delay_s"),
    ("fault_slowdown_mtbf_s", "slowdown_mtbf_s"),
    ("fault_slowdown_factor", "slowdown_factor"),
    ("fault_stall_mtbf_s", "stall_mtbf_s"),
    ("fault_max_retries", "max_retries"),
    ("fault_timeout_s", "request_timeout_s"),
)


#: ``serve``'s feature sections: the switch flag's attribute (also the
#: DeploymentSpec field it fills), how an error names the switch, the
#: spec it builds, and the section's knob table
_FLAG_SECTIONS = (
    ("autoscale", "--autoscale <policy>", AutoscaleSpec, _AUTOSCALE_KNOBS),
    ("prefix_cache", "--prefix-cache", PrefixCacheSpec,
     _PREFIX_CACHE_KNOBS),
    ("faults", "--faults", FaultSpec, _FAULT_KNOBS),
)


def _section_specs(args: argparse.Namespace) -> dict[str, object]:
    """Build each feature section's spec from its flags (``None`` when
    its switch is off).

    The autoscale switch carries the policy name, the others are plain
    on/off flags.  A knob without its switch is a config mistake, not a
    default to silently ignore — fail loudly, same contract as the JSON
    specs.
    """
    specs: dict[str, object] = {}
    for switch, needs, spec, knobs in _FLAG_SECTIONS:
        given = [(arg, field) for arg, field in knobs
                 if getattr(args, arg) is not None]
        overrides = {field: getattr(args, arg) for arg, field in given}
        value = getattr(args, switch)
        if not value:
            if given:
                flags = ", ".join("--" + arg.replace("_", "-")
                                  for arg, _ in given)
                raise ValueError(f"{flags} require(s) {needs}")
            specs[switch] = None
        elif isinstance(value, str):
            specs[switch] = spec(policy=value, **overrides)
        else:
            specs[switch] = spec(**overrides)
    return specs


def _fleet_spec(args: argparse.Namespace) -> FleetSpec | None:
    """Build a FleetSpec from repeatable ``--group CHIP:COUNT`` flags.

    ``--group`` makes the fleet explicit, so the flags that size or
    type a homogeneous fleet (``--replicas``, ``--chip``) become
    competing instructions — fail loudly, same contract as the JSON
    specs.
    """
    if not args.group:
        return None
    if args.replicas != 1:
        raise ValueError(
            "--group and --replicas are two competing ways to size "
            "the fleet; size each group via its COUNT and drop "
            "--replicas")
    if args.chip is not None:
        raise ValueError(
            "--group names each group's chip; drop --chip (it only "
            "types the homogeneous single-chip fleet)")
    groups = []
    for value in args.group:
        chip, sep, raw = value.partition(":")
        if not sep or not chip:
            raise ValueError(
                f"--group {value!r}: expected CHIP:COUNT "
                f"(e.g. --group ador:2 --group a100:1)")
        if chip not in list_chips():
            raise ValueError(
                f"--group {value!r}: unknown chip {chip!r} "
                f"(choices: {', '.join(list_chips())})")
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(
                f"--group {value!r}: COUNT must be an integer, "
                f"got {raw!r}") from None
        groups.append(ReplicaGroupSpec(
            chip=chip,
            model=args.model,
            count=count,
            num_devices=args.devices,
            max_batch=args.max_batch,
            kv_budget_bytes=float("inf") if args.kv_budget_gb is None
            else args.kv_budget_gb * float(1 << 30),
        ))
    return FleetSpec(groups=tuple(groups))


def _router_name(args: argparse.Namespace) -> str:
    """The router name, with ``--slo-short-tokens`` folded in.

    The threshold routers take the short/long prompt boundary through
    the parametric ``"name:N"`` form (see
    :func:`repro.cluster.router.make_router`), so the flag rewrites
    the name instead of adding a parallel config channel.  On any
    other router the flag would silently do nothing — fail loudly.
    """
    if args.slo_short_tokens is None:
        return args.router
    if args.router not in ("slo-aware", "hetero-aware"):
        raise ValueError(
            "--slo-short-tokens tunes the threshold routers; pair it "
            "with --router slo-aware or --router hetero-aware")
    return f"{args.router}:{args.slo_short_tokens}"


def _progress_reporter(args: argparse.Namespace, label: str):
    """The ``--progress`` heartbeat, or ``None`` when the flag is off.

    Lives behind a lazy import: the reporter owns the CLI's only
    wall-clock read outside benchmarking, and constructing it only on
    demand keeps plain runs byte-identical in behavior and output.
    """
    if args.progress is None:
        return None
    from repro.perf.scale import ProgressReporter

    return ProgressReporter(interval_s=args.progress, label=label)


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        deployment = DeploymentSpec(
            chip=args.chip if args.chip is not None else "ador",
            model=args.model,
            num_devices=args.devices,
            max_batch=args.max_batch,
            batching=args.policy,
            replicas=args.replicas,
            router=_router_name(args),
            fleet=_fleet_spec(args),
            kv_budget_bytes=float("inf") if args.kv_budget_gb is None
            else args.kv_budget_gb * float(1 << 30),
            **_section_specs(args),
        )
    except ValueError as exc:
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    workload = WorkloadSpec(
        trace=args.trace,
        rate_per_s=args.rate,
        num_requests=args.requests,
        seed=args.seed,
        arrival=args.arrival,
    )
    try:
        report = simulate(deployment, workload,
                          sim_cache=not args.no_sim_cache,
                          context_bucket=args.context_bucket,
                          shards=args.shards,
                          progress=_progress_reporter(args, "serve"))
    except EndpointOverloaded as exc:
        print(f"no requests finished — {exc}")
        return 1
    except MemoryError as exc:
        # an undersized --kv-budget-gb pool that cannot hold even one
        # request's context — an actionable config error, not a crash
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    try:
        deployment = DeploymentSpec(
            chip=args.chip,
            model=args.model,
            num_devices=args.devices,
        )
        workload = WorkloadSpec(
            trace=args.trace,
            num_requests=args.requests,
            seed=args.seed,
        )
        capacity = CapacitySpec(
            slo_tbt_s=args.slo_tbt_ms / 1e3,
            slo_ttft_s=None if args.slo_ttft_ms is None
            else args.slo_ttft_ms / 1e3,
            percentile=args.percentile,
            rate_low=args.rate_low,
            rate_high=args.rate_high,
            iterations=args.iterations,
            early_abort=not args.no_early_abort,
        )
        report = find_capacity(deployment, workload, capacity,
                               sim_cache=not args.no_sim_cache)
    except EndpointUnservable as exc:
        print(f"no capacity found — {_exc_message(exc)}")
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = load_experiment(args.experiment)
        overrides = {}
        # command-line overrides for quick cluster what-ifs without
        # editing the experiment file
        if args.replicas is not None:
            overrides["replicas"] = args.replicas
        if args.router is not None:
            overrides["router"] = args.router
        if args.no_autoscale and args.autoscale is not None:
            # same loud-conflict contract as the serve-side knobs: a
            # silently ignored policy would fake a fixed-fleet result
            # as an autoscaled one (or vice versa)
            raise ValueError(
                "--autoscale and --no-autoscale are mutually exclusive")
        if args.no_autoscale:
            overrides["autoscale"] = None
        elif args.autoscale is not None:
            # switch (or turn on) the policy, keeping the experiment's
            # other scaling knobs when it already autoscales
            base = experiment.deployment.autoscale
            overrides["autoscale"] = AutoscaleSpec(policy=args.autoscale) \
                if base is None \
                else dataclasses.replace(base, policy=args.autoscale)
        for section, spec in (("prefix_cache", PrefixCacheSpec),
                              ("faults", FaultSpec)):
            enable = getattr(args, section)
            strip = getattr(args, "no_" + section)
            if enable and strip:
                flag = section.replace("_", "-")
                raise ValueError(f"--{flag} and --no-{flag} are mutually "
                                 f"exclusive")
            if strip:
                overrides[section] = None
            elif enable:
                # turn the feature on, keeping the experiment's knobs
                # when it already carries a (possibly disabled) spec
                base = getattr(experiment.deployment, section)
                overrides[section] = spec() if base is None \
                    else dataclasses.replace(base, enabled=True)
        if overrides:
            experiment = dataclasses.replace(
                experiment,
                deployment=dataclasses.replace(experiment.deployment,
                                               **overrides))
        report = run_experiment(experiment,
                                sim_cache=not args.no_sim_cache,
                                context_bucket=args.context_bucket,
                                shards=args.shards,
                                progress=_progress_reporter(args, "run"))
    except EndpointOverloaded as exc:
        print(f"no requests finished — {exc}")
        return 1
    except EndpointUnservable as exc:
        # a capacity experiment whose endpoint cannot serve even the
        # minimum probed rate — same one-liner the capacity command
        # prints, not a traceback (other RuntimeErrors, e.g. a broken
        # worker pool, must still surface loudly)
        print(f"no capacity found — {_exc_message(exc)}")
        return 1
    except MemoryError as exc:
        # kv_budget_bytes too small for a single request's context —
        # same one-line treatment as serve, not a traceback
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError, TypeError) as exc:
        # bad chip/trace/policy name, malformed spec, unreadable file —
        # a one-line CLI error, not a traceback
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        violations = lint_paths(args.paths, rules=args.rule or None)
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2
    print(format_json(violations) if args.format == "json"
          else format_text(violations))
    return exit_code(violations)


def _lint_epilog() -> str:
    """The rule catalog, generated from the live rule registry so the
    help text can't drift from what actually runs."""
    lines = ["rules:"]
    for cls in all_rules():
        lines.append(f"  {cls.id}  {cls.name}")
        lines.append(f"      {cls.rationale}")
        if cls.include:
            lines.append(f"      scope: paths matching "
                         f"{', '.join(cls.include)}")
        if cls.exclude:
            lines.append(f"      exempt paths: {', '.join(cls.exclude)}")
    lines += [
        "",
        "suppression:",
        "  # repro: allow[<rule>] <one-line justification>",
        "      drops that rule's violation on the same line; the",
        "      justification is mandatory and an unknown rule id is",
        "      itself a violation (R0).",
        "",
        "exit status is the violation count (capped at 100).",
    ]
    return "\n".join(lines)


def _exc_message(exc: BaseException) -> str:
    # str(KeyError) wraps the message in quotes; unwrap for clean output
    return exc.args[0] if exc.args and isinstance(exc.args[0], str) \
        else str(exc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ador",
        description="ADOR design-exploration framework (ISPASS 2025 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the model zoo")

    evaluate = sub.add_parser("evaluate", help="stage latencies on a chip")
    evaluate.add_argument("--model", default="llama3-8b")
    evaluate.add_argument("--chip", choices=list_chips(), default="ador")
    evaluate.add_argument("--seq-len", type=int, default=1024)
    evaluate.add_argument("--devices", type=int, default=1)
    evaluate.add_argument("--batches", type=int, nargs="+",
                          default=[1, 16, 64, 128])

    search = sub.add_parser("search", help="run the architecture search")
    search.add_argument("--models", nargs="+", default=["llama3-8b"])
    search.add_argument("--ttft-ms", type=float, default=50.0)
    search.add_argument("--tbt-ms", type=float, default=30.0)
    search.add_argument("--batch", type=int, default=128)
    search.add_argument("--seq-len", type=int, default=1024)
    search.add_argument("--area-budget", type=float, default=550.0)
    search.add_argument("--power-budget", type=float, default=500.0)
    search.add_argument("--devices", type=int, default=1)

    serve = sub.add_parser("serve", help="simulate a serving endpoint")
    serve.add_argument("--model", default="llama3-8b")
    serve.add_argument("--chip", choices=list_chips(), default=None,
                       help="chip preset of a homogeneous fleet "
                            "(default ador; mutually exclusive with "
                            "--group)")
    serve.add_argument("--trace", default="ultrachat",
                       help="workload trace name (e.g. ultrachat, "
                            "fixed-512x128)")
    serve.add_argument("--policy", default="continuous",
                       help="batching policy name")
    serve.add_argument("--rate", type=float, default=15.0)
    serve.add_argument("--requests", type=int, default=200)
    serve.add_argument("--max-batch", type=int, default=256)
    serve.add_argument("--devices", type=int, default=1)
    serve.add_argument("--seed", type=int, default=7,
                       help="RNG seed for arrivals and token lengths "
                            "(reruns with the same seed are bit-identical)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="number of replica endpoints behind the "
                            "router (>1 simulates a cluster)")
    serve.add_argument("--router", default="round-robin",
                       choices=list_routers(),
                       help="router policy for multi-replica serving")
    serve.add_argument("--group", action="append", default=None,
                       metavar="CHIP:COUNT",
                       help="replica group CHIP:COUNT (repeatable); "
                            "builds an explicit, possibly "
                            "heterogeneous fleet — mutually exclusive "
                            "with --replicas and --chip (pair with "
                            "--router hetero-aware to route by "
                            "capability)")
    serve.add_argument("--slo-short-tokens", type=int, default=None,
                       help="short/long prompt boundary in input "
                            "tokens for the slo-aware / hetero-aware "
                            "routers (default 256); rewrites the "
                            "router name to its parametric "
                            "'name:N' form")
    serve.add_argument("--autoscale", default=None,
                       choices=list_autoscalers(),
                       help="autoscaler policy; --replicas becomes the "
                            "initial fleet size and the fleet resizes "
                            "within [--autoscale-min, --autoscale-max]")
    serve.add_argument("--autoscale-min", type=int, default=None,
                       help="smallest fleet the autoscaler may shrink to "
                            "(default 1)")
    serve.add_argument("--autoscale-max", type=int, default=None,
                       help="largest fleet the autoscaler may grow to "
                            "(default 8)")
    serve.add_argument("--autoscale-interval", type=float, default=None,
                       help="seconds of simulated time between scaling "
                            "decisions (default 2)")
    serve.add_argument("--autoscale-provision-s", type=float, default=None,
                       help="cold provision latency a scale-up pays "
                            "before the replica takes traffic "
                            "(default 10)")
    serve.add_argument("--autoscale-warm-pool", type=int, default=None,
                       help="warm-pool slots; each cuts one launch to "
                            "the warm latency, retirements refill the "
                            "pool (default 0)")
    serve.add_argument("--autoscale-warm-provision-s", type=float,
                       default=None,
                       help="provision latency of a warm-pool launch "
                            "(default 1)")
    serve.add_argument("--arrival", default="poisson",
                       choices=["poisson", "sessions"],
                       help="arrival process: independent Poisson "
                            "requests, or multi-turn chat sessions "
                            "whose turns share a growing prefix")
    serve.add_argument("--kv-budget-gb", type=float, default=None,
                       help="KV-cache memory budget in GiB (default: "
                            "unbounded)")
    serve.add_argument("--prefix-cache", action="store_true",
                       help="keep finished session turns' KV blocks "
                            "resident so the next turn re-prefills only "
                            "its fresh question (pairs with "
                            "--arrival sessions)")
    serve.add_argument("--prefix-cache-fraction", type=float, default=None,
                       help="fraction of the block pool cached prefixes "
                            "may occupy (default 0.5)")
    serve.add_argument("--prefix-cache-eviction", default=None,
                       choices=list_eviction_policies(),
                       help="eviction policy over cached sessions "
                            "(default lru)")
    serve.add_argument("--prefix-cache-block-tokens", type=int,
                       default=None,
                       help="tokens per KV block; hits are block-"
                            "aligned (default 16)")
    serve.add_argument("--faults", action="store_true",
                       help="inject deterministic seeded faults (replica "
                            "crashes, slowdowns, stalls) and report "
                            "goodput next to raw throughput")
    serve.add_argument("--fault-seed", type=int, default=None,
                       help="fault-schedule RNG seed, independent of the "
                            "workload seed (default 0)")
    serve.add_argument("--fault-crash-mtbf-s", type=float, default=None,
                       help="mean seconds between crashes per replica "
                            "(exponential; default: no crashes)")
    serve.add_argument("--fault-restart-delay-s", type=float, default=None,
                       help="seconds a crashed fixed-fleet replica stays "
                            "down before restarting (default 10)")
    serve.add_argument("--fault-slowdown-mtbf-s", type=float, default=None,
                       help="mean seconds between slowdown windows per "
                            "replica (default: none)")
    serve.add_argument("--fault-slowdown-factor", type=float, default=None,
                       help="device-step multiplier inside a slowdown "
                            "window (default 2)")
    serve.add_argument("--fault-stall-mtbf-s", type=float, default=None,
                       help="mean seconds between transient stalls per "
                            "replica (default: none)")
    serve.add_argument("--fault-max-retries", type=int, default=None,
                       help="crash requeues per request before it is "
                            "recorded failed (default 2)")
    serve.add_argument("--fault-timeout-s", type=float, default=None,
                       help="per-request deadline from arrival; a retry "
                            "past it fails the request (default: none)")
    serve.add_argument("--no-sim-cache", action="store_true",
                       help="disable the simulator fast path (device-"
                            "model memoization + decode fast-forward); "
                            "results are bit-identical either way, the "
                            "reference loop is just slower")
    serve.add_argument("--context-bucket", type=int, default=1,
                       help="decode-context quantization bucket for the "
                            "sim cache; 1 (default) is exact, larger "
                            "buckets trade a small latency error for "
                            "faster sweeps")
    serve.add_argument("--shards", type=int, default=1,
                       help="partition a fixed multi-replica fleet over "
                            "N worker processes (modeled per-shard "
                            "routing; 1 = the exact engine, default)")
    serve.add_argument("--progress", nargs="?", const=5.0, type=float,
                       default=None, metavar="SECS",
                       help="stderr heartbeat (simulated time + "
                            "requests done) every SECS wall-clock "
                            "seconds (default 5 when given bare)")

    capacity = sub.add_parser(
        "capacity",
        help="search the max sustainable request rate under an SLO")
    capacity.add_argument("--model", default="llama3-8b")
    capacity.add_argument("--chip", choices=list_chips(), default="ador")
    capacity.add_argument("--devices", type=int, default=1)
    capacity.add_argument("--trace", default="ultrachat",
                          help="workload trace name (e.g. ultrachat, "
                               "fixed-512x128)")
    capacity.add_argument("--requests", type=int, default=200,
                          help="requests simulated per probed rate")
    capacity.add_argument("--seed", type=int, default=7)
    capacity.add_argument("--slo-tbt-ms", type=float, default=50.0,
                          help="TBT SLO in milliseconds")
    capacity.add_argument("--slo-ttft-ms", type=float, default=None,
                          help="optional TTFT SLO in milliseconds")
    capacity.add_argument("--percentile", default="p95",
                          choices=["mean", "p50", "p95", "p99"],
                          help="QoS percentile the SLO applies to")
    capacity.add_argument("--rate-low", type=float, default=0.25)
    capacity.add_argument("--rate-high", type=float, default=256.0)
    capacity.add_argument("--iterations", type=int, default=9,
                          help="bisection steps (rate resolution)")
    capacity.add_argument("--no-early-abort", action="store_true",
                          help="always simulate saturated probes to the "
                               "full horizon (identical found rate, "
                               "slower)")
    capacity.add_argument("--no-sim-cache", action="store_true",
                          help="disable device-model memoization "
                               "(bit-identical results, reference speed)")

    run = sub.add_parser(
        "run", help="execute a declarative experiment.json file")
    run.add_argument("experiment", help="path to an experiment JSON file")
    run.add_argument("--replicas", type=int, default=None,
                     help="override the experiment's replica count")
    run.add_argument("--router", default=None, choices=list_routers(),
                     help="override the experiment's router policy")
    run.add_argument("--autoscale", default=None,
                     choices=list_autoscalers(),
                     help="override (or enable) the experiment's "
                          "autoscaler policy, keeping its other scaling "
                          "knobs")
    run.add_argument("--no-autoscale", action="store_true",
                     help="strip the experiment's autoscale section and "
                          "run the fixed fleet")
    run.add_argument("--prefix-cache", action="store_true",
                     help="enable prefix/KV reuse, keeping the "
                          "experiment's cache knobs when it carries a "
                          "(possibly disabled) prefix_cache section")
    run.add_argument("--no-prefix-cache", action="store_true",
                     help="strip the experiment's prefix_cache section "
                          "and run the cold path")
    run.add_argument("--faults", action="store_true",
                     help="enable fault injection, keeping the "
                          "experiment's fault knobs when it carries a "
                          "(possibly disabled) faults section")
    run.add_argument("--no-faults", action="store_true",
                     help="strip the experiment's faults section and "
                          "run the fault-free engine")
    run.add_argument("--no-sim-cache", action="store_true",
                     help="disable the simulator fast path (bit-identical "
                          "results, reference speed)")
    run.add_argument("--context-bucket", type=int, default=1,
                     help="decode-context quantization bucket for the sim "
                          "cache; 1 (default) is exact")
    run.add_argument("--shards", type=int, default=1,
                     help="partition a fixed multi-replica fleet over N "
                          "worker processes (modeled per-shard routing; "
                          "1 = the exact engine, default)")
    run.add_argument("--progress", nargs="?", const=5.0, type=float,
                     default=None, metavar="SECS",
                     help="stderr heartbeat (simulated time + requests "
                          "done) every SECS wall-clock seconds "
                          "(default 5 when given bare)")

    lint = sub.add_parser(
        "lint",
        help="run the AST-based determinism & contract checker",
        description="Statically check the reproducibility contracts the "
                    "repo's headline claims rest on: no wall-clock or "
                    "unseeded randomness in the simulator core, frozen "
                    "round-trippable specs, no mutable defaults, no "
                    "float ==, position-not-id routing.",
        epilog=_lint_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directory trees to lint "
                           "(default: src/repro)")
    lint.add_argument("--rule", action="append", default=None,
                      choices=rule_tokens(), metavar="RULE",
                      help="check only this rule (repeatable; short id "
                           "like R1 or name like determinism)")
    lint.add_argument("--format", choices=["text", "json"],
                      default="text",
                      help="report format; json is the CI artifact "
                           "shape")
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": _cmd_models,
        "evaluate": _cmd_evaluate,
        "search": _cmd_search,
        "serve": _cmd_serve,
        "capacity": _cmd_capacity,
        "run": _cmd_run,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
