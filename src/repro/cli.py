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
import typing
from typing import NamedTuple

from repro.analysis.tables import format_table
from repro.api import (
    BATCHING_POLICIES,
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
from repro.hardware.registry import get_chip, list_chips
from repro.models.zoo import get_model, list_models
from repro.quality.lint import (
    exit_code,
    format_json,
    format_text,
    lint_paths,
)
from repro.quality.rules import all_rules, rule_tokens
from repro.serving.capacity import EndpointUnservable


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


class _Section(NamedTuple):
    """One optional deployment feature and every flag that drives it.

    ``switch`` turns the feature on and is also the
    :class:`DeploymentSpec` field it fills; ``field`` is the spec field
    the switch sets to a registry name (``"policy"``), or ``None`` for a
    plain on/off flag.  The three help texts are ``serve``'s
    switch, ``run``'s switch and ``run``'s ``--no-`` twin.  Each knob is
    ``(flag, spec field, help)``; its argparse type and the default its
    help names are read from the spec field, so neither can drift from
    the spec.
    """

    switch: str
    spec: type
    field: str | None
    serve_help: str
    run_help: str
    strip_help: str
    knobs: tuple[tuple[str, str, str], ...]

    @property
    def flag(self) -> str:
        return "--" + self.switch.replace("_", "-")

    @property
    def strip_flag(self) -> str:
        return "--no-" + self.flag[2:]


_SECTIONS = (
    _Section(
        "autoscale", AutoscaleSpec, "policy",
        "autoscaler policy; --replicas becomes the initial fleet size "
        "and the fleet resizes within [--autoscale-min, --autoscale-max]",
        "override (or enable) the experiment's autoscaler policy, "
        "keeping its other scaling knobs",
        "strip the experiment's autoscale section and run the fixed "
        "fleet",
        (("--autoscale-min", "min_replicas",
          "smallest fleet the autoscaler may shrink to"),
         ("--autoscale-max", "max_replicas",
          "largest fleet the autoscaler may grow to"),
         ("--autoscale-interval", "decision_interval_s",
          "seconds of simulated time between scaling decisions"),
         ("--autoscale-provision-s", "provision_latency_s",
          "cold provision latency a scale-up pays before the replica "
          "takes traffic"),
         ("--autoscale-warm-pool", "warm_pool_size",
          "warm-pool slots; each cuts one launch to the warm latency, "
          "retirements refill the pool"),
         ("--autoscale-warm-provision-s", "warm_provision_s",
          "provision latency of a warm-pool launch"))),
    _Section(
        "prefix_cache", PrefixCacheSpec, None,
        "keep finished session turns' KV blocks resident so the next "
        "turn re-prefills only its fresh question (pairs with "
        "--arrival sessions)",
        "enable prefix/KV reuse, keeping the experiment's cache knobs "
        "when it carries a prefix_cache section",
        "strip the experiment's prefix_cache section and run the cold "
        "path",
        (("--prefix-cache-fraction", "reclaimable_fraction",
          "fraction of the block pool cached prefixes may occupy"),
         ("--prefix-cache-eviction", "eviction",
          "eviction policy over cached sessions"),
         ("--prefix-cache-block-tokens", "block_tokens",
          "tokens per KV block; hits are block-aligned"))),
    _Section(
        "faults", FaultSpec, None,
        "inject deterministic seeded faults (replica crashes, slowdowns, "
        "stalls) and report goodput next to raw throughput",
        "enable fault injection, keeping the experiment's fault knobs "
        "when it carries a faults section",
        "strip the experiment's faults section and run the fault-free "
        "engine",
        (("--fault-seed", "seed",
          "fault-schedule RNG seed, independent of the workload seed"),
         ("--fault-crash-mtbf-s", "crash_mtbf_s",
          "mean seconds between crashes per replica (exponential)"),
         ("--fault-restart-delay-s", "restart_delay_s",
          "seconds a crashed fixed-fleet replica stays down before "
          "restarting"),
         ("--fault-slowdown-mtbf-s", "slowdown_mtbf_s",
          "mean seconds between slowdown windows per replica"),
         ("--fault-slowdown-factor", "slowdown_factor",
          "device-step multiplier inside a slowdown window"),
         ("--fault-stall-mtbf-s", "stall_mtbf_s",
          "mean seconds between transient stalls per replica"),
         ("--fault-max-retries", "max_retries",
          "crash requeues per request before it is recorded failed"),
         ("--fault-timeout-s", "request_timeout_s",
          "per-request deadline from arrival; a retry past it fails the "
          "request"))),
)


#: the section fields that hold a registry name, and the registry's
#: listing (the flag's choices)
_REGISTRY_NAMES = {
    (AutoscaleSpec, "policy"): list_autoscalers,
    (PrefixCacheSpec, "eviction"): list_eviction_policies,
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _section_specs(args: argparse.Namespace) -> dict[str, object]:
    """Build each feature section's spec from its flags (``None`` when
    its switch is off).

    A knob without its switch is a config mistake, not a default to
    silently ignore — fail loudly, same contract as the JSON specs.
    """
    specs: dict[str, object] = {}
    for section in _SECTIONS:
        given = {flag: name for flag, name, _ in section.knobs
                 if getattr(args, _dest(flag)) is not None}
        switch = getattr(args, section.switch)
        if not switch:
            if given:
                needs = section.flag if section.field is None \
                    else f"{section.flag} <{section.field}>"
                raise ValueError(
                    f"{', '.join(given)} require(s) {needs}")
            specs[section.switch] = None
        else:
            setting = {} if section.field is None \
                else {section.field: switch}
            specs[section.switch] = section.spec(
                **setting,
                **{name: getattr(args, _dest(flag))
                   for flag, name in given.items()})
    return specs


def _kv_budget_bytes(args: argparse.Namespace) -> float:
    return float("inf") if args.kv_budget_gb is None \
        else args.kv_budget_gb * float(1 << 30)


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
            kv_budget_bytes=_kv_budget_bytes(args),
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
    fleet = _fleet_spec(args)
    # with --group, each group carries the endpoint knobs instead
    endpoint = {} if fleet is not None else dict(
        chip=args.chip if args.chip is not None else "ador",
        model=args.model,
        num_devices=args.devices,
        max_batch=args.max_batch,
        kv_budget_bytes=_kv_budget_bytes(args),
    )
    deployment = DeploymentSpec(
        batching=args.policy,
        replicas=args.replicas,
        router=_router_name(args),
        fleet=fleet,
        **endpoint,
        **_section_specs(args),
    )
    workload = WorkloadSpec(
        trace=args.trace,
        rate_per_s=args.rate,
        num_requests=args.requests,
        seed=args.seed,
        arrival=args.arrival,
    )
    report = simulate(deployment, workload,
                      sim_cache=not args.no_sim_cache,
                      context_bucket=args.context_bucket,
                      shards=args.shards,
                      progress=_progress_reporter(args, "serve"))
    print(report.summary())
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
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
    print(report.summary())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    experiment = load_experiment(args.experiment)
    overrides: dict[str, object] = {}
    # command-line overrides for quick cluster what-ifs without editing
    # the experiment file
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.router is not None:
        overrides["router"] = args.router
    for section in _SECTIONS:
        switch = getattr(args, section.switch)
        strip = getattr(args, _dest(section.strip_flag))
        if switch and strip:
            # a silently ignored flag would fake one run as the other
            raise ValueError(f"{section.flag} and {section.strip_flag} "
                             f"are mutually exclusive")
        if strip:
            overrides[section.switch] = None
        elif switch:
            # turn the feature on (or switch its policy), keeping the
            # experiment's other knobs when it already carries the
            # section
            base = getattr(experiment.deployment, section.switch)
            setting = {} if section.field is None \
                else {section.field: switch}
            overrides[section.switch] = section.spec(**setting) \
                if base is None else dataclasses.replace(base, **setting)
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
    print(report.summary())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    violations = lint_paths(args.paths, rules=args.rule or None)
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


def _add_switch(parser: argparse.ArgumentParser, section: _Section,
                help: str) -> None:
    if section.field is None:
        parser.add_argument(section.flag, action="store_true", help=help)
    else:
        parser.add_argument(
            section.flag, default=None,
            choices=_REGISTRY_NAMES[section.spec, section.field](),
            help=help)


def _add_section_flags(parser: argparse.ArgumentParser,
                       sections: tuple[_Section, ...]) -> None:
    """``serve``'s switch and knob flags of each section.

    A knob defaults to ``None`` (unset: the spec default applies); its
    type is the spec field's (``float`` for ``float | None``) and its
    help names the spec field's default.
    """
    for section in sections:
        _add_switch(parser, section, section.serve_help)
        hints = typing.get_type_hints(section.spec)
        defaults = {field.name: field.default
                    for field in dataclasses.fields(section.spec)}
        for flag, name, text in section.knobs:
            kind = next((arm for arm in typing.get_args(hints[name])
                         if arm is not type(None)), hints[name])
            default = defaults[name]
            if default is None:
                text += " (default: none)"
            else:
                shown = f"{default:g}" if isinstance(default, float) \
                    else default
                text += f" (default {shown})"
            names = _REGISTRY_NAMES.get((section.spec, name))
            parser.add_argument(flag, type=kind, default=None,
                                choices=names() if names else None,
                                help=text)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The simulator flags ``serve`` and ``run`` share."""
    parser.add_argument("--no-sim-cache", action="store_true",
                        help="disable the simulator fast path (device-"
                             "model memoization + decode fast-forward); "
                             "results are bit-identical either way, the "
                             "reference loop is just slower")
    parser.add_argument("--context-bucket", type=int, default=1,
                        help="decode-context quantization bucket for the "
                             "sim cache; 1 (default) is exact, larger "
                             "buckets trade a small latency error for "
                             "faster sweeps")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition a fixed multi-replica fleet over "
                             "N worker processes (modeled per-shard "
                             "routing; 1 = the exact engine, default)")
    parser.add_argument("--progress", nargs="?", const=5.0, type=float,
                        default=None, metavar="SECS",
                        help="stderr heartbeat (simulated time + "
                             "requests done) every SECS wall-clock "
                             "seconds (default 5 when given bare)")


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
                       choices=BATCHING_POLICIES,
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
    _add_section_flags(serve, _SECTIONS[:1])
    # --arrival and --kv-budget-gb sit between the autoscale and the
    # prefix-cache flags in --help
    serve.add_argument("--arrival", default="poisson",
                       choices=["poisson", "sessions"],
                       help="arrival process: independent Poisson "
                            "requests, or multi-turn chat sessions "
                            "whose turns share a growing prefix")
    serve.add_argument("--kv-budget-gb", type=float, default=None,
                       help="KV-cache memory budget in GiB (default: "
                            "unbounded)")
    _add_section_flags(serve, _SECTIONS[1:])
    _add_engine_flags(serve)

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
    for section in _SECTIONS:
        _add_switch(run, section, section.run_help)
        run.add_argument(section.strip_flag, action="store_true",
                         help=section.strip_help)
    _add_engine_flags(run)

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
    try:
        return handlers[args.command](args)
    except EndpointOverloaded as exc:
        # the message already reads "no requests finished within ..."
        print(_exc_message(exc))
        return 1
    except EndpointUnservable as exc:
        # the endpoint cannot serve even the minimum probed rate
        print(f"no capacity found — {_exc_message(exc)}")
        return 1
    except (KeyError, ValueError, MemoryError, OSError, TypeError) as exc:
        # a bad name, a malformed spec or input, a KV pool too small
        # for one request, an unreadable file: a one-line CLI error,
        # not a traceback (anything else, e.g. a broken worker pool,
        # still surfaces loudly)
        print(f"error: {_exc_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
