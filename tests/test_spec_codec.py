"""The spec codec: one JSON round-trip for every frozen spec dataclass.

``repro.spec_codec.SpecCodec`` derives ``to_dict`` / ``from_dict`` from
the dataclass fields, so the key set of a spec is true by construction.
These tests check that behaviourally: drawn nested specs of all ten
codec classes survive a JSON round-trip with their keys in field order,
committed experiment files keep every key and value they write, and
typos are rejected loudly at every level — inline chips and inline
traces included.  A literal pins the inline chip's JSON, and its enum
fields reject unknown values with the allowed list.  Retired keys
(``WorkloadSpec``'s ``streaming``, ``CapacitySpec``'s
``reuse_arrivals`` and ``parallel_probes``, ``VectorUnit``'s
``ops_per_element`` and ``Sram``'s ``bandwidth_bytes_per_s``) still
load and are dropped, as is a prefix-cache or fault section's
``"enabled": true``; ``"enabled": false`` fails, naming the section.
Every integer field rejects bools, floats and strings at construction.
"""

import dataclasses
import json
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import (
    AutoscaleSpec,
    CapacitySpec,
    DeploymentSpec,
    Experiment,
    FaultEvent,
    FaultSpec,
    FleetSpec,
    PrefixCacheSpec,
    ReplicaGroupSpec,
    SessionConfig,
    WorkloadSpec,
    get_chip,
    list_autoscalers,
    list_chips,
    list_eviction_policies,
    list_routers,
    list_traces,
    load_experiment,
)
from repro.hardware.interconnect import NocTopology
from repro.hardware.memory import Dram, DramKind, Sram
from repro.hardware.technology import ProcessNode
from repro.serving.dataset import ULTRACHAT_LIKE, ChatTraceConfig
from repro.spec_codec import SpecCodec

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = sorted((REPO_ROOT / "experiments").glob("*.json"))

CODEC_CLASSES = (WorkloadSpec, ReplicaGroupSpec, FleetSpec, DeploymentSpec,
                 CapacitySpec, Experiment, AutoscaleSpec, FaultSpec,
                 FaultEvent, PrefixCacheSpec, ChatTraceConfig, SessionConfig)


# --------------------------------------------------------------------- #
# Strategies: valid nested specs of all twelve codec classes            #
# --------------------------------------------------------------------- #

positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
                     allow_infinity=False)
non_negative = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                         allow_infinity=False)
at_least_one = st.floats(min_value=1.0, max_value=16.0, allow_nan=False)
labels = st.text(alphabet="abcdefgh-_ 019", max_size=10)


@st.composite
def inline_chips(draw):
    chip = get_chip(draw(st.sampled_from(list_chips())))
    return chip.with_updates(
        name=draw(labels),
        cores=draw(st.integers(1, 64)),
        global_memory=Sram(draw(non_negative)),
        dram=Dram(draw(st.sampled_from(list(DramKind))), draw(non_negative),
                  draw(positive), draw(st.integers(1, 16))),
        noc=dataclasses.replace(
            chip.noc, topology=draw(st.sampled_from(list(NocTopology)))),
        process=draw(st.sampled_from(list(ProcessNode))),
        tdp_w=draw(st.none() | positive),
    )


chips = st.sampled_from(list_chips()) | inline_chips()

chat_traces = st.builds(
    ChatTraceConfig, name=labels, input_median=positive,
    input_sigma=non_negative, output_median=positive,
    output_sigma=non_negative, min_input=st.integers(1, 64),
    max_input=st.integers(64, 8192), min_output=st.integers(1, 64),
    max_output=st.integers(64, 4096))

session_configs = st.builds(
    SessionConfig, mean_turns=at_least_one, question_median=positive,
    question_sigma=non_negative, answer_median=positive,
    answer_sigma=non_negative, think_time_mean_s=non_negative,
    max_context=st.integers(256, 32768))


@st.composite
def workloads(draw):
    arrival = draw(st.sampled_from(["poisson", "sessions"]))
    return WorkloadSpec(
        trace=draw(st.sampled_from(list_traces() + ["fixed-256x64"])
                   | chat_traces),
        arrival=arrival,
        rate_per_s=draw(positive),
        num_requests=draw(st.integers(1, 100_000)),
        seed=draw(st.integers(0, 2 ** 32)),
        session=draw(st.none() | session_configs)
        if arrival == "sessions" else None,
    )


@st.composite
def groups(draw):
    min_count = draw(st.none() | st.integers(0, 3))
    return ReplicaGroupSpec(
        chip=draw(chips),
        model=draw(st.sampled_from(["llama3-8b", "llama3-70b"])),
        count=draw(st.integers(1, 3)),
        num_devices=draw(st.integers(1, 8)),
        max_batch=draw(st.integers(1, 512)),
        prefill_chunk_tokens=draw(st.integers(1, 4096)),
        kv_budget_bytes=draw(st.none() | positive | st.just(float("inf"))),
        cost_per_replica_s=draw(positive),
        min_count=min_count,
        max_count=draw(st.none() | st.integers(max(min_count or 1, 1), 8)),
        provision_latency_s=draw(st.none() | non_negative),
        name=draw(labels),
    )


@st.composite
def autoscales(draw, total):
    provision = draw(non_negative)
    return AutoscaleSpec(
        policy=draw(st.sampled_from(list_autoscalers())),
        min_replicas=draw(st.integers(1, total)),
        max_replicas=draw(st.integers(total, total + 8)),
        decision_interval_s=draw(positive),
        provision_latency_s=provision,
        warm_pool_size=draw(st.integers(0, 4)),
        warm_provision_s=draw(st.floats(0.0, provision)),
    )


prefix_caches = st.builds(
    PrefixCacheSpec,
    reclaimable_fraction=st.floats(0.01, 1.0),
    eviction=st.sampled_from(list_eviction_policies()),
    block_tokens=st.integers(1, 64))


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(["crash", "slowdown", "stall"]))
    return FaultEvent(
        kind=kind, replica_id=draw(st.integers(0, 8)),
        time_s=draw(non_negative),
        duration_s=draw(non_negative if kind == "crash" else positive),
        factor=draw(at_least_one))


faults = st.builds(
    FaultSpec, seed=st.integers(0, 2 ** 32),
    crash_mtbf_s=st.none() | positive, restart_delay_s=non_negative,
    slowdown_mtbf_s=st.none() | positive, slowdown_factor=at_least_one,
    slowdown_duration_s=positive, stall_mtbf_s=st.none() | positive,
    stall_duration_s=positive, max_retries=st.integers(0, 5),
    request_timeout_s=st.none() | positive, slo_ttft_s=positive,
    events=st.lists(fault_events(), max_size=3).map(tuple))


@st.composite
def deployments(draw):
    fleet = draw(st.none() | st.builds(
        FleetSpec, groups=st.lists(groups(), min_size=1,
                                   max_size=3).map(tuple)))
    replicas = 1 if fleet is not None else draw(st.integers(1, 6))
    total = replicas if fleet is None else fleet.total_replicas
    prefix_cache = draw(st.none() | prefix_caches)
    fault_spec = draw(st.none() | faults)
    autoscale = draw(st.none() | autoscales(total))
    continuous_only = total > 1 or fleet is not None \
        or autoscale is not None or prefix_cache is not None \
        or fault_spec is not None
    batching = "continuous" if continuous_only \
        else draw(st.sampled_from(["continuous", "static"]))
    # an explicit fleet's groups carry the endpoint knobs; static
    # batching reads max_batch and leaves the other two at default
    endpoint = {} if fleet is not None else dict(
        chip=draw(chips),
        model=draw(st.sampled_from(["llama3-8b", "llama3-70b"])),
        num_devices=draw(st.integers(1, 8)),
        max_batch=draw(st.integers(1, 512)),
    )
    if fleet is None and batching == "continuous":
        endpoint.update(
            prefill_chunk_tokens=draw(st.integers(1, 4096)),
            kv_budget_bytes=draw(st.none() | positive
                                 | st.just(float("inf"))))
    return DeploymentSpec(
        **endpoint,
        batching=batching,
        replicas=replicas,
        router=draw(st.sampled_from(list_routers())),
        autoscale=autoscale,
        prefix_cache=prefix_cache,
        faults=fault_spec,
        fleet=fleet,
    )


@st.composite
def capacities(draw):
    rate_low = draw(st.floats(0.01, 100.0))
    return CapacitySpec(
        slo_tbt_s=draw(positive), slo_ttft_s=draw(st.none() | positive),
        percentile=draw(st.sampled_from(["mean", "p50", "p95", "p99"])),
        rate_low=rate_low, rate_high=rate_low + draw(positive),
        iterations=draw(st.integers(0, 12)),
        early_abort=draw(st.booleans()))


experiments = st.builds(
    Experiment, deployment=deployments(), workload=workloads(),
    max_sim_seconds=positive, capacity=st.none() | capacities())

#: One experiment holding every codec class at once, so each example
#: run covers all twelve even when the draws happen not to.
EVERYTHING = Experiment(
    deployment=DeploymentSpec(
        fleet=FleetSpec(groups=(
            ReplicaGroupSpec(chip=get_chip("ador").with_updates(
                name="custom", tdp_w=250.0), count=2),
            ReplicaGroupSpec(chip="a100", count=1, min_count=1,
                             max_count=3, name="gpu"),
        )),
        router="hetero-aware",
        autoscale=AutoscaleSpec(min_replicas=1, max_replicas=6),
        prefix_cache=PrefixCacheSpec(eviction="fifo"),
        faults=FaultSpec(crash_mtbf_s=60.0, events=(
            FaultEvent("crash", 0, 1.0),
            FaultEvent("slowdown", 1, 2.0, duration_s=3.0, factor=4.0),
        )),
    ),
    workload=WorkloadSpec(trace=ULTRACHAT_LIKE, arrival="sessions",
                          session=SessionConfig(mean_turns=2.0)),
    capacity=CapacitySpec(slo_ttft_s=0.5),
)


def nested_specs(spec):
    """``spec`` and every codec spec nested in it, depth first."""
    yield spec
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, SpecCodec):
                yield from nested_specs(item)


def expected_keys(spec):
    """The field names, minus ``Experiment.capacity``, which ``to_dict``
    omits while it holds its default."""
    return [field.name for field in dataclasses.fields(spec)
            if not (isinstance(spec, Experiment)
                    and field.name == "capacity"
                    and getattr(spec, field.name) == field.default)]


# --------------------------------------------------------------------- #
# The round-trip property                                                #
# --------------------------------------------------------------------- #

def test_everything_example_covers_all_codec_classes():
    assert {type(spec) for spec in nested_specs(EVERYTHING)} \
        == set(CODEC_CLASSES)


@settings(max_examples=50, deadline=None)
@given(experiments)
@example(EVERYTHING)
def test_specs_round_trip_with_keys_in_field_order(experiment):
    for spec in nested_specs(experiment):
        data = spec.to_dict()
        assert type(spec).from_dict(json.loads(json.dumps(data))) == spec
        assert list(data) == expected_keys(spec)


def test_a_key_may_be_omitted_exactly_when_its_argument_may_be():
    assert Experiment.from_dict({}) == Experiment()
    assert Experiment().deployment == DeploymentSpec()
    assert Experiment().workload == WorkloadSpec()
    # a fleet has no default groups, in Python or in JSON
    with pytest.raises(TypeError):
        FleetSpec()
    with pytest.raises(ValueError, match="missing fleet field.*groups"):
        FleetSpec.from_dict({})
    with pytest.raises(ValueError,
                       match="missing fault event field.*replica_id"):
        FaultEvent.from_dict({"kind": "crash", "time_s": 1.0})


# --------------------------------------------------------------------- #
# Committed experiment files                                             #
# --------------------------------------------------------------------- #

def assert_survives(written, emitted, where):
    """Every key and value in ``written`` appears unchanged in
    ``emitted`` (which may add keys holding defaults)."""
    if isinstance(written, dict):
        assert isinstance(emitted, dict), where
        for key, value in written.items():
            assert key in emitted, f"{where}.{key} dropped"
            assert_survives(value, emitted[key], f"{where}.{key}")
    elif isinstance(written, list):
        assert isinstance(emitted, list), where
        assert len(emitted) == len(written), where
        for index, (item, got) in enumerate(zip(written, emitted)):
            assert_survives(item, got, f"{where}[{index}]")
    else:
        assert type(emitted) is type(written) and emitted == written, \
            f"{where}: wrote {written!r}, got {emitted!r}"


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda path: path.name)
def test_committed_experiment_keys_and_values_survive(path):
    written = json.loads(path.read_text())
    assert_survives(written, load_experiment(path).to_dict(), path.name)


def test_committed_experiments_found():
    assert len(EXPERIMENTS) >= 9


@pytest.mark.parametrize("name", ["cluster_scale_stream.json",
                                  "hetero_fleet.json"])
def test_full_experiment_files_round_trip_byte_identically(name):
    # these two write every key, so to_dict reproduces the file exactly
    path = REPO_ROOT / "experiments" / name
    assert json.dumps(load_experiment(path).to_dict(), indent=2) + "\n" \
        == path.read_text()


# --------------------------------------------------------------------- #
# Retired keys                                                           #
# --------------------------------------------------------------------- #

WORKLOAD_DICT = {"trace": "ultrachat", "arrival": "sessions",
                 "rate_per_s": 3.0, "num_requests": 12, "seed": 4,
                 "session": None}
CAPACITY_DICT = {"slo_tbt_s": 0.05, "slo_ttft_s": None, "percentile": "p95",
                 "rate_low": 0.5, "rate_high": 128.0, "iterations": 5,
                 "early_abort": True}

#: each spec's JSON section: its key in an experiment, and a full body
SECTIONS = {WorkloadSpec: ("workload", WORKLOAD_DICT),
            CapacitySpec: ("capacity", CAPACITY_DICT)}

RETIRED = [
    (WorkloadSpec, "streaming", True),
    (WorkloadSpec, "streaming", False),
    (CapacitySpec, "parallel_probes", 1),
    (CapacitySpec, "parallel_probes", 3),
    (CapacitySpec, "reuse_arrivals", True),
    (CapacitySpec, "reuse_arrivals", False),
]


def retired_id(value):
    return value.__name__ if isinstance(value, type) else str(value)


@pytest.mark.parametrize("spec, key, value", RETIRED, ids=retired_id)
def test_retired_key_is_dropped(spec, key, value):
    section, data = SECTIONS[spec]
    plain = spec.from_dict(data)
    assert spec.from_dict(dict(data, **{key: value})) == plain
    old = {section: dict(data, **{key: value})}
    assert Experiment.from_dict(old) == Experiment.from_dict({section: data})
    assert plain.to_dict() == data


def test_retired_experiment_name_is_dropped():
    plain = Experiment.from_dict({"workload": WORKLOAD_DICT})
    assert Experiment.from_dict(
        {"name": "old", "workload": WORKLOAD_DICT}) == plain
    assert "name" not in plain.to_dict()


@pytest.mark.parametrize(
    "spec, key", list(dict.fromkeys((spec, key) for spec, key, _ in RETIRED)),
    ids=retired_id)
def test_retired_key_not_offered_as_allowed(spec, key):
    section, data = SECTIONS[spec]
    typo = key[:-1]
    with pytest.raises(ValueError, match=f"unknown {section} field") as info:
        spec.from_dict(dict(data, **{typo: True}))
    unknown, allowed = str(info.value).split("; allowed: ")
    assert typo in unknown
    assert key not in allowed.split(", ")


#: the sections that are on when present: class, deployment key, label
SWITCHED_SECTIONS = [
    pytest.param(PrefixCacheSpec, "prefix_cache", "prefix cache",
                 id="prefix_cache"),
    pytest.param(FaultSpec, "faults", "fault", id="faults"),
]


@pytest.mark.parametrize("spec, key, label", SWITCHED_SECTIONS)
def test_retired_enabled_true_loads_as_no_key(spec, key, label):
    loaded = spec.from_dict({"enabled": True})
    assert loaded == spec.from_dict({})
    assert "enabled" not in loaded.to_dict()
    assert DeploymentSpec.from_dict({key: {"enabled": True}}) \
        == DeploymentSpec(**{key: spec()})


@pytest.mark.parametrize("spec, key, label", SWITCHED_SECTIONS)
def test_retired_enabled_false_fails_naming_the_section(spec, key, label):
    # dropping the key would turn the section on: fail instead
    with pytest.raises(ValueError, match=f"drop the {label} section"):
        spec.from_dict({"enabled": False})
    with pytest.raises(ValueError, match=f"drop the {label} section"):
        DeploymentSpec.from_dict({key: {"enabled": False}})


def test_perfbench_spec_sections_load():
    """Every deployment/workload section of the benchmark definition,
    which still carries ``"streaming": true`` and ``"enabled": true``,
    loads."""
    path = REPO_ROOT / "perfbench" / "workloads.json"
    sections = 0
    for config in json.loads(path.read_text())["workloads"].values():
        if "deployment" in config:
            DeploymentSpec.from_dict(config["deployment"])
            sections += 1
        if "workload" in config:
            WorkloadSpec.from_dict(config["workload"])
            sections += 1
    assert sections >= 5


# --------------------------------------------------------------------- #
# Inline chips                                                           #
# --------------------------------------------------------------------- #

#: The ``ador`` preset as an inline chip, as ``json.dumps`` writes the
#: codec's output: the one place the chip's on-disk format is spelled
#: out, so any change to it shows here.
ADOR_CHIP_JSON = (
    '{"name": "ADOR Design", "kind": "ador", '
    '"frequency_hz": 1500000000.0, "cores": 32, '
    '"systolic_array": {"rows": 64, "cols": 64, "lanes": 1}, '
    '"mac_tree": {"tree_size": 16, "lanes": 16}, '
    '"vector_unit": {"width": 16}, '
    '"local_memory": {"size_bytes": 2097152}, '
    '"global_memory": {"size_bytes": 16777216}, '
    '"dram": {"kind": "HBM2e", "size_bytes": 85899345920, '
    '"bandwidth_bytes_per_s": 2000000000000.0, "modules": 8}, '
    '"noc": {"bandwidth_bytes_per_s": 512000000000.0, '
    '"topology": "ring", "hop_latency_s": 2e-09}, '
    '"p2p": {"bandwidth_bytes_per_s": 64000000000.0, '
    '"latency_s": 1e-06}, '
    '"process": "7nm", "die_area_mm2": null, '
    '"peak_flops_override": null, "tdp_w": null}'
)

#: The same chip as the codec wrote it before ``VectorUnit`` lost
#: ``ops_per_element`` and ``Sram`` lost ``bandwidth_bytes_per_s``:
#: old chip JSON carries those retired keys, and must still load.
ADOR_CHIP_JSON_RETIRED_KEYS = (
    '{"name": "ADOR Design", "kind": "ador", '
    '"frequency_hz": 1500000000.0, "cores": 32, '
    '"systolic_array": {"rows": 64, "cols": 64, "lanes": 1}, '
    '"mac_tree": {"tree_size": 16, "lanes": 16}, '
    '"vector_unit": {"width": 16, "ops_per_element": 1}, '
    '"local_memory": {"size_bytes": 2097152, '
    '"bandwidth_bytes_per_s": null}, '
    '"global_memory": {"size_bytes": 16777216, '
    '"bandwidth_bytes_per_s": null}, '
    '"dram": {"kind": "HBM2e", "size_bytes": 85899345920, '
    '"bandwidth_bytes_per_s": 2000000000000.0, "modules": 8}, '
    '"noc": {"bandwidth_bytes_per_s": 512000000000.0, '
    '"topology": "ring", "hop_latency_s": 2e-09}, '
    '"p2p": {"bandwidth_bytes_per_s": 64000000000.0, '
    '"latency_s": 1e-06}, '
    '"process": "7nm", "die_area_mm2": null, '
    '"peak_flops_override": null, "tdp_w": null}'
)


def ador_chip_dict():
    return DeploymentSpec(chip=get_chip("ador")).to_dict()["chip"]


def with_retired_keys(data):
    """A chip dict as the codec wrote it while the retired keys were
    fields: every vector unit carried ``ops_per_element``, and every
    SRAM an infinite bandwidth, written ``null``."""
    data = json.loads(json.dumps(data))
    if data["vector_unit"] is not None:
        data["vector_unit"]["ops_per_element"] = 1
    for pool in ("local_memory", "global_memory"):
        data[pool]["bandwidth_bytes_per_s"] = None
    return data


def test_inline_chip_format_is_pinned():
    assert json.dumps(ador_chip_dict()) == ADOR_CHIP_JSON
    data = json.loads(ADOR_CHIP_JSON)
    assert DeploymentSpec.from_dict({"chip": data}).chip == get_chip("ador")


def test_retired_chip_keys_still_load():
    data = json.loads(ADOR_CHIP_JSON_RETIRED_KEYS)
    assert with_retired_keys(ador_chip_dict()) == data
    assert DeploymentSpec.from_dict({"chip": data}).chip == get_chip("ador")


@pytest.mark.parametrize("name", list_chips())
def test_every_preset_loads_from_its_retired_key_form(name):
    data = with_retired_keys(
        DeploymentSpec(chip=get_chip(name)).to_dict()["chip"])
    for spec in (DeploymentSpec, ReplicaGroupSpec):
        assert spec.from_dict({"chip": data}).chip == get_chip(name)


def test_misspelt_key_in_a_chip_part_names_its_section():
    data = ador_chip_dict()
    data["vector_unit"] = {"width": 16, "ops_per_elemnt": 1}
    with pytest.raises(ValueError,
                       match=r"unknown vector unit field\(s\): "
                             r"ops_per_elemnt;") as info:
        DeploymentSpec.from_dict({"chip": data})
    assert "ops_per_element" not in str(info.value)


def test_process_node_written_by_label():
    """A chip names its node by label; the member keeps its density."""
    for node in ProcessNode:
        assert ProcessNode(node.label) is node
        chip = get_chip("ador").with_updates(process=node)
        data = json.loads(json.dumps(DeploymentSpec(chip=chip).to_dict()))
        assert data["chip"]["process"] == node.label
        clone = DeploymentSpec.from_dict(data).chip.process
        assert clone is node
        assert clone.density == node.density


def test_null_plain_float_reads_as_infinity():
    """The +inf rule is the codec's, not the chip's: a workload's
    ``rate_per_s`` written as ``null`` reads back as +inf (every request
    released at t=0) and is written as ``null`` again."""
    spec = WorkloadSpec.from_dict({"rate_per_s": None})
    assert spec.rate_per_s == float("inf")
    assert spec.to_dict()["rate_per_s"] is None


@pytest.mark.parametrize("section, key, message", [
    (None, "kind", "chip field 'kind' must be one of ador, npu, gpu, tsp"),
    ("dram", "kind", "dram field 'kind' must be one of HBM2, HBM2e, HBM3, "
                     "HBM3e, LPDDR, SRAM"),
    ("noc", "topology", "noc field 'topology' must be one of ring, "
                        "crossbar, mesh"),
    (None, "process", "chip field 'process' must be one of 4nm, 5nm, 7nm, "
                      "12nm, 14nm"),
], ids=["kind", "dram.kind", "noc.topology", "process"])
def test_unknown_chip_enum_value_rejected(section, key, message):
    data = ador_chip_dict()
    (data if section is None else data[section])[key] = "bogus"
    with pytest.raises(ValueError) as info:
        DeploymentSpec.from_dict({"chip": data})
    assert str(info.value) == f"{message}; got 'bogus'"


@pytest.mark.parametrize("frequency, written", [
    (float("inf"), None), (float("nan"), float("nan"))], ids=["inf", "nan"])
def test_non_finite_chip_frequency_rejected(frequency, written):
    """A clock of +inf (inline JSON ``null``) or NaN is rejected, on the
    chip and through an inline-chip deployment: it used to pass and
    make every prefill time NaN."""
    with pytest.raises(ValueError, match="frequency must be positive and "
                                         "finite"):
        get_chip("ador").with_updates(frequency_hz=frequency)
    data = ador_chip_dict()
    data["frequency_hz"] = written
    with pytest.raises(ValueError, match="frequency must be positive and "
                                         "finite"):
        DeploymentSpec.from_dict({"chip": data})


@pytest.mark.parametrize("unit", ["systolic_array", "mac_tree",
                                  "vector_unit"])
def test_chip_unit_may_be_null_but_not_absent(unit):
    data = ador_chip_dict()
    data[unit] = None
    assert getattr(DeploymentSpec.from_dict({"chip": data}).chip,
                   unit) is None
    data[unit] = {}
    with pytest.raises(ValueError, match="missing .* field"):
        DeploymentSpec.from_dict({"chip": data})
    del data[unit]
    with pytest.raises(ValueError, match=f"missing chip field.*{unit}"):
        DeploymentSpec.from_dict({"chip": data})


# --------------------------------------------------------------------- #
# Typos fail loudly at every level                                       #
# --------------------------------------------------------------------- #

def test_unknown_inline_trace_key_rejected():
    trace = dataclasses.asdict(ULTRACHAT_LIKE)
    trace["input_mean"] = 500.0
    with pytest.raises(ValueError, match="input_mean"):
        WorkloadSpec.from_dict({"trace": trace})


@pytest.mark.parametrize("section, key", [
    (None, "tdp_W"),
    ("dram", "modlues"),
    ("systolic_array", "colls"),
    ("mac_tree", "tree"),
    ("vector_unit", "widht"),
    ("local_memory", "size"),
    ("global_memory", "bandwidth"),
    ("noc", "topolgy"),
    ("p2p", "latency"),
])
def test_custom_chip_typo_rejected(section, key):
    data = ador_chip_dict()
    (data if section is None else data[section])[key] = 300
    for spec in (DeploymentSpec, ReplicaGroupSpec):
        with pytest.raises(ValueError, match=key):
            spec.from_dict({"chip": data})


_EVENT = {"kind": "crash", "replica_id": 0, "time_s": 1.0}


@pytest.mark.parametrize("cls, data, match", [
    # an unknown key at each of the ten levels
    (WorkloadSpec, {"rate": 99.0}, "unknown workload field.*rate"),
    (ReplicaGroupSpec, {"chip": "ador", "cheap": True}, "cheap"),
    (FleetSpec, {"groups": [{}], "spare": 1}, "unknown fleet field"),
    (DeploymentSpec, {"chp": "h100"}, "unknown deployment field"),
    (CapacitySpec, {"slo_tbt_s": 0.05, "typo": 1}, "unknown capacity"),
    (Experiment, {"deploy": {}}, "unknown experiment field"),
    (AutoscaleSpec, {"polcy": "queue-depth"}, "unknown autoscale field"),
    (FaultSpec, {"crash_rate": 0.1}, "unknown fault field"),
    (FaultEvent, dict(_EVENT, severity=2), "unknown fault event field"),
    (PrefixCacheSpec, {"typo": 1}, "unknown prefix cache field"),
    # ... and nested inside the sections that carry them
    (Experiment, {"deployment": {"fleet": {"groups": [{"cheap": 1}]}}},
     "unknown replica group field"),
    (DeploymentSpec, {"faults": {"events": [dict(_EVENT, severity=2)]}},
     "unknown fault event field"),
    (WorkloadSpec, {"arrival": "sessions", "session": {"turns": 2}},
     "unknown session config field"),
    # non-object sections
    (DeploymentSpec, [1, 2], "JSON object"),
    (Experiment, {"workload": "ultrachat"}, "JSON object"),
    (DeploymentSpec, {"autoscale": "queue-depth"}, "JSON object"),
    (FleetSpec, {"groups": [5]}, "JSON object"),
    (FaultSpec, {"events": [None]}, "JSON object"),
    # fleets need groups; events must be a list
    (FleetSpec, {"groups": []}, "group"),
    (FleetSpec, {}, "group"),
    (FaultSpec, {"events": 5}, "JSON array"),
    (FaultSpec, {"events": _EVENT}, "JSON array"),
])
def test_malformed_sections_raise_value_error(cls, data, match):
    with pytest.raises(ValueError, match=match):
        cls.from_dict(data)


_NAN_TRACE = dataclasses.asdict(ULTRACHAT_LIKE)


@pytest.mark.parametrize("cls, data, match", [
    (WorkloadSpec, {"rate_per_s": "NaN"}, "rate_per_s"),
    (WorkloadSpec, {"trace": dict(_NAN_TRACE, input_median="NaN")},
     "input_median"),
    (WorkloadSpec, {"trace": dict(_NAN_TRACE, output_sigma="NaN")},
     "output_sigma"),
    (WorkloadSpec, {"trace": dict(_NAN_TRACE, max_input="NaN")},
     "max_input"),
    (WorkloadSpec, {"arrival": "sessions",
                    "session": {"mean_turns": "NaN"}}, "turn"),
    (WorkloadSpec, {"arrival": "sessions",
                    "session": {"think_time_mean_s": "NaN"}}, "think time"),
    (ReplicaGroupSpec, {"cost_per_replica_s": "NaN"}, "cost_per_replica_s"),
    (ReplicaGroupSpec, {"provision_latency_s": "NaN"},
     "provision_latency_s"),
    (ReplicaGroupSpec, {"kv_budget_bytes": "NaN"}, "kv_budget_bytes"),
    (DeploymentSpec, {"kv_budget_bytes": "NaN"}, "kv_budget_bytes"),
    (CapacitySpec, {"slo_tbt_s": "NaN"}, "slo_tbt_s"),
    (CapacitySpec, {"slo_ttft_s": "NaN"}, "slo_ttft_s"),
    (CapacitySpec, {"rate_high": "NaN"}, "rate_high"),
    (Experiment, {"max_sim_seconds": "NaN"}, "max_sim_seconds"),
    (AutoscaleSpec, {"decision_interval_s": "NaN"}, "decision_interval_s"),
    (AutoscaleSpec, {"provision_latency_s": "NaN"}, "provision_latency_s"),
    (AutoscaleSpec, {"warm_provision_s": "NaN"}, "warm_provision_s"),
    (FaultSpec, {"crash_mtbf_s": "NaN"}, "crash_mtbf_s"),
    (FaultSpec, {"restart_delay_s": "NaN"}, "restart_delay_s"),
    (FaultSpec, {"slowdown_factor": "NaN"}, "slowdown_factor"),
    (FaultSpec, {"slo_ttft_s": "NaN"}, "slo_ttft_s"),
    (FaultEvent, dict(_EVENT, time_s="NaN"), "time_s"),
    (FaultEvent, dict(_EVENT, kind="stall", duration_s="NaN"),
     "duration_s"),
    (FaultEvent, dict(_EVENT, kind="slowdown", duration_s=1.0,
                      factor="NaN"), "factor"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_nan_from_json_fails_the_range_check(cls, data, match):
    """Python's ``json`` reads a bare ``NaN``, and a check written as
    ``x <= 0`` lets it through: every float range check must fail it."""
    text = json.dumps(data).replace('"NaN"', "NaN")
    with pytest.raises(ValueError, match=match):
        cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Integer fields                                                         #
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("cls, text, field", [
    (WorkloadSpec, '{"num_requests": NaN}', "num_requests"),
    (WorkloadSpec, '{"num_requests": 2.5}', "num_requests"),
    (WorkloadSpec, '{"seed": 1.5}', "seed"),
    (DeploymentSpec, '{"replicas": 2.5}', "replicas"),
    (DeploymentSpec, '{"num_devices": NaN}', "num_devices"),
    (DeploymentSpec, '{"max_batch": 2.5}', "max_batch"),
    (DeploymentSpec, '{"max_batch": 8.0}', "max_batch"),
    (DeploymentSpec, '{"prefill_chunk_tokens": "512"}',
     "prefill_chunk_tokens"),
    (ReplicaGroupSpec, '{"count": true}', "count"),
    (ReplicaGroupSpec, '{"max_count": 2.0}', "max_count"),
    (CapacitySpec, '{"iterations": 9.0}', "iterations"),
    (PrefixCacheSpec, '{"block_tokens": 16.5}', "block_tokens"),
    (FaultSpec, '{"seed": 1.5}', "seed"),
    (FaultSpec, '{"max_retries": 2.0}', "max_retries"),
    (FaultEvent, '{"kind": "crash", "replica_id": 1.0, "time_s": 3.0}',
     "replica_id"),
    (AutoscaleSpec, '{"min_replicas": true}', "min_replicas"),
    (WorkloadSpec,
     '{"arrival": "sessions", "session": {"max_context": 100.5}}',
     "max_context"),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_integer_field_rejects_non_integer_json(cls, text, field):
    """JSON yields ``2.5``, ``8.0`` or a bare ``NaN`` where a count was
    meant; the spec names the field instead of failing in numpy or in
    an engine's ``range()``."""
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got "):
        cls.from_dict(json.loads(text))


def _integer_fields(spec):
    hints = typing.get_type_hints(type(spec))
    return [field.name for field in dataclasses.fields(spec)
            if hints[field.name] in (int, int | None)]


@pytest.mark.parametrize("value", [2.5, 8.0, float("nan"), "8", True])
def test_every_integer_field_is_checked_at_construction(value):
    checked = set()
    for spec in nested_specs(EVERYTHING):
        for name in _integer_fields(spec):
            with pytest.raises(ValueError,
                               match=f"^{name} must be an integer"):
                dataclasses.replace(spec, **{name: value})
            checked.add(f"{type(spec).__name__}.{name}")
    assert checked == {
        "WorkloadSpec.num_requests", "WorkloadSpec.seed",
        "ReplicaGroupSpec.count", "ReplicaGroupSpec.num_devices",
        "ReplicaGroupSpec.max_batch", "ReplicaGroupSpec.min_count",
        "ReplicaGroupSpec.max_count",
        "ReplicaGroupSpec.prefill_chunk_tokens",
        "DeploymentSpec.num_devices", "DeploymentSpec.max_batch",
        "DeploymentSpec.prefill_chunk_tokens", "DeploymentSpec.replicas",
        "CapacitySpec.iterations", "AutoscaleSpec.min_replicas",
        "AutoscaleSpec.max_replicas", "AutoscaleSpec.warm_pool_size",
        "FaultSpec.seed", "FaultSpec.max_retries", "FaultEvent.replica_id",
        "PrefixCacheSpec.block_tokens", "ChatTraceConfig.min_input",
        "ChatTraceConfig.max_input", "ChatTraceConfig.min_output",
        "ChatTraceConfig.max_output", "SessionConfig.max_context",
    }


def test_integer_fields_take_python_and_numpy_integers():
    deployment = DeploymentSpec(replicas=np.int64(2), max_batch=np.int32(8))
    assert deployment.total_replicas == 2
    workload = WorkloadSpec(num_requests=np.int64(3), seed=np.uint8(7))
    assert len(workload.build_requests()) == 3
    group = ReplicaGroupSpec(min_count=None, max_count=np.int16(4))
    assert group.max_count == 4
    with pytest.raises(ValueError, match="^replicas must be an integer"):
        DeploymentSpec(replicas=None)
