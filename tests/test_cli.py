"""Unit tests for the command-line interface."""

import argparse
import dataclasses
import json
import pathlib
import re

import pytest

from repro.api import DeploymentSpec
from repro.cli import _SECTIONS, build_parser, main
from repro.hardware.registry import get_chip, list_chips
from repro.serving.dataset import ULTRACHAT_LIKE

EXPERIMENTS = pathlib.Path(__file__).resolve().parent.parent / "experiments"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_registered_chips_parse(self):
        parser = build_parser()
        for preset in list_chips():
            args = parser.parse_args(["evaluate", "--chip", preset])
            assert args.chip == preset

    def test_unknown_chip_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--chip", "tpu-v9"])


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "llama3-8b" in out
        assert "mqa" in out

    def test_evaluate_prints_qos_table(self, capsys):
        code = main(["evaluate", "--chip", "ador", "--batches", "16", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TBT (tok/s)" in out
        assert "ADOR Design" in out

    def test_evaluate_baseline_chip(self, capsys):
        assert main(["evaluate", "--chip", "a100", "--batches", "16"]) == 0
        assert "A100" in capsys.readouterr().out

    def test_serve_reports_qos(self, capsys):
        code = main(["serve", "--rate", "5", "--requests", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TTFT" in out and "tokens/s" in out

    def test_serve_group_sets_endpoint_knobs_per_group(self, capsys):
        # --devices and --max-batch go into each group, not the top
        # level, which an explicit fleet rejects
        assert main(["serve", "--group", "ador:1", "--devices", "2",
                     "--max-batch", "8", "--rate", "4",
                     "--requests", "12"]) == 0
        assert "1xador fleet (2 device(s)/replica" \
            in capsys.readouterr().out

    def test_serve_seed_is_reproducible(self, capsys):
        assert main(["serve", "--rate", "5", "--requests", "20",
                     "--seed", "21"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--rate", "5", "--requests", "20",
                     "--seed", "21"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["serve", "--rate", "5", "--requests", "20",
                     "--seed", "22"]) == 0
        assert capsys.readouterr().out != first

    def test_capacity_reports_found_rate(self, capsys):
        code = main(["capacity", "--requests", "40", "--iterations", "3",
                     "--rate-low", "0.5", "--rate-high", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max sustainable rate" in out
        assert "probes" in out

    def test_capacity_is_reproducible_with_and_without_knobs(self, capsys):
        base = ["capacity", "--requests", "40", "--iterations", "3",
                "--rate-low", "0.5", "--rate-high", "64"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--no-early-abort"]) == 0
        second = capsys.readouterr().out
        # the knobs change wall-clock, never the found rate or QoS
        assert first.splitlines()[:5] == second.splitlines()[:5]

    def test_capacity_rejects_bad_slo(self, capsys):
        assert main(["capacity", "--slo-tbt-ms", "-5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_executes_experiment_file(self, capsys, tmp_path):
        experiment = {
            "deployment": {"chip": "ador", "model": "llama3-8b",
                           "max_batch": 64},
            "workload": {"trace": "ultrachat", "rate_per_s": 5.0,
                         "num_requests": 20, "seed": 7},
            "max_sim_seconds": 600.0,
        }
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TTFT" in out and "tokens/s" in out

    def test_search_proposes_design(self, capsys):
        code = main(["search", "--ttft-ms", "50", "--tbt-ms", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "proposed:" in out
        assert "requirements met" in out


class TestAutoscaleCli:
    def test_serve_autoscale_reports_scaling(self, capsys):
        code = main(["serve", "--rate", "30", "--requests", "80",
                     "--replicas", "1", "--autoscale", "queue-depth",
                     "--autoscale-max", "4", "--autoscale-interval", "1",
                     "--autoscale-provision-s", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "autoscaler : queue-depth" in out
        assert "replica-seconds" in out

    def test_autoscale_knob_without_policy_fails_loudly(self, capsys):
        assert main(["serve", "--autoscale-max", "4"]) == 2
        err = capsys.readouterr().err
        assert "--autoscale-max" in err and "--autoscale" in err

    def test_unknown_autoscale_policy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--autoscale", "nope"])

    def test_run_autoscale_override_and_strip(self, capsys, tmp_path):
        experiment = {
            "deployment": {"chip": "ador", "max_batch": 32,
                           "replicas": 1,
                           "autoscale": {"policy": "queue-depth",
                                         "max_replicas": 4,
                                         "decision_interval_s": 1.0,
                                         "provision_latency_s": 2.0,
                                         "warm_provision_s": 1.0}},
            "workload": {"trace": "ultrachat", "rate_per_s": 30.0,
                         "num_requests": 60, "seed": 7},
        }
        path = tmp_path / "autoscale.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "autoscaler : queue-depth" in out
        # switch the policy from the command line, keep the other knobs
        assert main(["run", str(path), "--autoscale",
                     "slo-attainment"]) == 0
        out = capsys.readouterr().out
        assert "autoscaler : slo-attainment" in out
        # strip the autoscale section entirely: fixed single endpoint
        assert main(["run", str(path), "--no-autoscale"]) == 0
        out = capsys.readouterr().out
        assert "autoscaler" not in out
        # conflicting flags fail loudly instead of silently picking one
        assert main(["run", str(path), "--autoscale", "queue-depth",
                     "--no-autoscale"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestFaultsCli:
    def test_serve_faults_reports_goodput(self, capsys):
        code = main(["serve", "--rate", "20", "--requests", "40",
                     "--replicas", "2", "--faults", "--fault-seed", "3",
                     "--fault-crash-mtbf-s", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "crashes" in out

    def test_fault_knob_without_faults_fails_loudly(self, capsys):
        assert main(["serve", "--fault-crash-mtbf-s", "30"]) == 2
        err = capsys.readouterr().err
        assert "--fault-crash-mtbf-s" in err and "--faults" in err

    def test_run_faults_override_and_strip(self, capsys, tmp_path):
        experiment = {
            "deployment": {"chip": "ador", "max_batch": 64,
                           "replicas": 2,
                           "faults": {"seed": 3, "crash_mtbf_s": 30.0}},
            "workload": {"trace": "ultrachat", "rate_per_s": 20.0,
                         "num_requests": 40, "seed": 7},
        }
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(experiment))
        # the spec carries a faults section: injection is on
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out and "crashes" in out
        # --faults keeps the experiment's fault knobs
        assert main(["run", str(path), "--faults"]) == 0
        assert capsys.readouterr().out == out
        # strip the section entirely
        assert main(["run", str(path), "--no-faults"]) == 0
        assert "goodput" not in capsys.readouterr().out
        # conflicting flags fail loudly instead of silently picking one
        assert main(["run", str(path), "--faults", "--no-faults"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        # without a section, --faults turns injection on at the defaults
        del experiment["deployment"]["faults"]
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path), "--faults"]) == 0
        assert "goodput" in capsys.readouterr().out

    def test_serve_kv_exhaustion_is_one_line_error(self, capsys,
                                                   monkeypatch):
        def boom(*args, **kwargs):
            raise MemoryError("KV block pool cannot hold a single "
                              "request's context; grow kv_budget_bytes")
        monkeypatch.setattr("repro.cli.simulate", boom)
        assert main(["serve", "--kv-budget-gb", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "kv_budget_bytes" in err
        assert "Traceback" not in err

    def test_run_kv_exhaustion_is_one_line_error(self, capsys,
                                                 monkeypatch, tmp_path):
        experiment = {
            "deployment": {"chip": "ador"},
            "workload": {"trace": "ultrachat", "rate_per_s": 5.0,
                         "num_requests": 10, "seed": 7},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(experiment))

        def boom(*args, **kwargs):
            raise MemoryError("KV block pool cannot hold a single "
                              "request's context; grow kv_budget_bytes")
        monkeypatch.setattr("repro.cli.run_experiment", boom)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "kv_budget_bytes" in err


class TestSectionFlags:
    """The autoscale, prefix-cache and fault flag sections share one
    contract: a knob needs its section's switch, and ``run`` rejects a
    switch together with its ``--no-`` twin."""

    SECTIONS = [
        pytest.param(["--autoscale-max", "4"], "--autoscale <policy>",
                     ["--autoscale", "queue-depth", "--no-autoscale"],
                     id="autoscale"),
        pytest.param(["--prefix-cache-fraction", "0.3"], "--prefix-cache",
                     ["--prefix-cache", "--no-prefix-cache"],
                     id="prefix-cache"),
        pytest.param(["--fault-crash-mtbf-s", "30"], "--faults",
                     ["--faults", "--no-faults"], id="faults"),
    ]

    @pytest.mark.parametrize("knob, switch, pair", SECTIONS)
    def test_knob_without_switch_exits_2(self, capsys, knob, switch, pair):
        assert main(["serve", *knob]) == 2
        err = capsys.readouterr().err
        assert f"{knob[0]} require(s) {switch}" in err

    @pytest.mark.parametrize("knob, switch, pair", SECTIONS)
    def test_run_switch_with_its_negation_exits_2(self, capsys, tmp_path,
                                                  knob, switch, pair):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"deployment": {"chip": "ador"},
                                    "workload": {"num_requests": 10}}))
        assert main(["run", str(path), *pair]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestErrorExits:
    """Every subcommand turns bad input into one ``error:`` line on
    stderr and exit 2 — never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--rate", "-1"],
        ["serve", "--requests", "0"],
        ["serve", "--kv-budget-gb", "-1"],
        ["serve", "--router", "slo-aware", "--slo-short-tokens", "0"],
        ["evaluate", "--model", "nope"],
        ["evaluate", "--devices", "0"],
        ["search", "--models", "nope"],
        ["search", "--ttft-ms", "nan"],
        ["capacity", "--requests", "0"],
        ["run", "no/such/experiment.json"],
        ["lint", "no/such/path"],
    ], ids=" ".join)
    def test_bad_input_exits_2_with_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("argv, field", [
        (["serve", "--rate", "nan", "--requests", "30"], "rate_per_s"),
        (["serve", "--kv-budget-gb", "nan", "--requests", "30"],
         "kv_budget_bytes"),
        (["serve", "--kv-budget-gb", "nan", "--requests", "30",
          "--arrival", "sessions", "--prefix-cache"], "kv_budget_bytes"),
        (["capacity", "--slo-tbt-ms", "nan", "--requests", "40",
          "--iterations", "3"], "slo_tbt_s"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list)
        else value)
    def test_nan_flag_exits_2_naming_the_field(self, capsys, argv, field):
        """argparse's ``float`` reads ``nan``; the spec check rejects it
        before any simulation runs."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert field in lines[0]
        assert captured.out == ""

    def test_unknown_policy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--policy", "bogus"])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [
            "repro-ador serve: error: argument --policy: invalid choice: "
            "'bogus' (choose from 'continuous', 'no-batching', 'static')"]

    @pytest.mark.parametrize("section, label", [
        ("prefix_cache", "prefix cache"), ("faults", "fault")])
    def test_disabled_section_in_experiment_exits_2(self, capsys, tmp_path,
                                                    section, label):
        """A section is on when present: ``"enabled": false`` fails
        instead of running the section it once switched off."""
        experiment = json.loads((EXPERIMENTS / "ultrachat_ador.json")
                                .read_text())
        experiment["deployment"][section] = {"enabled": False}
        path = tmp_path / "disabled.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert f"drop the {label} section" in lines[0]
        assert captured.out == ""

    def test_fractional_count_in_experiment_exits_2(self, capsys, tmp_path):
        """A fractional count in an experiment file is a bad spec: one
        ``error:`` line naming the field, and nothing simulated."""
        experiment = json.loads((EXPERIMENTS / "ultrachat_ador.json")
                                .read_text())
        experiment["workload"]["num_requests"] = 2.5
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: num_requests must be an integer, got 2.5"]
        assert captured.out == ""

    def test_infinite_rate_high_exits_2(self, capsys):
        """``--rate-high inf`` used to report an infinite capacity after
        one probe with every request at t=0."""
        assert main(["capacity", "--requests", "30", "--rate-high", "inf",
                     "--iterations", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: rate_high must be finite, got inf"]
        assert captured.out == ""

    def test_bad_inline_trace_in_experiment_exits_2(self, capsys,
                                                     tmp_path):
        """Inverted length bounds in an inline trace are a bad spec, not
        a trace of 5-token prompts."""
        experiment = json.loads((EXPERIMENTS / "ultrachat_ador.json")
                                .read_text())
        experiment["workload"]["trace"] = dict(
            ULTRACHAT_LIKE.to_dict(), min_input=10, max_input=5)
        path = tmp_path / "inverted.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: min_input must not exceed max_input, got 10 > 5"]
        assert captured.out == ""

    def test_overloaded_run_prints_the_message_once(self, capsys, tmp_path):
        """An endpoint that finishes nothing exits 1 with the overload
        message on stdout, its opening phrase printed once."""
        experiment = json.loads((EXPERIMENTS / "ultrachat_ador.json")
                                .read_text())
        experiment["max_sim_seconds"] = 0.001
        path = tmp_path / "overloaded.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "no requests finished within 0.001 s — ADOR Design cannot "
            "sustain 15 req/s"]
        assert captured.err == ""


    def test_null_chip_frequency_exits_2(self, capsys, tmp_path):
        """An inline chip whose ``frequency_hz`` is ``null`` (+inf) is a
        bad spec, not an overloaded endpoint."""
        experiment = json.loads((EXPERIMENTS / "ultrachat_ador.json")
                                .read_text())
        chip = DeploymentSpec(chip=get_chip("ador")).to_dict()["chip"]
        experiment["deployment"]["chip"] = dict(chip, frequency_hz=None)
        path = tmp_path / "null_frequency.json"
        path.write_text(json.dumps(experiment))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: frequency must be positive and finite; got inf"]
        assert captured.out == ""


class TestSectionTable:
    """The section table is the one description of the feature flags:
    each row must name real spec fields, and each knob's help the
    default its spec field really has."""

    @staticmethod
    def _serve_actions():
        parser = build_parser()
        (commands,) = [action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        return {action.option_strings[0]: action
                for action in commands.choices["serve"]._actions
                if action.option_strings}

    def test_rows_name_real_fields_and_their_defaults(self):
        deployment_fields = {f.name for f in dataclasses.fields(
            DeploymentSpec)}
        actions = self._serve_actions()
        for section in _SECTIONS:
            assert section.switch in deployment_fields
            fields = {f.name: f for f in dataclasses.fields(section.spec)}
            assert section.field is None or section.field in fields
            for flag, name, _ in section.knobs:
                assert name in fields, (flag, name)
                default = fields[name].default
                action = actions[flag]
                assert action.default is None   # unset: the spec decides
                shown = re.search(r"\(default:? (\S+)\)$",
                                  action.help).group(1)
                if default is None:
                    assert shown == "none", flag
                else:
                    assert isinstance(default, action.type), flag
                    assert action.type(shown) == default, flag
