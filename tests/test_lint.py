"""The ``repro.quality`` linter: per-rule units, CLI, and enforcement.

The last test class is the tier-1 enforcement gate: the full rule set
over ``src/repro`` must report zero violations, so any change that
introduces wall-clock reads, unseeded randomness, mutable specs, mutable
defaults, float equality in the scheduling core, or an id-returning
router fails the suite at review time — not after a feature lands on a
subtly nondeterministic core.
"""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.cluster.autoscaler import list_autoscalers
from repro.cluster.router import list_routers
from repro.hardware.registry import list_chips
from repro.quality import (
    RULE_REGISTRY,
    Violation,
    all_rules,
    exit_code,
    format_json,
    format_text,
    lint_paths,
    lint_source,
    resolve_rule,
    rule_tokens,
)
from repro.quality.lint import EXIT_CODE_CAP
from repro.registry import Registry
from repro.serving.policies import BATCHING_POLICIES
from repro.serving.prefix_cache import list_eviction_policies
from repro.serving.traces import get_trace, list_traces

REPO_ROOT = Path(__file__).resolve().parent.parent
SIM_PATH = "src/repro/serving/module.py"      # inside R1/R4 scope
SPECS_PATH = "src/repro/api/specs.py"         # R2 scope


def rules_of(violations):
    return [violation.rule for violation in violations]


# --------------------------------------------------------------------- #
# R1: determinism                                                        #
# --------------------------------------------------------------------- #

class TestDeterminismRule:
    def test_wall_clock_call_flagged_with_line(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        violations = lint_source(source, SIM_PATH)
        assert rules_of(violations) == ["R1"]
        assert violations[0].line == 5
        assert "time.time" in violations[0].message

    @pytest.mark.parametrize("snippet", [
        "from time import perf_counter\nx = perf_counter()\n",
        "import datetime\nx = datetime.datetime.now()\n",
        "from datetime import datetime\nx = datetime.now()\n",
        "import os\nx = os.urandom(8)\n",
        "import random\nx = random.random()\n",
        "import random\nrandom.shuffle([])\n",
        "import numpy as np\nx = np.random.rand(3)\n",
        "import numpy\nx = numpy.random.randint(4)\n",
        "from numpy.random import rand\nx = rand(3)\n",
        "import numpy as np\nnp.random.seed(0)\n",
    ])
    def test_nondeterministic_variants_flagged(self, snippet):
        assert rules_of(lint_source(snippet, SIM_PATH)) == ["R1"]

    @pytest.mark.parametrize("snippet", [
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n",
        "from numpy.random import default_rng\nrng = default_rng(7)\n",
        "import random\nrng = random.Random(7)\n",
        "def f(rng):\n    return rng.random()\n",
    ])
    def test_seeded_randomness_allowed(self, snippet):
        assert lint_source(snippet, SIM_PATH) == []

    def test_benchmarks_and_cli_path_exempt(self):
        source = "import time\nx = time.time()\n"
        assert lint_source(source, "benchmarks/bench_speed.py") == []
        assert lint_source(source, "src/repro/cli.py") == []
        assert rules_of(lint_source(source, SIM_PATH)) == ["R1"]

    def test_import_alias_does_not_evade(self):
        source = "import time as clock\nx = clock.perf_counter()\n"
        assert rules_of(lint_source(source, SIM_PATH)) == ["R1"]

    def test_pragma_with_justification_suppresses(self):
        source = ("import time\n"
                  "x = time.time()  # repro: allow[R1] harness wall-clock\n")
        assert lint_source(source, SIM_PATH) == []

    def test_pragma_by_rule_name_suppresses(self):
        source = ("import time\n"
                  "x = time.time()  "
                  "# repro: allow[determinism] harness wall-clock\n")
        assert lint_source(source, SIM_PATH) == []

    def test_docstring_mention_of_banned_call_not_flagged(self):
        source = '"""Uses time.time() conceptually."""\nx = 1\n'
        assert lint_source(source, SIM_PATH) == []


# --------------------------------------------------------------------- #
# R2: spec hygiene                                                       #
# --------------------------------------------------------------------- #

CLEAN_SPEC = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class FooSpec:
    alpha: int = 1
    beta: str = "x"
"""


class TestSpecHygieneRule:
    def test_clean_spec_passes(self):
        assert lint_source(CLEAN_SPEC, SPECS_PATH) == []

    def test_unfrozen_dataclass_flagged(self):
        source = CLEAN_SPEC.replace("@dataclass(frozen=True)",
                                    "@dataclass")
        violations = lint_source(source, SPECS_PATH)
        assert rules_of(violations) == ["R2"]
        assert "frozen" in violations[0].message

    def test_out_of_scope_file_ignored(self):
        source = CLEAN_SPEC.replace("@dataclass(frozen=True)",
                                    "@dataclass")
        assert lint_source(source, SIM_PATH) == []


# --------------------------------------------------------------------- #
# R3: mutable defaults                                                   #
# --------------------------------------------------------------------- #

class TestMutableDefaultRule:
    @pytest.mark.parametrize("snippet", [
        "def f(x=[]):\n    return x\n",
        "def f(x={}):\n    return x\n",
        "def f(*, x=set()):\n    return x\n",
        "def f(x=dict()):\n    return x\n",
        "g = lambda x=[]: x\n",
    ])
    def test_mutable_default_flagged(self, snippet):
        assert rules_of(lint_source(snippet, SIM_PATH)) == ["R3"]

    @pytest.mark.parametrize("snippet", [
        "def f(x=None):\n    return x or []\n",
        "def f(x=()):\n    return x\n",
        "def f(x=0, y='a'):\n    return x\n",
        "def f(x=frozenset()):\n    return x\n",
    ])
    def test_immutable_defaults_pass(self, snippet):
        assert lint_source(snippet, SIM_PATH) == []

    def test_applies_everywhere_in_repro(self):
        source = "def f(x=[]):\n    return x\n"
        assert rules_of(lint_source(source,
                                    "src/repro/models/zoo.py")) == ["R3"]


# --------------------------------------------------------------------- #
# R4: float equality                                                     #
# --------------------------------------------------------------------- #

class TestFloatEqualityRule:
    @pytest.mark.parametrize("snippet", [
        "def f(a):\n    return a == 0.5\n",
        "def f(a):\n    return 1.5 != a\n",
        "def f(a, b, c):\n    return a / b == c\n",
        "def f(a, b):\n    return float(a) == b\n",
        "def f(a, b):\n    return -a / 2 == b\n",
    ])
    def test_float_compare_flagged(self, snippet):
        violations = lint_source(snippet, SIM_PATH)
        assert rules_of(violations) == ["R4"]
        assert violations[0].line == 2

    @pytest.mark.parametrize("snippet", [
        "def f(a):\n    return a == 1\n",
        "def f(a):\n    return a >= 0.5\n",
        "def f(a, b):\n    return a // b == 2\n",
        "def f(a, b):\n    return a is b\n",
    ])
    def test_non_float_or_ordering_passes(self, snippet):
        assert lint_source(snippet, SIM_PATH) == []

    def test_scoped_to_scheduling_code(self):
        source = "def f(a):\n    return a == 0.5\n"
        for path in ("src/repro/serving/x.py", "src/repro/cluster/x.py",
                     "src/repro/simulator/x.py", "src/repro/perf/x.py"):
            assert rules_of(lint_source(source, path)) == ["R4"]
        assert lint_source(source, "src/repro/api/facade.py") == []

    def test_pragma_for_intentional_bit_parity(self):
        source = ("def f(a, b):\n"
                  "    return a / 2 == b  "
                  "# repro: allow[R4] exact rescale identity by design\n")
        assert lint_source(source, SIM_PATH) == []


# --------------------------------------------------------------------- #
# R5: router contract                                                    #
# --------------------------------------------------------------------- #

class TestRouterContractRule:
    def test_id_returning_route_flagged_with_line(self):
        source = ("class BadRouter:\n"
                  "    def route(self, request, replicas):\n"
                  "        return replicas[0].replica_id\n")
        violations = lint_source(source, "src/repro/cluster/custom.py")
        assert rules_of(violations) == ["R5"]
        assert violations[0].line == 3
        assert "position" in violations[0].message

    def test_id_inside_return_expression_flagged(self):
        source = ("class BadRouter:\n"
                  "    def route(self, request, replicas):\n"
                  "        return min(range(len(replicas)), key=lambda i:\n"
                  "                   replicas[i].replica_id)\n")
        assert rules_of(lint_source(
            source, "src/repro/cluster/custom.py")) == ["R5"]

    def test_position_returning_route_passes(self):
        source = ("class GoodRouter:\n"
                  "    def route(self, request, replicas):\n"
                  "        home = replicas[0].replica_id\n"
                  "        return 0\n")
        assert lint_source(source, "src/repro/cluster/custom.py") == []

    def test_non_route_methods_may_use_ids(self):
        source = ("class Engine:\n"
                  "    def pick(self, replicas):\n"
                  "        return replicas[0].replica_id\n")
        assert lint_source(source, "src/repro/cluster/engine.py") == []


# --------------------------------------------------------------------- #
# R6: exception hygiene                                                  #
# --------------------------------------------------------------------- #

class TestExceptionHygieneRule:
    def test_bare_except_flagged_with_line(self):
        source = ("try:\n"
                  "    risky()\n"
                  "except:\n"
                  "    recover()\n")
        violations = lint_source(source, SIM_PATH)
        assert rules_of(violations) == ["R6"]
        assert violations[0].line == 3
        assert "bare except" in violations[0].message

    def test_except_pass_swallow_flagged(self):
        source = ("try:\n"
                  "    risky()\n"
                  "except ValueError:\n"
                  "    pass\n")
        violations = lint_source(source, SIM_PATH)
        assert rules_of(violations) == ["R6"]
        assert "swallow" in violations[0].message

    def test_except_star_pass_swallow_flagged(self):
        source = ("try:\n"
                  "    risky()\n"
                  "except* ValueError:\n"
                  "    pass\n")
        assert rules_of(lint_source(source, SIM_PATH)) == ["R6"]

    def test_handled_except_passes(self):
        source = ("try:\n"
                  "    risky()\n"
                  "except ValueError as exc:\n"
                  "    log(exc)\n"
                  "    fallback()\n")
        assert lint_source(source, SIM_PATH) == []

    def test_only_offending_handler_flagged(self):
        source = ("try:\n"
                  "    risky()\n"
                  "except KeyError:\n"
                  "    recover()\n"
                  "except ValueError:\n"
                  "    pass\n")
        violations = lint_source(source, SIM_PATH)
        assert rules_of(violations) == ["R6"]
        assert violations[0].line == 5

    def test_pragma_suppresses_deliberate_swallow(self):
        source = ("try:\n"
                  "    risky()\n"
                  "except ValueError:"
                  "  # repro: allow[R6] best-effort probe, absence is fine\n"
                  "    pass\n")
        assert lint_source(source, SIM_PATH) == []


# --------------------------------------------------------------------- #
# R0: pragma hygiene                                                     #
# --------------------------------------------------------------------- #

class TestPragmaHygiene:
    def test_pragma_without_justification_is_violation(self):
        source = "import time\nx = time.time()  # repro: allow[R1]\n"
        violations = lint_source(source, SIM_PATH)
        assert rules_of(violations) == ["R0"]
        assert violations[0].line == 2

    def test_pragma_with_unknown_rule_is_violation(self):
        source = "x = 1  # repro: allow[R9] because reasons\n"
        violations = lint_source(source, SIM_PATH)
        assert rules_of(violations) == ["R0"]
        assert "R9" in violations[0].message

    def test_empty_pragma_is_violation(self):
        source = "x = 1  # repro: allow[] huh\n"
        assert rules_of(lint_source(source, SIM_PATH)) == ["R0"]

    def test_multi_rule_pragma_suppresses_both(self):
        source = ("import time\n"
                  "def f(x=[]):\n"
                  "    return x, time.time()  "
                  "# repro: allow[R1,R3] fixture exercising both rules\n")
        violations = lint_source(source, SIM_PATH)
        # the R3 hit is on the def line, not the pragma line
        assert rules_of(violations) == ["R3"]


# --------------------------------------------------------------------- #
# Driver, formats, CLI                                                   #
# --------------------------------------------------------------------- #

class TestDriver:
    def test_rule_selection_by_id_and_name(self):
        source = ("import time\n"
                  "def f(x=[]):\n"
                  "    return x, time.time()\n")
        assert rules_of(lint_source(source, SIM_PATH,
                                    rules=["R1"])) == ["R1"]
        assert rules_of(lint_source(source, SIM_PATH,
                                    rules=["mutable-default"])) == ["R3"]

    def test_unknown_rule_token_raises(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            lint_source("x = 1\n", SIM_PATH, rules=["R42"])

    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", SIM_PATH)
        assert rules_of(violations) == ["parse"]

    def test_violations_sorted_by_file_line_rule(self):
        source = ("import time\n"
                  "def g(x=[]):\n"
                  "    return x\n"
                  "x = time.time()\n")
        violations = lint_source(source, SIM_PATH)
        assert [(v.line, v.rule) for v in violations] == [(2, "R3"),
                                                          (4, "R1")]

    def test_lint_paths_walks_trees(self, tmp_path):
        package = tmp_path / "src" / "repro" / "serving"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("import time\nx = time.time()\n")
        (package / "good.py").write_text("x = 1\n")
        violations = lint_paths([tmp_path])
        assert rules_of(violations) == ["R1"]
        assert violations[0].file.endswith("bad.py")

    def test_lint_paths_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_exit_code_is_capped_count(self):
        noise = [Violation("f.py", 1, "R1", "determinism", "m")] * 150
        assert exit_code(noise[:3]) == 3
        assert exit_code(noise) == EXIT_CODE_CAP
        assert exit_code([]) == 0

    def test_json_output_shape(self):
        source = "import time\nx = time.time()\n"
        violations = lint_source(source, SIM_PATH)
        payload = json.loads(format_json(violations))
        assert payload["count"] == 1
        entry = payload["violations"][0]
        assert set(entry) == {"file", "line", "rule", "name", "message"}
        assert entry["rule"] == "R1"
        assert entry["line"] == 2

    def test_text_output_mentions_rule_and_line(self):
        source = "import time\nx = time.time()\n"
        text = format_text(lint_source(source, SIM_PATH))
        assert f"{SIM_PATH}:2: R1(determinism)" in text
        assert "1 violation" in text


class TestLintCli:
    def _violation_tree(self, tmp_path):
        package = tmp_path / "src" / "repro" / "serving"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "import time\n\n\ndef f(x=[]):\n    return x, time.time()\n")
        return tmp_path

    def test_cli_reports_count_as_exit_code(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        code = main(["lint", str(tree)])
        out = capsys.readouterr().out
        assert code == 2
        assert "R1(determinism)" in out and "R3(mutable-default)" in out

    def test_cli_json_format_and_line_numbers(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        code = main(["lint", str(tree), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == payload["count"] == 2
        by_rule = {entry["rule"]: entry["line"]
                   for entry in payload["violations"]}
        assert by_rule == {"R3": 4, "R1": 5}

    def test_cli_rule_filter(self, tmp_path, capsys):
        tree = self._violation_tree(tmp_path)
        code = main(["lint", str(tree), "--rule", "R3",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [entry["rule"]
                for entry in payload["violations"]] == ["R3"]

    def test_cli_missing_path_is_clean_error(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "missing")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_rejects_unknown_rule(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--rule", "R42"])

    def test_help_documents_every_rule(self):
        text = build_parser()._subparsers._group_actions[0] \
            .choices["lint"].format_help()
        for cls in all_rules():
            assert cls.id in text and cls.name in text
        assert "repro: allow[" in text


# --------------------------------------------------------------------- #
# Registry ordering + CLI choice lists vs live registries                #
# --------------------------------------------------------------------- #

class TestRegistryAndCliConsistency:
    def test_registry_names_and_iteration_sorted(self):
        registry = Registry("probe")
        for name in ("zeta", "Alpha", "mid"):
            registry.register(name, name)
        assert registry.names() == sorted(registry.names())
        assert list(registry) == registry.names()
        assert registry.names() == ["alpha", "mid", "zeta"]

    def test_rule_registry_sorted_and_resolvable(self):
        assert RULE_REGISTRY.names() == sorted(RULE_REGISTRY.names())
        for cls in all_rules():
            assert resolve_rule(cls.id) is cls
            assert resolve_rule(cls.name) is cls
        assert len(all_rules()) >= 6
        tokens = rule_tokens()
        assert len(tokens) == len(set(tokens))

    def _choices(self, command, option):
        parser = build_parser()
        subparser = parser._subparsers._group_actions[0].choices[command]
        for action in subparser._actions:
            if option in action.option_strings:
                return action.choices
        raise AssertionError(f"{command} has no option {option}")

    @pytest.mark.parametrize("command,option,live", [
        ("serve", "--router", list_routers),
        ("serve", "--autoscale", list_autoscalers),
        ("serve", "--prefix-cache-eviction", list_eviction_policies),
        ("serve", "--chip", list_chips),
        ("capacity", "--chip", list_chips),
        ("evaluate", "--chip", list_chips),
        ("run", "--router", list_routers),
        ("run", "--autoscale", list_autoscalers),
        ("serve", "--policy", lambda: list(BATCHING_POLICIES)),
    ])
    def test_choice_lists_match_live_registries(self, command, option,
                                                live):
        choices = self._choices(command, option)
        assert list(choices) == live()
        assert list(choices) == sorted(choices)

    def test_hetero_router_registered_and_in_cli_choices(self):
        # the hetero-fleet additions ride the same registries the
        # choices cross-check guards: the capability-aware router must
        # be addressable from both serve and run
        assert "hetero-aware" in list_routers()
        assert "hetero-aware" in self._choices("serve", "--router")
        assert "hetero-aware" in self._choices("run", "--router")

    def test_group_flag_accepts_every_registered_chip(self):
        # --group CHIP:COUNT has no closed argparse choices list (the
        # value is composite), so its chip half must resolve against
        # the live registry instead — same contract as --trace
        from types import SimpleNamespace

        from repro.cli import _fleet_spec

        args = SimpleNamespace(
            group=[f"{chip}:1" for chip in list_chips()],
            replicas=1, chip=None, model="llama3-8b", devices=1,
            max_batch=8, kv_budget_gb=None)
        fleet = _fleet_spec(args)
        assert [group.chip for group in fleet.groups] == list_chips()

    def test_group_flag_rejects_unknown_chip_with_choices(self):
        from types import SimpleNamespace

        from repro.cli import _fleet_spec

        args = SimpleNamespace(
            group=["warp9:1"], replicas=1, chip=None,
            model="llama3-8b", devices=1, max_batch=8,
            kv_budget_gb=None)
        with pytest.raises(ValueError) as excinfo:
            _fleet_spec(args)
        for chip in list_chips():
            assert chip in str(excinfo.value)

    def test_trace_and_policy_defaults_resolve_in_registries(self):
        # --trace accepts dynamic names (fixed-AxB), so it carries no
        # closed choices list; its default and every registered name
        # must resolve instead (--policy's choices are checked above)
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.trace in list_traces()
        assert args.policy in BATCHING_POLICIES
        for name in list_traces():
            assert get_trace(name) is not None
        assert list_traces() == sorted(list_traces())


# --------------------------------------------------------------------- #
# Enforcement: the committed tree is clean                               #
# --------------------------------------------------------------------- #

class TestCodebaseClean:
    def test_codebase_clean(self):
        violations = lint_paths([REPO_ROOT / "src" / "repro"])
        assert violations == [], "\n" + format_text(violations)

    def test_seeded_violations_fail_per_rule(self, tmp_path):
        # acceptance check: one synthetic violation per AST rule, each
        # reported with the right rule id and line number
        scratch = tmp_path / "src" / "repro"
        (scratch / "serving").mkdir(parents=True)
        (scratch / "api").mkdir(parents=True)
        (scratch / "cluster").mkdir(parents=True)
        seeded = {
            "R1": (scratch / "serving" / "r1.py",
                   "import time\nx = time.time()\n", 2),
            "R2": (scratch / "api" / "specs.py",
                   "from dataclasses import dataclass\n\n\n"
                   "@dataclass\nclass S:\n    a: int = 1\n", 5),
            "R3": (scratch / "serving" / "r3.py",
                   "def f(x=[]):\n    return x\n", 1),
            "R4": (scratch / "serving" / "r4.py",
                   "def f(a):\n    return a == 0.5\n", 2),
            "R5": (scratch / "cluster" / "r5.py",
                   "class R:\n"
                   "    def route(self, request, replicas):\n"
                   "        return replicas[0].replica_id\n", 3),
        }
        for rule, (path, source, _line) in seeded.items():
            path.write_text(source)
        violations = lint_paths([scratch])
        found = {(v.rule, v.line) for v in violations}
        assert found == {(rule, line)
                         for rule, (_p, _s, line) in seeded.items()}
