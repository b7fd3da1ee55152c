"""The lint rules: one AST visitor class per repo contract.

Each rule encodes an invariant the repo's headline claims rest on —
bit-identical fast paths, identical capacity found-rates, deterministic
autoscaling histories — and that until now only runtime parity tests
defended.  A rule is a :class:`Rule` subclass registered in
:data:`RULE_REGISTRY` under its short id (``R1``..); the driver in
:mod:`repro.quality.lint` instantiates every applicable rule per file,
runs it over the parsed tree, and filters ``# repro: allow[<rule>]``
pragma suppressions.

The rules:

* **R0 pragma-hygiene** — every suppression pragma must name a known
  rule and carry a one-line justification on the same line; a bare
  escape hatch is just a disabled rule.
* **R1 determinism** — no wall-clock reads or unseeded randomness in
  the simulator tree; all randomness flows through an injected seeded
  ``numpy`` ``Generator`` and all timestamps come from the simulated
  clock (``benchmarks/`` and the CLI measure real time by design and
  are path-exempt).
* **R2 spec-hygiene** — every dataclass in ``repro.api.specs`` is
  ``frozen=True``.  Key sets need no check: one codec
  (:mod:`repro.spec_codec`) derives every spec's JSON keys from its
  fields, so serialized experiments can't drop or invent a knob.
* **R3 mutable-default** — no mutable default arguments anywhere in
  ``src/repro``; shared default state is cross-run leakage, the exact
  thing deterministic replay can't tolerate.
* **R4 float-equality** — no ``==`` / ``!=`` between float-typed
  expressions in simulator/scheduler/capacity code; bit-parity is
  asserted in tests, production code compares with tolerances or
  integer state.
* **R5 router-contract** — a ``route()`` implementation must never
  return a ``.replica_id``; routers return *positions in the snapshot
  sequence* (the PR 5 bug class: ids survive a scale-down
  non-contiguously, positions do not).
* **R6 exception-hygiene** — no bare ``except:`` and no
  ``except ...: pass`` swallowing in ``src/repro``; a fault-injection
  engine that silently eats errors can fake the very resilience it is
  supposed to measure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from repro.registry import Registry


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, which rule, and what is wrong."""

    file: str
    line: int
    rule: str      # short id, e.g. "R1"
    name: str      # human name, e.g. "determinism"
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "name": self.name,
            "message": self.message,
        }


class Rule(ast.NodeVisitor):
    """Base class: a per-file AST visitor that accumulates violations.

    ``include`` / ``exclude`` are path-substring filters (checked on
    ``/``-normalized paths) so a rule can scope itself to the code the
    contract is about — e.g. R1 exempts ``benchmarks/`` where measuring
    wall-clock time is the whole point.
    """

    id: ClassVar[str] = ""
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""
    include: ClassVar[tuple[str, ...]] = ()   # empty = everywhere
    exclude: ClassVar[tuple[str, ...]] = ()

    def __init__(self, path: str, tree: ast.Module,
                 lines: Sequence[str]) -> None:
        self.path = path
        self.tree = tree
        self.lines = lines
        self.violations: list[Violation] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        normalized = path.replace("\\", "/")
        if cls.include and not any(part in normalized
                                   for part in cls.include):
            return False
        return not any(part in normalized for part in cls.exclude)

    def run(self) -> list[Violation]:
        self.visit(self.tree)
        return self.violations

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            file=self.path, line=getattr(node, "lineno", 1),
            rule=self.id, name=self.name, message=message))


RULE_REGISTRY = Registry("lint rule")


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: register a rule under its short id."""
    RULE_REGISTRY.register(cls.id, cls)
    return cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, in id order."""
    return [RULE_REGISTRY.get(rule_id) for rule_id in RULE_REGISTRY.names()]


def resolve_rule(token: str) -> type[Rule]:
    """Look a rule up by short id (``R1``) or name (``determinism``)."""
    if token in RULE_REGISTRY:
        return RULE_REGISTRY.get(token)
    for cls in all_rules():
        if cls.name == token:
            return cls
    known = ", ".join(f"{cls.id} ({cls.name})" for cls in all_rules())
    raise KeyError(f"unknown lint rule {token!r}; known rules: {known}")


def rule_tokens() -> list[str]:
    """Every accepted ``--rule`` spelling: short ids then names."""
    rules = all_rules()
    return [cls.id for cls in rules] + [cls.name for cls in rules]


# --------------------------------------------------------------------- #
# R0: pragma hygiene (driver-enforced; kept here for docs/selection)     #
# --------------------------------------------------------------------- #

@register_rule
class PragmaHygieneRule(Rule):
    """Suppression pragmas must name known rules and justify themselves.

    The actual check lives in the driver's pragma scanner (pragmas are
    comments, invisible to the AST); this class exists so ``R0`` is
    selectable and documented like every other rule.
    """

    id = "R0"
    name = "pragma-hygiene"
    rationale = ("a `# repro: allow[...]` pragma must name known rule "
                 "ids and carry a one-line justification on the same "
                 "line — an unexplained escape hatch is just a disabled "
                 "rule")

    def run(self) -> list[Violation]:
        return self.violations     # driver-enforced; nothing AST-side


# --------------------------------------------------------------------- #
# R1: determinism                                                        #
# --------------------------------------------------------------------- #

_BANNED_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
}

# seeded constructors: the *only* sanctioned way randomness enters
_SEEDED_NUMPY = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

_STDLIB_RANDOM_ALLOWED = {"random.Random"}   # seedable instance


@register_rule
class DeterminismRule(Rule):
    """R1: no wall-clock reads, no unseeded randomness in the simulator.

    Flags calls to ``time.time``/``perf_counter``/``datetime.now``/
    ``os.urandom`` and any module-level ``random.*`` / ``np.random.*``
    convenience function — everything that isn't routed through a
    seeded ``default_rng`` / ``Generator``.  Import aliases are tracked
    (``import numpy as np``, ``from time import perf_counter``), so
    renaming doesn't evade the rule.
    """

    id = "R1"
    name = "determinism"
    rationale = ("simulated results must replay bit-identically from a "
                 "seed; wall-clock reads and global-state RNGs make a "
                 "run depend on when and in what order it executed")
    exclude = ("benchmarks/", "repro/cli.py")

    def __init__(self, path: str, tree: ast.Module,
                 lines: Sequence[str]) -> None:
        super().__init__(path, tree, lines)
        # local alias -> canonical dotted module path
        self._modules: dict[str, str] = {}
        # local name -> canonical dotted function path
        self._names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._modules[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._names[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _canonical(self, node: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = parts[0]
        if head in self._names:
            parts[0:1] = self._names[head].split(".")
        elif head in self._modules:
            parts[0:1] = self._modules[head].split(".")
        return ".".join(parts)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._canonical(node.func)
        if dotted is not None:
            self._check(node, dotted)
        self.generic_visit(node)

    def _check(self, node: ast.Call, dotted: str) -> None:
        if dotted in _BANNED_CALLS:
            self.report(node, f"nondeterministic call {dotted}() — take "
                              f"timestamps from the simulated clock and "
                              f"entropy from a seeded Generator")
        elif dotted.startswith("random.") \
                and dotted not in _STDLIB_RANDOM_ALLOWED:
            self.report(node, f"global-state RNG call {dotted}() — route "
                              f"randomness through an injected seeded "
                              f"numpy default_rng/Generator")
        elif dotted.startswith("numpy.random.") \
                and dotted.split(".")[2] not in _SEEDED_NUMPY:
            self.report(node, f"unseeded module-level call {dotted}() — "
                              f"use a seeded default_rng/Generator "
                              f"passed down from the experiment spec")


# --------------------------------------------------------------------- #
# R2: spec hygiene                                                       #
# --------------------------------------------------------------------- #

@register_rule
class SpecHygieneRule(Rule):
    """R2: spec dataclasses are frozen.

    For every ``@dataclass`` in ``repro.api.specs``: require
    ``frozen=True``.  Specs are value objects that hash and compare
    across JSON round-trips; their key sets are true by construction,
    since :mod:`repro.spec_codec` derives them from the fields.
    """

    id = "R2"
    name = "spec-hygiene"
    rationale = ("experiment specs are the reproducibility contract: a "
                 "mutable spec can change after it was hashed, compared "
                 "or serialized; key sets are true by construction (one "
                 "codec derives them from the fields)")
    include = ("repro/api/specs.py",)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorator = self._dataclass_decorator(node)
        if decorator is None:
            self.generic_visit(node)
            return
        if not self._is_frozen(decorator):
            self.report(node, f"dataclass {node.name} must be "
                              f"frozen=True — specs are value objects "
                              f"and hash/compare across round-trips")
        self.generic_visit(node)

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
        for decorator in node.decorator_list:
            target = decorator.func \
                if isinstance(decorator, ast.Call) else decorator
            dotted = None
            if isinstance(target, ast.Name):
                dotted = target.id
            elif isinstance(target, ast.Attribute):
                dotted = target.attr
            if dotted == "dataclass":
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.expr) -> bool:
        if not isinstance(decorator, ast.Call):
            return False       # bare @dataclass: frozen defaults to False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen" \
                    and isinstance(keyword.value, ast.Constant):
                return keyword.value.value is True
        return False


# --------------------------------------------------------------------- #
# R3: mutable defaults                                                   #
# --------------------------------------------------------------------- #

_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
}


@register_rule
class MutableDefaultRule(Rule):
    """R3: no mutable default arguments anywhere in ``src/repro``."""

    id = "R3"
    name = "mutable-default"
    rationale = ("a mutable default is one shared object across every "
                 "call — state leaking between runs is exactly what "
                 "deterministic replay cannot tolerate")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef
               | ast.Lambda) -> None:
        defaults = list(node.args.defaults) \
            + [default for default in node.args.kw_defaults
               if default is not None]
        for default in defaults:
            if self._is_mutable(default):
                label = getattr(node, "name", "<lambda>")
                self.report(default,
                            f"mutable default argument in {label}() — "
                            f"use None and construct inside the body")

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name):
            return node.func.id in _MUTABLE_CONSTRUCTORS
        return False


# --------------------------------------------------------------------- #
# R4: float equality                                                     #
# --------------------------------------------------------------------- #

@register_rule
class FloatEqualityRule(Rule):
    """R4: no ``==`` / ``!=`` between float-typed expressions.

    Scoped to simulator/scheduler/capacity code, where a float compare
    is either a latent tolerance bug or a bit-parity assertion that
    belongs in the test suite.  Float-typedness is conservative and
    syntactic: float literals, ``float(...)`` calls, and expressions
    containing a true division.
    """

    id = "R4"
    name = "float-equality"
    rationale = ("exact float comparison in scheduling/capacity logic "
                 "turns representation noise into behavioral "
                 "divergence; compare integers, use tolerances, or "
                 "keep bit-parity assertions in tests")
    include = ("repro/serving/", "repro/simulator/", "repro/cluster/",
               "repro/perf/")

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(self._is_floaty(operand) for operand in operands):
                self.report(node,
                            "==/!= on a float-typed expression — use a "
                            "tolerance (math.isclose) or integer state")
        self.generic_visit(node)

    @classmethod
    def _is_floaty(cls, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            return True
        if isinstance(node, ast.UnaryOp):
            return cls._is_floaty(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return cls._is_floaty(node.left) or cls._is_floaty(node.right)
        return False


# --------------------------------------------------------------------- #
# R5: router contract                                                    #
# --------------------------------------------------------------------- #

@register_rule
class RouterContractRule(Rule):
    """R5: ``route()`` must never return a ``.replica_id``.

    Routers return positions in the snapshot sequence they were handed;
    replica ids survive a scale-down non-contiguously, so an id used as
    an index routes to the wrong replica (or out of range) the moment
    the fleet resizes — the exact bug class PR 5 fixed after the fact.
    """

    id = "R5"
    name = "router-contract"
    rationale = ("routers return snapshot *positions*, never replica "
                 "ids — ids survive a scale-down non-contiguously, so "
                 "an id-as-index routes wrong on any elastic fleet")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name == "route":
            for statement in ast.walk(node):
                if isinstance(statement, ast.Return) \
                        and statement.value is not None \
                        and self._mentions_replica_id(statement.value):
                    self.report(statement,
                                "route() returns an expression "
                                "referencing .replica_id — return the "
                                "position in the snapshot sequence "
                                "instead (ids are not positions on an "
                                "elastic fleet)")
        self.generic_visit(node)

    @staticmethod
    def _mentions_replica_id(node: ast.expr) -> bool:
        return any(isinstance(child, ast.Attribute)
                   and child.attr == "replica_id"
                   for child in ast.walk(node))


# --------------------------------------------------------------------- #
# R6: exception hygiene                                                  #
# --------------------------------------------------------------------- #

@register_rule
class ExceptionHygieneRule(Rule):
    """R6: no bare ``except:``, no ``except ...: pass`` swallowing.

    A bare handler catches ``KeyboardInterrupt``/``SystemExit`` and
    every programming error alike; a handler whose whole body is
    ``pass`` makes failures invisible.  Both are poison in a codebase
    whose fault-injection results are only credible if every injected
    failure is observed, retried, or recorded — never eaten.  Narrow,
    intentional swallows take a ``# repro: allow[R6]`` pragma with the
    justification on the handler line.
    """

    id = "R6"
    name = "exception-hygiene"
    rationale = ("a bare except hides KeyboardInterrupt and programmer "
                 "errors; an except-pass makes failures invisible — "
                 "fault-injection results are only credible when every "
                 "failure is observed, retried, or recorded")

    def visit_Try(self, node: ast.Try) -> None:
        self._check_handlers(node.handlers)
        self.generic_visit(node)

    def visit_TryStar(self, node: ast.TryStar) -> None:
        self._check_handlers(node.handlers)
        self.generic_visit(node)

    def _check_handlers(self,
                        handlers: list[ast.ExceptHandler]) -> None:
        for handler in handlers:
            if handler.type is None:
                self.report(handler,
                            "bare except: catches KeyboardInterrupt and "
                            "every bug alike — name the exception types "
                            "this handler is for")
            elif len(handler.body) == 1 \
                    and isinstance(handler.body[0], ast.Pass):
                self.report(handler,
                            "except-pass swallows the failure — handle "
                            "it, re-raise, or record it; a deliberate "
                            "swallow takes a # repro: allow[R6] pragma "
                            "with its justification")


RuleFactory = Callable[[str, ast.Module, Sequence[str]], Rule]
