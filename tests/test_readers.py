"""Every public name in ``src/repro`` has a reader, checked with ``ast``.

A public function, method or class defined in ``src/repro`` is read
when a module of ``src/repro``, ``benchmarks/``, ``examples/`` or
``perfbench/`` loads its name, as a name or as an attribute, or spells
it as a string constant (perfbench's spans patch methods by name).
Imports, docstrings and ``__all__`` lists read nothing, so a package
``__init__`` that re-exports a name is not its reader.  Tests are not
readers either: a name only tests call is code nothing needs.

A dataclass field is checked per class, because many classes share
field names.  A load ``x.f`` reads field ``f`` of class ``C`` when ``x``
is typed ``C`` through ``self``, an annotation, a constructor call, a
call with an annotated return type, a subscript, a field's annotation
or a ``for`` over a container of ``C``.  An untyped ``x.f`` reads ``f``
only of the classes that the reading module names.  A store, an
augmented assignment and a keyword argument write a field; they do not
read it.

What the scan reports is either deleted or listed in ``ALLOWED`` with
its reason.  An entry whose name no longer exists, or that has gained a
reader, fails the check too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src"
READERS = (SOURCE / "repro", REPO_ROOT / "benchmarks",
           REPO_ROOT / "examples", REPO_ROOT / "perfbench")

REGISTRY = "a registry entry: looked up by name, never by its Python name"
ORACLE = "a parity oracle or reference path, kept to check the fast path"
API = "a repro.api export: the facade's public surface"
VISITOR = "an ast visitor method: ast.NodeVisitor calls it by node type"
HASHED = ("a field of a dataclass perfbench hashes whole through repr, "
          "astuple or dataclasses.fields: removing it moves golden.json")


def seam(why):
    return f"a test seam: {why}"


def untyped(where):
    return f"a reader the scan cannot type: {where}"


#: every name the scan may report, with the one-line reason it stays
ALLOWED = {
    # registries: routers, autoscalers, eviction policies, batching
    # policies and lint rules are reached through their registry
    "repro.cluster.router.LeastOutstandingRouter": REGISTRY,
    "repro.cluster.router.RoundRobinRouter": REGISTRY,
    "repro.cluster.router.SessionAffinityRouter": REGISTRY,
    "repro.cluster.autoscaler.QueueDepthAutoscaler": REGISTRY,
    "repro.cluster.autoscaler.SloAttainmentAutoscaler": REGISTRY,
    "repro.serving.prefix_cache.FifoEviction": REGISTRY,
    "repro.serving.prefix_cache.LargestEviction": REGISTRY,
    "repro.serving.prefix_cache.LruEviction": REGISTRY,
    "repro.serving.policies.run_continuous": REGISTRY,
    "repro.serving.policies.run_no_batching": REGISTRY,
    "repro.serving.policies.run_static": REGISTRY,
    "repro.quality.rules.DeterminismRule": REGISTRY,
    "repro.quality.rules.ExceptionHygieneRule": REGISTRY,
    "repro.quality.rules.FloatEqualityRule": REGISTRY,
    "repro.quality.rules.MutableDefaultRule": REGISTRY,
    "repro.quality.rules.RouterContractRule": REGISTRY,
    "repro.quality.rules.SpecHygieneRule": REGISTRY,
    # the lint rules' node visitors
    "repro.quality.rules.DeterminismRule.visit_Call": VISITOR,
    "repro.quality.rules.DeterminismRule.visit_Import": VISITOR,
    "repro.quality.rules.DeterminismRule.visit_ImportFrom": VISITOR,
    "repro.quality.rules.ExceptionHygieneRule.visit_Try": VISITOR,
    "repro.quality.rules.ExceptionHygieneRule.visit_TryStar": VISITOR,
    "repro.quality.rules.FloatEqualityRule.visit_Compare": VISITOR,
    "repro.quality.rules.MutableDefaultRule.visit_AsyncFunctionDef":
        VISITOR,
    "repro.quality.rules.MutableDefaultRule.visit_FunctionDef": VISITOR,
    "repro.quality.rules.MutableDefaultRule.visit_Lambda": VISITOR,
    "repro.quality.rules.RouterContractRule.visit_FunctionDef": VISITOR,
    "repro.quality.rules.SpecHygieneRule.visit_ClassDef": VISITOR,
    # the cycle-level systolic array the analytical model is held to
    "repro.perf.systolic_reference.CycleAccurateSystolicArray": ORACLE,
    "repro.perf.systolic_reference.CycleAccurateSystolicArray.run_gemm":
        ORACLE,
    "repro.perf.systolic_reference.analytical_tile_cycles": ORACLE,
    "repro.perf.systolic_reference.ReferenceRun.compute_cycles": ORACLE,
    "repro.perf.systolic_reference.ReferenceRun.load_cycles": ORACLE,
    "repro.perf.systolic_reference.ReferenceRun.result": ORACLE,
    "repro.perf.systolic_reference.ReferenceRun.tiles": ORACLE,
    "repro.perf.systolic_reference.ReferenceRun.total_cycles": ORACLE,
    # test seams
    "repro.registry.Registry.unregister":
        seam("lets a test undo what it registered"),
    "repro.cluster.autoscaler.FleetObservation.clock_s":
        seam("the decision clock a custom autoscaler policy reads, as "
             "tests/test_cluster.py's SchedulePolicy does"),
    # the facade's surface
    "repro.api.facade.save_experiment": API,
    "repro.serving.traces.list_traces": API,
    "repro.api.specs.Experiment.name": API,
    # perfbench hashes these whole; the scan sees only named loads
    "repro.cluster.faults.FaultRecord.factor": HASHED,
    "repro.cluster.report.AutoscaleTrace.retired": HASHED,
    # readers in perfbench/, which changes only with the benchmark itself
    "repro.serving.capacity.ProbeOutcome.rate":
        untyped("perfbench/workloads.py:252 reads p.rate of each probe"),
}


# Types.  A type is a frozenset of terms, read as their union:
#   ("cls", name)   an instance of the class ``name``
#   ("seq", type)   a container of ``type``
NONE = frozenset()
SEQUENCES = {"list", "List", "tuple", "Tuple", "Sequence", "Iterable",
             "Iterator", "set", "Set", "frozenset", "FrozenSet", "deque",
             "Deque", "Collection", "MutableSequence", "Generator"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def instance(name):
    return frozenset({("cls", name)})


def element(kind):
    """The type of one item when ``kind`` is iterated."""
    return frozenset().union(*(t[1] for t in kind if t[0] == "seq"))


def walk(node):
    """``ast.walk`` that does not enter function or class definitions."""
    todo = [] if isinstance(node, DEFINITIONS) else [node]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, DEFINITIONS))


def definitions(node):
    """The function and class definitions directly inside ``node``."""
    if isinstance(node, DEFINITIONS):
        yield node
        return
    for child in ast.iter_child_nodes(node):
        yield from definitions(child)


def name_of(node):
    return getattr(node, "id", getattr(node, "attr", None))


def is_dataclass(node):
    return any(name_of(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def is_classvar(annotation):
    if isinstance(annotation, ast.Constant):
        return str(annotation.value).startswith("ClassVar")
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return name_of(annotation) == "ClassVar"


def silent_strings(tree):
    """Ids of the string constants that read nothing: docstrings and
    ``__all__`` entries."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body and \
                isinstance(node.body[0], ast.Expr) and isinstance(
                node.body[0].value, ast.Constant):
            out.add(id(node.body[0].value))
        elif isinstance(node, ast.Assign) and any(
                name_of(t) == "__all__" for t in node.targets):
            out.update(id(n) for n in ast.walk(node.value))
    return out


def dotted(path):
    base = SOURCE if path.is_relative_to(SOURCE) else REPO_ROOT
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@dataclass
class Module:
    path: Path
    name: str
    tree: ast.Module
    named: set = field(default_factory=set)   # every name it spells


@dataclass
class Class:
    key: str                                   # e.g. repro.x.C
    name: str
    bases: list
    fields: set = field(default_factory=set)   # its dataclass fields
    members: set = field(default_factory=set)  # every attribute
    types: dict = field(default_factory=dict)  # attribute -> annotation
    methods: dict = field(default_factory=dict)


class Scan:
    """What ``src/repro`` defines, and what the reading tree loads."""

    def __init__(self):
        self.modules = [
            Module(path, dotted(path), ast.parse(path.read_text()))
            for root in READERS for path in sorted(root.rglob("*.py"))]
        self.classes = {}       # simple name -> [Class]
        self.functions = {}     # simple name -> [def]
        self.defined = {}       # key -> (name, Class of a field or None)
        for module in self.modules:
            if module.path.is_relative_to(SOURCE):
                self.define(module)
        self.names = set()        # every name loaded or spelt
        self.field_reads = set()  # (class key, field)
        for module in self.modules:
            Reader(self, module).read_module()

    # -- definitions ------------------------------------------------------- #
    def define(self, module):
        for node in module.tree.body:
            if isinstance(node, FUNCTIONS):
                self.functions.setdefault(node.name, []).append(node)
                self.publish(f"{module.name}.{node.name}", node.name)
            elif isinstance(node, ast.ClassDef):
                self.define_class(f"{module.name}.{node.name}", node)

    def publish(self, key, name, owner=None):
        if not name.startswith("_"):
            self.defined[key] = (name, owner)

    def define_class(self, key, node):
        info = Class(key, node.name, [name_of(b) for b in node.bases])
        self.classes.setdefault(node.name, []).append(info)
        self.publish(key, node.name)
        data = is_dataclass(node)
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name):
                info.types[item.target.id] = item.annotation
                if data and not is_classvar(item.annotation):
                    info.fields.add(item.target.id)
                    self.publish(f"{key}.{item.target.id}",
                                 item.target.id, info)
            elif isinstance(item, ast.Assign):
                info.members.update(name_of(t) for t in item.targets)
            elif isinstance(item, FUNCTIONS):
                info.methods[item.name] = item
                if "property" in map(name_of, item.decorator_list):
                    info.types[item.name] = item.returns
                self.publish(f"{key}.{item.name}", item.name)
        for method in info.methods.values():
            self.self_attributes(info, method)
        info.members.update(info.types, info.methods)

    @staticmethod
    def self_attributes(info, method):
        """Attributes ``method`` sets on ``self``, typed by an
        annotation, an annotated parameter or a constructor call."""
        params = {a.arg: a.annotation for a in (
            *method.args.posonlyargs, *method.args.args,
            *method.args.kwonlyargs)}
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and name_of(target.value) == "self"):
                    continue
                info.members.add(target.attr)
                if isinstance(node, ast.AnnAssign):
                    kind = node.annotation
                elif isinstance(value, ast.Name):
                    kind = params.get(value.id)
                elif isinstance(value, ast.Call):
                    kind = value.func
                else:
                    kind = None
                if kind is not None:
                    info.types.setdefault(target.attr, kind)

    # -- classes ----------------------------------------------------------- #
    def mro(self, name):
        """Every class called ``name`` and their bases, nearest first."""
        out, todo, seen = [], [name], set()
        while todo:
            for info in self.classes.get(todo.pop(0), ()):
                if info.key not in seen:
                    seen.add(info.key)
                    out.append(info)
                    todo.extend(b for b in info.bases if b)
        return out

    @cache
    def owners(self, attr):
        """The classes whose dataclass field ``attr`` is."""
        return tuple(info for infos in self.classes.values()
                     for info in infos if attr in info.fields)

    # -- annotations ------------------------------------------------------- #
    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                return self.annotation(ast.parse(node.value,
                                                 mode="eval").body)
            except SyntaxError:
                return NONE
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self.annotation(node.left) | self.annotation(node.right)
        if isinstance(node, (ast.Name, ast.Attribute)):
            return instance(name_of(node)) \
                if name_of(node) in self.classes else NONE
        if not isinstance(node, ast.Subscript):
            return NONE
        base = name_of(node.value)
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        kind = frozenset().union(*map(self.annotation, args))
        if base in ("Optional", "Union", "ClassVar", "Final"):
            return kind
        if base in SEQUENCES and kind:
            return frozenset({("seq", kind)})
        return NONE

    def attribute(self, kind, attr, returned=False):
        """The type of ``x.attr`` (or of ``x.attr(...)`` when
        ``returned``) for ``x`` of type ``kind``."""
        out = set()
        for term in kind:
            for info in self.mro(term[1]) if term[0] == "cls" else ():
                if returned and attr in info.methods:
                    method = info.methods[attr]
                    out |= instance(info.name) \
                        if name_of(method.returns) == "Self" \
                        else self.annotation(method.returns)
                    break
                if not returned and attr in info.types:
                    out |= self.annotation(info.types[attr])
                    break
        return frozenset(out)


class Reader:
    """One module's loads, each typed as far as the rules reach."""

    def __init__(self, scan, module):
        self.scan = scan
        self.module = module
        self.silent = silent_strings(module.tree)

    def read_module(self):
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.alias):
                self.module.named.add(node.name.split(".")[-1])
            elif isinstance(node, (ast.Name, ast.Attribute,
                                   ast.ClassDef)):
                self.module.named.add(
                    getattr(node, "name", None) or name_of(node))
        self.scope(self.module.tree.body, {}, None)

    # -- scopes ------------------------------------------------------------- #
    def scope(self, body, env, owner):
        """Type the names one body binds (in any order), then read it."""
        env = dict(env)
        nodes = [n for stmt in body for n in walk(stmt)]
        for _ in range(3):
            before = dict(env)
            for node in nodes:
                self.bind(node, env)
            if env == before:
                break
        for node in nodes:
            self.read(node, env)
        for stmt in body:
            for node in definitions(stmt):
                if isinstance(node, ast.ClassDef):
                    for expr in (*node.bases, *node.decorator_list):
                        self.read_all(expr, env)
                    self.scope(node.body, env, node.name)
                else:
                    self.function(node, env, owner)

    def function(self, node, env, owner):
        env = dict(env)
        args = node.args
        decorators = set(map(name_of, node.decorator_list))
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for position, arg in enumerate(every):
            kind = self.scan.annotation(arg.annotation)
            if position == 0 and owner and arg.annotation is None and \
                    "staticmethod" not in decorators:
                kind = instance(owner)
            env[arg.arg] = kind
        for expr in (*args.defaults, *node.decorator_list,
                     *filter(None, args.kw_defaults)):
            self.read_all(expr, env)
        self.scope(node.body, env, owner)

    # -- types ---------------------------------------------------------------- #
    def type_of(self, node, env):
        scan = self.scan
        if isinstance(node, ast.Name):
            return env.get(node.id) or (
                instance(node.id) if node.id in scan.classes else NONE)
        if isinstance(node, ast.Attribute):
            return scan.attribute(self.type_of(node.value, env), node.attr)
        if isinstance(node, ast.Subscript):
            kind = self.type_of(node.value, env)
            return kind if isinstance(node.slice, ast.Slice) \
                else element(kind)
        if not isinstance(node, ast.Call):
            return NONE
        func = node.func
        if name_of(func) in scan.classes:
            return instance(name_of(func))
        if isinstance(func, ast.Name):
            return frozenset().union(*(
                scan.annotation(f.returns)
                for f in scan.functions.get(func.id, ())))
        if isinstance(func, ast.Attribute):
            return scan.attribute(self.type_of(func.value, env), func.attr,
                                  returned=True)
        return NONE

    # -- binding -------------------------------------------------------------- #
    def unpack(self, target, kind, env):
        if isinstance(target, ast.Name):
            env[target.id] = env.get(target.id, NONE) | kind
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.unpack(elt, element(kind), env)

    def bind(self, node, env):
        if isinstance(node, ast.Assign):
            kind = self.type_of(node.value, env)
            for target in node.targets:
                self.unpack(target, kind, env)
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            env[node.target.id] = self.scan.annotation(node.annotation)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            self.unpack(node.target, element(self.type_of(node.iter, env)),
                        env)

    # -- reading -------------------------------------------------------------- #
    def read_all(self, expr, env):
        for node in walk(expr):
            self.read(node, env)

    def read(self, node, env):
        names = self.scan.names
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            names.add(node.attr)
            self.read_field(node.value, node.attr, env)
        elif isinstance(node, ast.Constant) and isinstance(
                node.value, str) and id(node) not in self.silent:
            names.add(node.value)

    def read_field(self, value, attr, env):
        """Record ``value.attr`` against the class that owns it."""
        scan = self.scan
        owners = scan.owners(attr)
        if not owners:
            return
        typed = False
        for term in self.type_of(value, env):
            for info in scan.mro(term[1]) if term[0] == "cls" else ():
                if attr in info.members:
                    if attr in info.fields:
                        scan.field_reads.add((info.key, attr))
                    typed = True
                    break
        if not typed:
            named = self.module.named
            scan.field_reads.update(
                (info.key, attr) for info in owners if info.name in named)


@cache
def scan():
    return Scan()


def unread():
    """Every public definition in ``src/repro`` that nothing reads."""
    result = scan()
    return sorted(
        key for key, (name, owner) in result.defined.items()
        if ((owner.key, name) not in result.field_reads if owner
            else name not in result.names))


def test_scan_reads_the_whole_tree():
    result = scan()
    assert {"repro.api.facade", "repro.cluster.engine", "perfbench.run",
            "examples.quickstart", "benchmarks.bench_sim_speed"} <= {
        m.name for m in result.modules}
    assert "repro.api.facade.simulate" in result.defined


def test_every_public_name_has_a_reader():
    missing = [key for key in unread() if key not in ALLOWED]
    assert not missing, (
        "public names in src/repro that nothing outside tests/ reads "
        "(delete them, or allowlist them with a reason):\n"
        + "\n".join(missing))


def test_allowlist_names_only_unread_definitions():
    stale = sorted(set(ALLOWED) - set(unread()))
    assert not stale, (
        "allowlist entries that no longer exist or have a reader:\n"
        + "\n".join(stale))
