"""Every public name in ``src/repro`` has a reader and every defaulted
parameter a caller, checked with ``ast``.

A public function or class defined in ``src/repro`` is read when a
module of ``src/repro``, ``benchmarks/``, ``examples/`` or
``perfbench/`` loads its name, as a name or as an attribute, or spells
it as a string constant.  Imports, docstrings, ``__all__`` and
``__slots__`` read nothing, so a package ``__init__`` that re-exports a
name is not its reader.  Tests are neither readers nor callers: a name
or an option only tests use is code nothing needs.

Methods, properties and dataclass fields are checked per class, because
many classes share member names.  A load ``x.m`` reads member ``m`` of
class ``C`` when ``x`` is typed ``C`` through ``self``, an annotation, a
constructor call, a call with an annotated return type, a module
constant, a subscript, a field's annotation or a ``for`` over a
container of ``C``.  The read dispatches: through a class it also reads
each subclass's ``m``, and through a ``Protocol`` or ABC every class's.
An untyped ``x.m``, and a string constant spelling ``m`` (perfbench
patches methods by name, ``getattr`` takes one), read ``m`` only of the
classes the reading module names.  A receiver typed only by types
outside ``repro`` (``dict[...]``, a ``list``, a literal) reads nothing.
A store, an augmented assignment and a keyword argument write a field;
they do not read it.  Dunder methods are exempt.

A defaulted parameter is an option, so some call must set it.  A call
whose callee's name is the function's (the class's for ``__init__``,
also ``cls(...)`` and ``super().__init__(...)``) sets it by keyword or
by a positional argument at or past its index, and a ``*`` or ``**``
argument there sets every parameter.  A call whose callee the scan
cannot name (a variable, a subscript, ``functools.partial``) sets what
it passes by keyword, but only on functions that escape: a decorator
call receives them, or their name is loaded other than to call them.
Dataclass fields are out of scope: spec JSON and CLI flags set them
where the scan cannot see.

What the scan reports is either deleted or listed in ``ALLOWED`` with
its reason.  An entry whose name no longer exists, or that has gained a
reader or a caller, fails the check too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import pytest

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
    return f"a reader or a call the scan cannot type: {where}"


#: every name the scan may report, with the one-line reason it stays
ALLOWED = {
    # registries: routers, autoscalers, eviction policies and lint
    # rules are reached through their registry
    "repro.cluster.router.LeastOutstandingRouter": REGISTRY,
    "repro.cluster.router.RoundRobinRouter": REGISTRY,
    "repro.cluster.router.SessionAffinityRouter": REGISTRY,
    "repro.cluster.autoscaler.QueueDepthAutoscaler": REGISTRY,
    "repro.cluster.autoscaler.SloAttainmentAutoscaler": REGISTRY,
    "repro.serving.prefix_cache.FifoEviction": REGISTRY,
    "repro.serving.prefix_cache.LargestEviction": REGISTRY,
    "repro.serving.prefix_cache.LruEviction": REGISTRY,
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
    "repro.perf.systolic_reference.CycleAccurateSystolicArray.run_gemm"
    "(double_buffered=)": ORACLE,
    # the capacity search the fast one is held to, probe for probe
    "repro.serving.capacity.reference_capacity_search(percentile=)": ORACLE,
    "repro.serving.capacity.reference_capacity_search(slo_ttft_s=)": ORACLE,
    "repro.serving.capacity.reference_capacity_search(max_sim_seconds=)":
        ORACLE,
    # test seams
    "repro.registry.Registry.unregister":
        seam("lets a test undo what it registered"),
    "repro.cluster.autoscaler.FleetObservation.clock_s":
        seam("the decision clock a custom autoscaler policy reads, as "
             "tests/test_cluster.py's SchedulePolicy does"),
    "repro.cluster.engine.ClusterEngine.__init__(autoscaler=)":
        seam("runs a custom autoscaler policy instance"),
    "repro.cli.main(argv=)": seam("runs the CLI in-process"),
    "repro.perf.scale.ProgressReporter.__init__(stream=)":
        seam("captures the heartbeat lines"),
    "repro.perf.scale.ProgressReporter.__init__(clock=)":
        seam("drives the heartbeat's wall clock"),
    "repro.serving.generator.iter_poisson_requests(chunk=)":
        seam("crosses chunk boundaries with a few requests"),
    "repro.serving.generator.iter_onoff_requests(chunk=)":
        seam("crosses chunk boundaries with a few requests"),
    "repro.serving.sessions.iter_session_requests(chunk=)":
        seam("crosses chunk boundaries with a few requests"),
    # the facade's surface
    "repro.api.facade.save_experiment": API,
    "repro.serving.traces.list_traces": API,
    # perfbench hashes these whole; the scan sees only named loads
    "repro.cluster.faults.FaultRecord.factor": HASHED,
    "repro.cluster.report.AutoscaleTrace.retired": HASHED,
    # readers in perfbench/, which changes only with the benchmark itself
    "repro.serving.capacity.ProbeOutcome.rate":
        untyped("perfbench/workloads.py:252 reads p.rate of each probe"),
}


# Types.  A type is a frozenset of terms, read as their union:
#   ("cls", name)       an instance of the class ``name``
#   ("seq", type)       a container of ``type``
#   ("foreign", None)   an instance of a type outside ``repro``
# The empty set is an untyped value.
NONE = frozenset()
FOREIGN = frozenset({("foreign", None)})
SEQUENCES = {"list", "List", "tuple", "Tuple", "Sequence", "Iterable",
             "Iterator", "set", "Set", "frozenset", "FrozenSet", "deque",
             "Deque", "Collection", "MutableSequence", "Generator"}
#: annotations that say nothing of the type
UNTYPED = {"Any", "object", "Self"}
#: builtin calls that build a container of their argument's items
COPIES = {"list", "tuple", "sorted", "reversed", "set", "frozenset"}
#: builtin calls that build a value of a type outside ``repro``
BUILTINS = {"dict", "defaultdict", "OrderedDict", "Counter", "str", "int",
            "float", "bool", "bytes", "len", "sum", "round", "abs",
            "range", "Path"}
LITERALS = (ast.Dict, ast.DictComp, ast.JoinedStr, ast.Constant)
DISPLAYS = (ast.List, ast.Tuple, ast.Set, ast.ListComp, ast.SetComp)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def instance(name):
    return frozenset({("cls", name)})


def sequence(kind):
    return frozenset({("seq", kind)})


def element(kind):
    """The type of one item when ``kind`` is iterated."""
    return frozenset().union(*(t[1] for t in kind if t[0] == "seq"))


def classes_of(kind):
    return [t[1] for t in kind if t[0] == "cls"]


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
    """Ids of the string constants that read nothing: docstrings,
    ``__all__`` entries and ``__slots__`` names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body and \
                isinstance(node.body[0], ast.Expr) and isinstance(
                node.body[0].value, ast.Constant):
            out.add(id(node.body[0].value))
        elif isinstance(node, ast.Assign) and any(
                name_of(t) in ("__all__", "__slots__")
                for t in node.targets):
            out.update(id(n) for n in ast.walk(node.value))
    return out


def dotted(path, source):
    base = source if path.is_relative_to(source) else source.parent
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
    protocol: bool                             # a Protocol or an ABC
    fields: set = field(default_factory=set)   # its dataclass fields
    members: set = field(default_factory=set)  # every attribute
    types: dict = field(default_factory=dict)  # attribute -> declaration
    methods: dict = field(default_factory=dict)


@dataclass
class Option:
    """One defaulted parameter, and the calls that may set it."""

    key: str              # e.g. repro.x.C.m(p=)
    name: str
    index: int | None     # its position at a call; None if keyword-only
    callees: frozenset    # the callee names that reach its function
    escapes: bool         # a decorator call receives its function


@dataclass
class Call:
    keywords: frozenset
    positional: int
    star: bool            # a ``*`` or ``**`` argument passes everything


class Scan:
    """What ``src/repro`` defines, and what the reading tree loads and
    calls.  ``readers`` are the roots scanned; the modules under
    ``source`` (the ``src`` directory) also define."""

    def __init__(self, readers=READERS, source=SOURCE):
        self.modules = [
            Module(path, dotted(path, source), ast.parse(path.read_text()))
            for root in readers for path in sorted(root.rglob("*.py"))]
        self.classes = {}       # simple name -> [Class]
        self.children = {}      # simple name -> [Class] naming it a base
        self.by_member = {}     # attribute -> [Class] that define it
        self.functions = {}     # simple name -> [def]
        self.constants = {}     # module-level name -> declaration
        self.defined = {}       # key -> (name, owning Class or None)
        self.options = []       # [Option]
        for module in self.modules:
            if module.path.is_relative_to(source):
                self.define(module)
        for infos in self.classes.values():
            for info in infos:
                for base in info.bases:
                    self.children.setdefault(base, []).append(info)
                for attr in info.members:
                    self.by_member.setdefault(attr, []).append(info)
        for infos in self.classes.values():
            for info in infos:
                if "__init__" in info.methods:
                    self.define_options(f"{info.key}.__init__",
                                        info.methods["__init__"],
                                        self.constructors(info.name),
                                        method=True)
        self.callable = {*self.functions, *self.classes, *(
            name for infos in self.classes.values() for info in infos
            for name in info.methods)}
        self.names = set()         # every name loaded or spelt
        self.member_reads = set()  # (class key, attribute)
        self.calls = {}            # callee name -> [Call]
        self.keywords = set()      # keywords passed to unnamed callees
        self.values = set()        # names loaded other than to call them
        for module in self.modules:
            Reader(self, module).read_module()

    # -- definitions ------------------------------------------------------- #
    def define(self, module):
        for node in module.tree.body:
            if isinstance(node, FUNCTIONS):
                self.functions.setdefault(node.name, []).append(node)
                self.publish(f"{module.name}.{node.name}", node.name)
                self.define_options(f"{module.name}.{node.name}", node,
                                    {node.name})
            elif isinstance(node, ast.ClassDef):
                self.define_class(f"{module.name}.{node.name}", node)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                self.constants[node.target.id] = node.annotation
            elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.constants[target.id] = node.value

    def publish(self, key, name, owner=None):
        if not name.startswith("_"):
            self.defined[key] = (name, owner)

    def define_options(self, key, node, callees, method=False):
        args = node.args
        escapes = any(isinstance(d, ast.Call) for d in node.decorator_list)
        positional = [*args.posonlyargs, *args.args]
        if method and "staticmethod" not in map(name_of,
                                                node.decorator_list):
            positional = positional[1:]
        defaulted = positional[len(positional) - len(args.defaults):] \
            if args.defaults else []
        for arg in defaulted:
            self.options.append(Option(f"{key}({arg.arg}=)", arg.arg,
                                       positional.index(arg),
                                       frozenset(callees), escapes))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.options.append(Option(f"{key}({arg.arg}=)", arg.arg,
                                           None, frozenset(callees),
                                           escapes))

    def define_class(self, key, node):
        bases = [name_of(b) for b in node.bases]
        info = Class(key, node.name, bases, bool(
            {"Protocol", "ABC"} & set(bases) or any(
                name_of(k.value) == "ABCMeta" for k in node.keywords)))
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
                self.publish(f"{key}.{item.name}", item.name, info)
                if item.name != "__init__":
                    self.define_options(f"{key}.{item.name}", item,
                                        {item.name}, method=True)
        for method in info.methods.values():
            self.self_attributes(info, method)
        info.members.update(info.types, info.methods)

    @staticmethod
    def self_attributes(info, method):
        """Attributes ``method`` sets on ``self``, typed by an
        annotation, an annotated parameter or the value assigned."""
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
                elif isinstance(value, (ast.Call, *LITERALS, *DISPLAYS)) \
                        and getattr(value, "value", 0) is not None:
                    kind = value
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

    def descendants(self, name):
        """Every class that derives from a class called ``name``."""
        out, todo = {}, [name]
        while todo:
            for info in self.children.get(todo.pop(), ()):
                if info.key not in out:
                    out[info.key] = info
                    todo.append(info.name)
        return list(out.values())

    def constructors(self, name):
        """The callee names that run ``name.__init__``: the class and
        the subclasses that inherit it."""
        out, todo = {name}, [name]
        while todo:
            for info in self.children.get(todo.pop(), ()):
                if "__init__" not in info.methods:
                    out.add(info.name)
                    todo.append(info.name)
        return out

    @cache
    def holders(self, attr):
        """The names of the classes that have ``attr``, inherited or
        their own."""
        out = set()
        for info in self.by_member.get(attr, ()):
            out.add(info.name)
            out.update(i.name for i in self.descendants(info.name))
        return tuple(sorted(out))

    def credit(self, name, attr):
        """Record a read of ``x.attr`` for ``x`` typed ``name``: the
        class it resolves to and each subclass's ``attr``, or through a
        ``Protocol`` or ABC every class's.  False when none has it."""
        if any(info.protocol for info in self.classes.get(name, ())):
            hits = list(self.by_member.get(attr, ()))
        else:
            hits = [info for info in self.descendants(name)
                    if attr in info.members]
        hits += [info for info in self.mro(name) if attr in info.members][:1]
        self.member_reads.update((info.key, attr) for info in hits)
        return bool(hits)

    # -- annotations ------------------------------------------------------- #
    def annotation(self, node):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, str):
                return NONE
            try:
                return self.annotation(ast.parse(node.value,
                                                 mode="eval").body)
            except SyntaxError:
                return NONE
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self.annotation(node.left) | self.annotation(node.right)
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = name_of(node)
            if name in self.classes:
                return instance(name)
            return NONE if name in UNTYPED else FOREIGN
        if not isinstance(node, ast.Subscript):
            return NONE
        base = name_of(node.value)
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) \
            else [node.slice]
        kind = frozenset().union(*map(self.annotation, args))
        if base in ("Optional", "Union", "ClassVar", "Final", "type"):
            return kind
        return sequence(kind) if base in SEQUENCES else FOREIGN

    def constant(self, name):
        """The type of the module constant ``name``."""
        return self.declared(self.constants[name]) \
            if name in self.constants else NONE

    def returns(self, name):
        """The annotated return type of the functions called ``name``."""
        return frozenset().union(*(
            self.annotation(f.returns) for f in self.functions.get(name, ())))

    def declared(self, node):
        """The type an attribute's declaration gives it: an annotation
        (a string one included), or the value assigned in a method."""
        if isinstance(node, LITERALS) and not (
                isinstance(node, ast.Constant) and isinstance(node.value,
                                                              str)):
            return FOREIGN
        if isinstance(node, DISPLAYS):
            return sequence(NONE)
        if isinstance(node, ast.Call):
            name = name_of(node.func)
            if name in self.classes:
                return instance(name)
            if name in BUILTINS:
                return FOREIGN
            if name in COPIES:
                return sequence(NONE)
            return self.returns(name) if isinstance(node.func, ast.Name) \
                else NONE
        return self.annotation(node)

    def attribute(self, kind, attr, returned=False):
        """The type of ``x.attr`` (or of ``x.attr(...)`` when
        ``returned``) for ``x`` of type ``kind``."""
        out = set()
        for name in classes_of(kind):
            for info in self.mro(name):
                if returned and attr in info.methods:
                    method = info.methods[attr]
                    out |= instance(info.name) \
                        if name_of(method.returns) == "Self" \
                        else self.annotation(method.returns)
                    break
                if not returned and attr in info.types:
                    out |= self.declared(info.types[attr])
                    break
        return frozenset(out)


class Reader:
    """One module's loads and calls, each typed as far as the rules
    reach."""

    def __init__(self, scan, module):
        self.scan = scan
        self.module = module
        self.silent = silent_strings(module.tree)
        self.called = set()   # ids of the callee expressions of calls

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
        if owner:
            env["__class__"] = instance(owner)   # what super() starts from
        for expr in (*args.defaults, *node.decorator_list,
                     *filter(None, args.kw_defaults)):
            self.read_all(expr, env)
        self.scope(node.body, env, owner)

    # -- types ---------------------------------------------------------------- #
    def type_of(self, node, env):
        scan = self.scan
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in scan.classes:
                return instance(node.id)
            return scan.constant(node.id)
        if isinstance(node, ast.Attribute):
            return scan.attribute(self.type_of(node.value, env),
                                  node.attr) or scan.constant(node.attr)
        if isinstance(node, ast.Subscript):
            kind = self.type_of(node.value, env)
            return kind if isinstance(node.slice, ast.Slice) \
                else element(kind)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return sequence(frozenset().union(
                *(self.type_of(e, env) for e in node.elts)))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return sequence(self.type_of(node.elt, env))
        if isinstance(node, ast.IfExp):
            return self.type_of(node.body, env) | \
                self.type_of(node.orelse, env)
        if isinstance(node, ast.BoolOp):
            return frozenset().union(
                *(self.type_of(v, env) for v in node.values))
        if isinstance(node, LITERALS):
            return NONE if isinstance(node, ast.Constant) and \
                node.value is None else FOREIGN
        if not isinstance(node, ast.Call):
            return NONE
        func = node.func
        name = name_of(func)
        if name in scan.classes:
            return instance(name)
        if isinstance(func, ast.Name):
            if name == "super":
                return frozenset().union(*(
                    instance(base) for owner in classes_of(
                        env.get("__class__", NONE))
                    for info in scan.classes[owner] for base in info.bases
                    if base in scan.classes))
            if name in COPIES:
                return sequence(element(self.type_of(node.args[0], env))
                                if node.args else NONE)
            return FOREIGN if name in BUILTINS else scan.returns(name)
        if isinstance(func, ast.Attribute):
            receiver = self.type_of(func.value, env)
            if classes_of(receiver):
                return scan.attribute(receiver, name, returned=True)
            return scan.returns(name)
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
        elif isinstance(node, ast.Import):
            for alias in node.names:
                env[alias.asname or alias.name.split(".")[0]] = FOREIGN

    # -- reading -------------------------------------------------------------- #
    def read_all(self, expr, env):
        for node in walk(expr):
            self.read(node, env)

    def read(self, node, env):
        scan = self.scan
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load):
            scan.names.add(name_of(node))
            if id(node) not in self.called:
                scan.values.add(name_of(node))
            if isinstance(node, ast.Attribute):
                self.read_member(node.value, node.attr, env)
        elif isinstance(node, ast.Constant) and isinstance(
                node.value, str) and id(node) not in self.silent:
            scan.names.add(node.value)
            self.read_untyped(node.value)
        elif isinstance(node, ast.Call):
            self.read_call(node, env)

    def read_member(self, value, attr, env):
        """Record ``value.attr`` against the classes that own it."""
        scan = self.scan
        holders = scan.holders(attr)
        if not holders:
            return
        kind = self.type_of(value, env)
        if kind and not classes_of(kind):
            return   # a receiver outside repro: a dict, a list, a literal
        if not [scan.credit(name, attr) for name in classes_of(kind)
                if scan.credit(name, attr)]:
            self.read_untyped(attr)

    def read_untyped(self, attr):
        """Record a read of ``attr`` on an untyped receiver, or spelt as
        a string: on the classes this module names."""
        for name in self.scan.holders(attr):
            if name in self.module.named:
                self.scan.credit(name, attr)

    def read_call(self, node, env):
        """Record which parameters ``node`` may set."""
        scan = self.scan
        func = node.func
        self.called.add(id(func))
        name = name_of(func)
        keywords = frozenset(k.arg for k in node.keywords if k.arg)
        if name == "cls" or name == "__init__":
            callees = classes_of(self.type_of(
                func if name == "cls" else func.value, env))
        else:
            callees = [name] if name in scan.callable else []
        if not callees:
            scan.keywords.update(keywords)
            return
        call = Call(keywords, sum(not isinstance(a, ast.Starred)
                                  for a in node.args),
                    any(isinstance(a, ast.Starred) for a in node.args)
                    or len(keywords) < len(node.keywords))
        for callee in callees:
            scan.calls.setdefault(callee, []).append(call)


@cache
def scan():
    return Scan()


def unread(result):
    """Every public definition in ``src/repro`` that nothing reads."""
    return sorted(
        key for key, (name, owner) in result.defined.items()
        if ((owner.key, name) not in result.member_reads if owner
            else name not in result.names))


def unset(result):
    """Every defaulted parameter in ``src/repro`` that no call outside
    tests sets.  A call the scan cannot name reaches only a function
    that escapes: one whose name is loaded other than to call it, or
    that a decorator call receives."""

    def sets(option, call):
        return call.star or option.name in call.keywords or (
            option.index is not None and call.positional > option.index)

    return sorted(
        option.key for option in result.options
        if not (option.name in result.keywords and (
            option.escapes or option.callees & result.values)) and not any(
            sets(option, call) for callee in option.callees
            for call in result.calls.get(callee, ())))


def stale(allowed, result):
    """The allowlist entries that no longer exist, or that have gained a
    reader or a caller."""
    return sorted(set(allowed) - set(unread(result)) - set(unset(result)))


def test_scan_reads_the_whole_tree():
    result = scan()
    assert {"repro.api.facade", "repro.cluster.engine", "perfbench.run",
            "examples.quickstart", "benchmarks.bench_sim_speed"} <= {
        m.name for m in result.modules}
    assert "repro.api.facade.simulate" in result.defined
    assert "repro.api.facade.simulate(sim_cache=)" in {
        option.key for option in result.options}


def test_every_public_name_has_a_reader():
    missing = [key for key in unread(scan()) if key not in ALLOWED]
    assert not missing, (
        "public names in src/repro that nothing outside tests/ reads "
        "(delete them, or allowlist them with a reason):\n"
        + "\n".join(missing))


def test_every_defaulted_parameter_is_set():
    missing = [key for key in unset(scan()) if key not in ALLOWED]
    assert not missing, (
        "defaulted parameters in src/repro that no call outside tests/ "
        "sets (inline the default, or allowlist them with a reason):\n"
        + "\n".join(missing))


def test_allowlist_names_only_unread_definitions():
    entries = stale(ALLOWED, scan())
    assert not entries, (
        "allowlist entries that no longer exist or have a reader or a "
        "caller:\n" + "\n".join(entries))


# --------------------------------------------------------------------- #
# The rules, each on a throwaway tree: ``src/repro/mod.py`` defines and  #
# ``examples/use.py`` reads and calls.                                   #
# --------------------------------------------------------------------- #

def scan_tree(tmp_path, defines, uses=""):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(defines))
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "use.py").write_text(textwrap.dedent(uses))
    return Scan((package, examples), tmp_path / "src")


CACHE = """
    class Cache:
        def __init__(self):
            self._models: dict[str, int] = {}

        def clear(self):
            self._models.clear()
    """


def test_a_foreign_receiver_reads_no_method(tmp_path):
    """``self._models.clear()`` calls a dict's ``clear``, which keeps
    ``Cache.clear`` alive no more than a test calling it does."""
    result = scan_tree(tmp_path, CACHE, """
        from repro.mod import Cache
        Cache()
        """)
    assert unread(result) == ["repro.mod.Cache.clear"]


def test_a_typed_receiver_reads_its_class_method(tmp_path):
    result = scan_tree(tmp_path, CACHE, """
        from repro.mod import Cache
        cache = Cache()
        cache.clear()
        """)
    assert unread(result) == []


def test_a_property_is_read_per_class(tmp_path):
    """Another class's field of the same name reads no property."""
    result = scan_tree(tmp_path, """
        from dataclasses import dataclass

        class Result:
            @property
            def tokens_per_s(self) -> float:
                return 1.0

        @dataclass
        class Qos:
            tokens_per_s: float

        def measure() -> Qos:
            Result()
            return Qos(1.0)
        """, """
        from repro.mod import measure
        print(measure().tokens_per_s)
        """)
    assert unread(result) == ["repro.mod.Result.tokens_per_s"]


def test_a_read_through_a_base_class_reads_each_override(tmp_path):
    result = scan_tree(tmp_path, """
        class Base:
            def step(self):
                return 0

        class Child(Base):
            def step(self):
                return 1

        class Other:
            def step(self):
                return 2

        def advance(unit: Base):
            Other()
            return unit.step()
        """, """
        from repro.mod import Child, advance
        advance(Child())
        """)
    assert unread(result) == ["repro.mod.Other.step"]


def test_a_read_through_a_protocol_reads_every_definition(tmp_path):
    result = scan_tree(tmp_path, """
        from typing import Protocol

        class Policy(Protocol):
            def pick(self):
                ...

        class First:
            def pick(self):
                return 0

        class Last:
            def pick(self):
                return -1

        def route(policy: Policy):
            return policy.pick()
        """, """
        from repro.mod import First, Last, Policy, route
        policies: list[Policy] = [First(), Last()]
        for policy in policies:
            route(policy)
        """)
    assert unread(result) == []


def test_an_untyped_receiver_reads_only_the_classes_its_module_names(
        tmp_path):
    result = scan_tree(tmp_path, """
        class Named:
            def size(self):
                return 1

        class Unnamed:
            def size(self):
                return 2

        def make(which):
            return Named() if which else Unnamed()
        """, """
        from repro.mod import Named, make
        assert isinstance(make(1), Named)
        print(make(0).size())
        """)
    assert unread(result) == ["repro.mod.Unnamed.size"]


def test_a_string_reads_only_the_classes_its_module_names(tmp_path):
    result = scan_tree(tmp_path, """
        class Named:
            def size(self):
                return 1

        class Unnamed:
            def size(self):
                return 2

        def make(which):
            return Named() if which else Unnamed()
        """, """
        from repro.mod import Named, make
        assert isinstance(make(1), Named)
        print(getattr(make(0), "size")())
        """)
    assert unread(result) == ["repro.mod.Unnamed.size"]


def test_dunder_methods_are_exempt(tmp_path):
    result = scan_tree(tmp_path, """
        class Pool:
            def __len__(self):
                return 0
        """, """
        from repro.mod import Pool
        Pool()
        """)
    assert unread(result) == []


ARRIVALS = """
    def iter_requests(rate, start_time=0.0):
        return [start_time + rate]
    """


@pytest.mark.parametrize("call", [
    "iter_requests(2.0)",
    "iter_requests(rate=2.0)",
    "iter_requests(*[2.0])",
    "iter_requests(2.0, 1.0)",
    "iter_requests(2.0, start_time=1.0)",
    "iter_requests(**{'rate': 2.0})",
])
def test_a_parameter_is_set_by_position_keyword_or_star(tmp_path, call):
    result = scan_tree(tmp_path, ARRIVALS,
                       f"from repro.mod import iter_requests\n{call}\n")
    sets = "*" in call or "1.0" in call
    assert unset(result) == ([] if sets
                             else ["repro.mod.iter_requests(start_time=)"])


def test_constructor_calls_set_init_parameters(tmp_path):
    """The class name, ``cls(...)``, ``super().__init__(...)`` and a
    subclass that inherits ``__init__`` all reach it."""
    result = scan_tree(tmp_path, """
        class Base:
            def __init__(self, width=1, depth=1, lanes=1, units=1):
                self.shape = (width, depth, lanes, units)

            @classmethod
            def deep(cls):
                return cls(depth=4)

        class Leaf(Base):
            pass

        class Wide(Base):
            def __init__(self):
                super().__init__(8)
        """, """
        from repro.mod import Base, Leaf, Wide
        Base.deep().shape
        Leaf(lanes=2).shape
        Wide().shape
        """)
    assert unset(result) == ["repro.mod.Base.__init__(units=)"]


def test_an_unnamed_callee_sets_only_escaping_functions(tmp_path):
    """``RUNNERS[name](..., flag=True)`` reaches the runner the table
    holds, not a function no value ever names."""
    result = scan_tree(tmp_path, """
        def run_listed(x, flag=False):
            return x, flag

        def run_unlisted(x, flag=False):
            return x, flag

        RUNNERS = {"listed": run_listed}

        def simulate(name):
            run_unlisted(0)
            return RUNNERS[name](1, flag=True)
        """, """
        from repro.mod import simulate
        simulate("listed")
        """)
    assert unset(result) == ["repro.mod.run_unlisted(flag=)"]


def test_an_allowlist_entry_goes_stale(tmp_path):
    """An entry for a name that is gone, or that gained a reader or a
    caller, is stale; one for a name still unread or unset is not."""
    result = scan_tree(tmp_path, CACHE + ARRIVALS, """
        from repro.mod import Cache, iter_requests
        Cache()
        iter_requests(2.0, start_time=1.0)
        """)
    allowed = {"repro.mod.Cache.clear": "unread",
               "repro.mod.Cache.evict": "gone",
               "repro.mod.iter_requests(start_time=)": "gained a caller",
               "repro.mod.iter_requests(rate=)": "not an option"}
    assert stale(allowed, result) == [
        "repro.mod.Cache.evict", "repro.mod.iter_requests(rate=)",
        "repro.mod.iter_requests(start_time=)"]
