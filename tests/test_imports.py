"""Import hygiene of ``src/repro``, checked on the source with ``ast``.

* Every import of a package outside the standard library names a
  ``[project].dependencies`` entry of ``pyproject.toml``, so
  ``import repro`` works wherever only the declared packages exist.
* Imports point one way: only ``repro.api`` itself, the package root
  and the CLI import ``repro.api``.  The layers the facade dispatches
  to never reach back up into it, at module level or inside a function.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src"
MODULES = sorted((SOURCE / "repro").rglob("*.py"))

#: the front end: the only modules that may import ``repro.api``
FRONT_END = ("repro/api/", "repro/__init__.py", "repro/cli.py")


def relative(path):
    return path.relative_to(SOURCE).as_posix()


def imports(path):
    """``(line, module)`` for every import statement in one file, with
    relative imports resolved; a ``from M import name`` also yields
    ``M.name``, since ``name`` may be a submodule."""
    parts = path.relative_to(SOURCE).with_suffix("").parts
    package = parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[:len(package) - node.level + 1]
                module = ".".join((*base, module) if module else base)
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def declared_dependencies():
    project = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s<>=!~;\[(]", entry, maxsplit=1)[0]
            .lower().replace("-", "_")
            for entry in project.get("dependencies", [])}


def test_scan_covers_the_package():
    names = {relative(path) for path in MODULES}
    assert {"repro/__init__.py", "repro/api/facade.py",
            "repro/models/graph.py"} <= names


def test_third_party_imports_are_declared_dependencies():
    declared = declared_dependencies()
    undeclared = sorted({
        f"{relative(path)}:{line}: {module}"
        for path in MODULES
        for line, module in imports(path)
        if (top := module.split(".")[0]) != "repro"
        and top not in sys.stdlib_module_names
        and top.lower() not in declared})
    assert not undeclared, (
        "imports of packages pyproject.toml does not declare:\n"
        + "\n".join(undeclared))


def test_only_the_front_end_imports_repro_api():
    upward = sorted({
        f"{relative(path)}:{line}: {module}"
        for path in MODULES
        if not relative(path).startswith(FRONT_END)
        for line, module in imports(path)
        if module == "repro.api" or module.startswith("repro.api.")})
    assert not upward, (
        "modules below the facade importing repro.api:\n"
        + "\n".join(upward))
