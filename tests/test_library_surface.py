"""The library holds only what its callers reach.

Roots are the names `pstnet/__init__.py` exports, the CLI entry point
`cli.main`, and the attributes the benchmark workloads take from pstnet
modules.  A top-level function or class of `src/pstnet` is reached when its
name appears in a reached definition, or in a module-level statement other
than an import (which runs on import).  Names are matched across modules,
so a definition that shares a name with a reached one counts as reached.
"""

import ast
from pathlib import Path

import pstnet

PACKAGE = Path(pstnet.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    """Every identifier node reads: bare names and attribute names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def unreached_definitions() -> list[str]:
    """Sorted "module.name" of every top-level definition no root reaches."""
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.name for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    benchmarked = {node.attr for node in ast.walk(_parse(WORKLOADS))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in {*modules, "pstnet"}}
    pending = exported | {"main"} | benchmarked
    bodies = {}                       # name -> [(module, definition node), ...]
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                bodies.setdefault(node.name, []).append((stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                pending |= _names(node)
    reached = set()
    while pending:
        name = pending.pop()
        if name in bodies and name not in reached:
            reached.add(name)
            for _, node in bodies[name]:
                pending |= _names(node)
    return sorted(f"{stem}.{name}" for name, defs in bodies.items()
                  if name not in reached for stem, _ in defs)


def test_every_library_definition_is_reached_by_a_caller():
    unreached = unreached_definitions()
    assert not unreached, "reached by no export, CLI command or benchmark call: " + \
        ", ".join(unreached)
