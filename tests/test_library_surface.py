"""The library holds what the CLI, the benchmark and the paper's claims call.

Roots are the CLI entry point `cli.main`, the attributes the benchmark
workloads take from pstnet modules, and PAPER_CLAIMS, the functions that
reproduce a claim of the paper for library callers.  A top-level function
or class of `src/pstnet` is reached when its name appears in a reached
definition, or in a module-level statement other than an import (which
runs on import).  Names are matched across modules, so a definition that
shares a name with a reached one counts as reached.

The names `pstnet/__init__.py` exports are not roots: each of them must be
reached from the roots as well, so the package exports nothing that only
the tests call.  Oracles and builders that only tests call live in
`tests/oracles.py` or in the test that uses them.
"""

import ast
from pathlib import Path

import pstnet

PACKAGE = Path(pstnet.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
PAPER_CLAIMS = (
    "find_subhypercube",        # the induced sub-hypercube for PST between any two vertices
    "grow", "widen_labels",     # the growing network
    "swap_baseline",            # PST against a cascade of SWAP gates
    "classify_neighborhood",    # the vertices one or two jumps away
    "column_project",           # the hypercube projected on its distance columns
    "corona_spectrum", "corona_seed_spectrum",   # signed-corona spectra
    "unitarity_audit", "qudit_transfer",         # the qudit unitarity error
    "three_body_oracle",        # transmon realizability
)


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


def surface() -> tuple[dict, set[str], set[str]]:
    """(definitions by name as [(module, node), ...], the reached names, the
    exported names) of the package."""
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.name for node in modules["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    benchmarked = {node.attr for node in ast.walk(_parse(WORKLOADS))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in {*modules, "pstnet"}}
    pending = {"main", *benchmarked, *PAPER_CLAIMS}
    bodies = {}
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
    return bodies, reached, exported


def test_every_library_definition_is_reached_by_a_caller():
    bodies, reached, _ = surface()
    unreached = sorted(f"{stem}.{name}" for name, defs in bodies.items()
                       if name not in reached for stem, _ in defs)
    assert not unreached, "reached by no CLI command, benchmark call or paper claim: " + \
        ", ".join(unreached)


def test_every_export_is_reached_by_a_caller():
    _, reached, exported = surface()
    unreached = sorted(exported - reached)
    assert not unreached, "exported but reached by no CLI command, benchmark call " \
        "or paper claim: " + ", ".join(unreached)
