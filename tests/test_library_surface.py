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

Options follow the same rule.  Every defaulted parameter of a function of
`src/pstnet`, methods and nested functions included, must be passed, by
position or by keyword, in some call of the library or of the benchmark
workloads, so no option exists for the tests alone.  Callees match by name,
a class call counts for its `__init__`, both branches of a conditional
callee count, and a call with *args or **kwargs counts for every parameter
it may fill.  The PAPER_CLAIMS roots are exempt: their signatures are the
claims' inputs.

Fields follow it too.  Every annotated field of a dataclass or NamedTuple
of `src/pstnet`, and every property, must be read as an attribute, matched
by name, somewhere in `src/pstnet` or in the benchmark's workloads and
tracer, so no result carries a value for the tests alone.  The classes a
PAPER_CLAIMS function returns are exempt: their fields are the claims'
outputs.

Required parameters follow it too.  No required parameter of a function of
`src/pstnet` may get the same literal, or the same module-level constant of
`src/pstnet`, at every call of the library and of the benchmark workloads:
such a parameter is a constant its callers repeat, not an input.  Callees
and positions match as for options; an argument that is any other
expression, or a call whose *args or **kwargs may fill the parameter,
counts as a value that varies.  The PAPER_CLAIMS roots are exempt.
"""

import ast
import math
from pathlib import Path

import pstnet

PACKAGE = Path(pstnet.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TRACING = WORKLOADS.parent / "tracing.py"
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
    "coupling_report",          # the coupler-formula table, eta_ij among it
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


def _callees(func: ast.expr) -> set[str]:
    """Names a call may reach: the name called, or both branches of a
    conditional callee."""
    if isinstance(func, ast.IfExp):
        return _callees(func.body) | _callees(func.orelse)
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    return set()


def _parameters(node: ast.AST, prefix: str, owner=None):
    """Yield (qualified name, callee name, {parameter: (call position or None,
    defaulted)}) for each function under node; a method's positions skip
    self, which it does not list, and its `__init__` is called by its class
    name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _parameters(child, f"{prefix}{child.name}.", child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            offset = int(owner is not None)
            params = {a.arg: (i - offset, i >= first)
                      for i, a in enumerate(positional) if i >= offset}
            params |= {a.arg: (None, d is not None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)}
            callee = owner if child.name == "__init__" else child.name
            yield f"{prefix}{child.name}", callee, params
            yield from _parameters(child, f"{prefix}{child.name}.")


def test_every_option_is_set_by_a_caller():
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    passed = {}    # callee name -> [(positional argument count, keywords)]
    for tree in (*modules.values(), _parse(WORKLOADS)):
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                count = math.inf if starred else len(call.args)
                keywords = {k.arg for k in call.keywords}   # None for **kwargs
                for name in _callees(call.func):
                    passed.setdefault(name, []).append((count, keywords))
    unset = []
    for stem, tree in modules.items():
        for qualified, callee, params in _parameters(tree, f"{stem}."):
            defaulted = {name: position for name, (position, has_default) in params.items()
                         if has_default}
            if not defaulted or callee in PAPER_CLAIMS:
                continue
            calls = passed.get(callee, [])
            missing = [name for name, position in defaulted.items()
                       if not any(name in keywords or None in keywords
                                  or (position is not None and position < count)
                                  for count, keywords in calls)]
            if missing:
                unset.append(f"{qualified}({', '.join(missing)})")
    assert not unset, "options no library or benchmark call sets: " + ", ".join(unset)


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass (decorated, with or without arguments) or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return ("dataclass" in set().union(*map(_names, decorators))
            or "NamedTuple" in set().union(*map(_names, node.bases)))


def _fields(node: ast.ClassDef):
    """The annotated fields of a record class and the properties of any class."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and _is_record(node):
            yield item.target.id
        elif isinstance(item, ast.FunctionDef) and \
                {"property", "cached_property"} & set().union(*map(_names, item.decorator_list)):
            yield item.name


def test_every_field_is_read_by_a_caller():
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = {node.attr for tree in (*modules.values(), _parse(WORKLOADS), _parse(TRACING))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    claimed = set()
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in PAPER_CLAIMS and node.returns:
                claimed |= _names(node.returns)
    unread = sorted(f"{node.name}.{name}" for tree in modules.values()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name not in claimed
                    for name in _fields(node) if name not in read)
    assert not unread, "fields no library or benchmark code reads: " + ", ".join(unread)


def _fixed_value(node: ast.expr, constants: set[str]):
    """A key for an argument that is a literal or a library constant, else None."""
    if isinstance(node, ast.Name) and node.id in constants:
        return ("constant", node.id)
    if isinstance(node, ast.Attribute) and node.attr in constants:
        return ("constant", node.attr)
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return ("literal", type(value).__name__, repr(value))


def _argument(call: ast.Call, name: str, position):
    """The argument a call passes for a parameter, or None where it passes
    none that can be read: not given, or behind *args or **kwargs."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if position is not None and position < len(call.args) and not any(
            isinstance(a, ast.Starred) for a in call.args[:position + 1]):
        return call.args[position]
    return None


def test_no_required_parameter_gets_one_fixed_value_at_every_call():
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    constants = {target.id for tree in modules.values() for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name)}
    calls = {}    # callee name -> [ast.Call]
    for tree in (*modules.values(), _parse(WORKLOADS)):
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                for name in _callees(call.func):
                    calls.setdefault(name, []).append(call)
    fixed = []
    for stem, tree in modules.items():
        for qualified, callee, params in _parameters(tree, f"{stem}."):
            if callee in PAPER_CLAIMS or callee not in calls:
                continue
            same = []
            for name, (position, has_default) in params.items():
                if has_default:
                    continue
                values = set()
                for call in calls[callee]:
                    arg = _argument(call, name, position)
                    values.add(None if arg is None else _fixed_value(arg, constants))
                if len(values) == 1 and None not in values:
                    same.append(name)
            if same:
                fixed.append(f"{qualified}({', '.join(same)})")
    assert not fixed, "required parameters every library or benchmark call fixes: " + \
        ", ".join(fixed)
