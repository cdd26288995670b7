"""Which top-level functions and classes of the package no subcommand
reaches.

A static pass over the source: it starts from `main` and the `_cmd_*`
functions of `cli.py` and follows every name and attribute that a reached
definition mentions.  A name resolves to a top-level definition of its own
module, or to one that the module imports from the package (`from .x
import y`, anywhere in the module); an attribute resolves to every
top-level definition of that name in the package.  Module-level
assignments are followed like definitions, and dunder functions (the
package's `__getattr__` and `__dir__`) are roots too, since the
interpreter calls them.  An exception class is reached only where reached
code raises it, or as a base of a reached exception class: naming it in
an `except`, a tuple or a dict does not count, since no run can then
meet it.  The pass over-approximates what runs, so a definition that it
does not reach is dead code for the command line.

UNREACHED pins those definitions, each with the reason it is kept:

* ``tracer``: the benchmark's tracer (perfbench/tracer.py) wraps it, or a
  name it wraps needs it;
* ``benchmark``: the benchmark's own files (perfbench/*.py) import it, or a
  name they import needs it;
* ``paper-check``: a statement of the paper checked through the library
  API and the tests, not by a subcommand.

Oracles that only the tests call live in tests/oracles.py, outside the
package.  New dead code fails the test; a change that wires a name into a
subcommand, or deletes it, takes it off the list.  The ``tracer`` and
``benchmark`` reasons are checked too: the same pass, started from the
names the tracer wraps or from those perfbench imports, must reach each
pin that carries them, so a pin goes when its target does.
"""
import ast
import builtins
from collections import defaultdict
from pathlib import Path

import pytest
from test_tracer_targets import tracer_lists

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gevrey_kit"
PERFBENCH = ROOT / "perfbench"

REASONS = {"tracer", "benchmark", "paper-check"}

UNREACHED = {
    "epssolver._blocks0": "tracer",
    "epssolver.build_T0": "tracer",
    "epssolver.solve_ai": "tracer",
    "errors.VarMismatchError": "tracer",
    "problem.NormalizationShift": "paper-check",
    "problem.normalize_shift": "paper-check",
    "problem.problem_to_dict": "benchmark",
    "problem.problem_to_json": "benchmark",
    "series.MatSeries": "tracer",
    "series.mat_series_inverse": "tracer",
}


def package_definitions():
    """{(module, name): node} of the top-level definitions and assignments,
    and {module: {local name: (module, name)}} of what each module binds."""
    defs, scopes = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = scopes[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs[mod, name] = node
                scope[name] = (mod, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    scope.setdefault(alias.asname or alias.name, (node.module, alias.name))
    return defs, scopes


def reach(roots) -> set[str]:
    """The definitions, as "module.name", that the pass reaches from the
    (module, name) pairs `roots`, the roots included."""
    defs, scopes = package_definitions()
    by_name = defaultdict(list)
    for key in defs:
        by_name[key[1]].append(key)

    def resolve(key):
        # follow re-exports to the module that defines the name
        while key is not None and key not in defs:
            key = scopes[key[0]].get(key[1])
        return key

    def is_exception(key) -> bool:
        node = defs[key]
        if not isinstance(node, ast.ClassDef):
            return False
        for base in node.bases:
            if not isinstance(base, ast.Name):
                continue
            builtin = getattr(builtins, base.id, None)
            if isinstance(builtin, type) and issubclass(builtin, BaseException):
                return True
            home = resolve(scopes[key[0]].get(base.id))
            if home is not None and is_exception(home):
                return True
        return False

    todo = [key for key in map(resolve, roots) if key is not None]
    seen = set(todo)
    while todo:
        mod, name = todo.pop()
        tree = defs[mod, name]
        # the nodes through which an exception class is reached: what a
        # raise raises, and the bases of a reached exception class
        raising = {id(n.exc.func if isinstance(n.exc, ast.Call) else n.exc)
                   for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc}
        if is_exception((mod, name)):
            raising |= {id(base) for base in tree.bases}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                targets = [resolve(scopes[mod].get(node.id))]
            elif isinstance(node, ast.Attribute):
                targets = by_name.get(node.attr, [])
            else:
                continue
            for key in targets:
                if key is None or key in seen:
                    continue
                if is_exception(key) and id(node) not in raising:
                    continue
                seen.add(key)
                todo.append(key)
    return {f"{mod}.{name}" for mod, name in seen}


def unreached() -> set[str]:
    defs, _ = package_definitions()
    # the interpreter calls dunder functions, such as the package's
    # __getattr__, without naming them
    reached = reach(key for key in defs
                    if key[0] == "cli" and (key[1] == "main" or key[1].startswith("_cmd_"))
                    or key[1].startswith("__") and isinstance(defs[key], ast.FunctionDef))
    return {f"{mod}.{name}" for (mod, name), node in defs.items()
            if f"{mod}.{name}" not in reached
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def tracer_roots() -> set[tuple[str, str]]:
    """(module, name) of every function and class the tracer wraps."""
    lists = tracer_lists()
    return {(mod, name) for mod, name, *_ in
            lists["SPANNED"] + lists["AGGREGATED"] + lists["AGGREGATED_METHODS"]}


def benchmark_roots() -> set[tuple[str, str]]:
    """(module, name) of every name that perfbench/*.py imports from a
    submodule of the package."""
    roots = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gevrey_kit."):
                roots |= {(node.module.split(".")[1], alias.name) for alias in node.names}
    return roots


def test_the_pass_reaches_the_solvers():
    # a pass that stops early would call everything dead
    reached = {"epssolver._jets_at", "series.solve_triangular", "zsolver.solve_coeffs_z",
               "borel.laplace_sum", "gevrey.remainder_profile"}
    assert not reached & unreached()


def test_unreached_definitions_are_pinned():
    found = unreached()
    assert not found - set(UNREACHED), f"no subcommand reaches {sorted(found - set(UNREACHED))}"
    assert not set(UNREACHED) - found, f"now reached or gone: {sorted(set(UNREACHED) - found)}"


def test_every_reason_is_known():
    assert set(UNREACHED.values()) <= REASONS


@pytest.mark.parametrize("reason, roots", [("tracer", tracer_roots),
                                           ("benchmark", benchmark_roots)])
def test_pins_keep_their_reason(reason, roots):
    reached = reach(roots())
    stale = sorted(name for name, why in UNREACHED.items()
                   if why == reason and name not in reached)
    assert not stale, f"pinned as {reason!r}, but no longer needed by it: {stale}"
