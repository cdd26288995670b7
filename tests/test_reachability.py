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
interpreter calls them.  The pass over-approximates what runs, so a
definition that it does not reach is dead code for the command line.

UNREACHED pins those definitions, each with the reason it is kept:

* ``tracer``: the benchmark's tracer (perfbench/tracer.py) wraps it, or a
  name it wraps needs it;
* ``test-reference``: an oracle, a brute-force reference or a helper that
  the tests (and the benchmark's problem files) are built on;
* ``paper-check``: a statement of the paper checked through the library
  API and the tests, not by a subcommand.

New dead code fails the test; a change that wires a name into a
subcommand, or deletes it, takes it off the list.
"""
import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gevrey_kit"

REASONS = {"tracer", "test-reference", "paper-check"}

UNREACHED = {
    "consistency.CrossReport": "paper-check",
    "consistency.cross_consistency": "paper-check",
    "consistency.eps_taylor_of_z_coeffs": "paper-check",
    "consistency.limit_to_a0": "paper-check",
    "epssolver._blocks0": "tracer",
    "epssolver.build_T0": "tracer",
    "epssolver.contraction_estimate": "paper-check",
    "epssolver.solve_ai": "tracer",
    "errors.BranchCutError": "test-reference",
    "errors.RadiiInfeasibleError": "paper-check",
    "gevrey.NagumoNorm": "paper-check",
    "gevrey._weighted": "paper-check",
    "gevrey.nagumo_norm": "paper-check",
    "gevrey.nagumo_property_suite": "paper-check",
    "problem.NormalizationShift": "paper-check",
    "problem.normalize_shift": "paper-check",
    "problem.problem_to_dict": "test-reference",
    "problem.problem_to_json": "test-reference",
    "riccati.phi0": "test-reference",
    "sector.ResolventReport": "paper-check",
    "sector.SectorSpec": "paper-check",
    "sector.radius_estimates": "paper-check",
    "sector.resolvent_bound": "paper-check",
    "series.LemmaConvReport": "paper-check",
    "series.MatSeries": "tracer",
    "series.compositions": "test-reference",
    "series.lemma_conv_bound": "paper-check",
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


def unreached() -> set[str]:
    defs, scopes = package_definitions()
    by_name = defaultdict(list)
    for key in defs:
        by_name[key[1]].append(key)

    def resolve(key):
        # follow re-exports to the module that defines the name
        while key is not None and key not in defs:
            key = scopes[key[0]].get(key[1])
        return key

    # the interpreter calls dunder functions, such as the package's
    # __getattr__, without naming them
    todo = [key for key in defs
            if key[0] == "cli" and (key[1] == "main" or key[1].startswith("_cmd_"))
            or key[1].startswith("__") and isinstance(defs[key], ast.FunctionDef)]
    seen = set(todo)
    while todo:
        mod, name = todo.pop()
        for node in ast.walk(defs[mod, name]):
            if isinstance(node, ast.Name):
                targets = [resolve(scopes[mod].get(node.id))]
            elif isinstance(node, ast.Attribute):
                targets = by_name.get(node.attr, [])
            else:
                continue
            for key in targets:
                if key is not None and key not in seen:
                    seen.add(key)
                    todo.append(key)
    return {f"{mod}.{name}" for (mod, name), node in defs.items()
            if (mod, name) not in seen
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


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
