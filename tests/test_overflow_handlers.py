"""No handler in the package catches OverflowError, and no code raises a
builtin arithmetic error.

Python raises OverflowError where a float or complex power leaves the
double range; numpy arithmetic gives inf there, and every layer checks
its results for non-finite entries and names the failure.  A handler for
OverflowError, or for its base ArithmeticError, would be a second
overflow path beside that check.  A raise of ArithmeticError or one of
its builtin subclasses would be a failure that is not a `GevreyKitError`,
which the command line maps to no exit code of its own.  A static pass
over the source finds every such handler and raise.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gevrey_kit"

#: the builtin arithmetic errors
ARITHMETIC = {"ArithmeticError", "OverflowError", "ZeroDivisionError", "FloatingPointError"}


def _names(node: ast.AST | None) -> set[str]:
    """The exception names of a handler's type or a raise's exception:
    `X`, `mod.X`, `X(...)` or a tuple of them."""
    if isinstance(node, ast.Call):
        node = node.func
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}


def _found(kind: type, field: str) -> dict[str, set[str]]:
    """{"module.py:line": the exception names in `field`} of every `kind`
    node in the package whose `field` is set."""
    return {f"{path.name}:{node.lineno}": _names(getattr(node, field))
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, kind) and getattr(node, field) is not None}


def caught() -> dict[str, set[str]]:
    """{"module.py:line": the exception names it catches} of every
    handler in the package that names its exceptions."""
    return _found(ast.ExceptHandler, "type")


def raised() -> dict[str, set[str]]:
    """{"module.py:line": the exception names it raises} of every raise in
    the package that names its exception."""
    return _found(ast.Raise, "exc")


def test_the_pass_sees_handlers():
    # a pass that finds no handler would pass the test below vacuously
    assert any("ValueError" in names for names in caught().values())


def test_no_handler_catches_overflow():
    found = sorted(where for where, names in caught().items()
                   if names & {"OverflowError", "ArithmeticError"})
    assert not found, f"handlers that catch OverflowError: {found}"


def test_the_pass_sees_raises():
    # a pass that finds no raise would pass the test below vacuously
    assert any("GevreyKitError" in names for names in raised().values())


def test_no_code_raises_a_builtin_arithmetic_error():
    found = sorted(where for where, names in raised().items() if names & ARITHMETIC)
    assert not found, f"raises of builtin arithmetic errors: {found}"
