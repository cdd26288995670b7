"""No handler in the package catches OverflowError.

Python raises OverflowError where a float or complex power leaves the
double range; numpy arithmetic gives inf there, and every layer checks
its results for non-finite entries and names the failure.  A handler for
OverflowError, or for its base ArithmeticError, would be a second
overflow path beside that check.  A static pass over the source finds
every such handler.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gevrey_kit"


def caught() -> dict[str, set[str]]:
    """{"module.py:line": the exception names it catches} of every
    handler in the package that names its exceptions."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                out[f"{path.name}:{node.lineno}"] = {
                    t.id if isinstance(t, ast.Name) else t.attr
                    for t in types if isinstance(t, (ast.Name, ast.Attribute))}
    return out


def test_the_pass_sees_handlers():
    # a pass that finds no handler would pass the test below vacuously
    assert any("ValueError" in names for names in caught().values())


def test_no_handler_catches_overflow():
    found = sorted(where for where, names in caught().items()
                   if names & {"OverflowError", "ArithmeticError"})
    assert not found, f"handlers that catch OverflowError: {found}"
