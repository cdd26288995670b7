"""Only `series` picks the arithmetic, decides when a matrix is singular
and takes a 2-norm.

`series._working` picks complex128 or the current mpmath precision,
`series._checked_inverse` inverts a matrix or refuses it as singular by
one relative test, and `series._norm2` takes every 2-norm, scaled exactly
by a power of two so that it does not depend on how large the numbers
are.  A module that uses mpmath, takes a norm, or inverts, factors or
solves with a matrix through numpy.linalg by itself, keeps a rule of its
own beside them.  A static pass over the source finds every such use, and
each one outside `series` says in `ALLOWED` why it stays.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gevrey_kit"

#: the numpy.linalg routines that take a norm, invert, factor or solve, which
#: only `series` calls without a reason in `ALLOWED`
LINALG = {"norm", "inv", "svd", "solve", "det", "eig", "eigvals", "lstsq", "pinv", "qr",
          "cholesky"}

#: (module, enclosing function, routine) of the uses outside `series` that stay
ALLOWED = {
    # the z-recursion inverts every eps*k*I - A01 of a batch at once, with no
    # singularity test: resonance is its spectral verdict, and the residual
    # of every step stands behind the inverse
    ("zsolver.py", "solve_coeffs_z", "numpy.linalg.inv"),
    # the spectrum of every A01(eps) of a batch at once, the z-recursion's
    # resonance verdict
    ("zsolver.py", "solve_coeffs_z", "numpy.linalg.eigvals"),
    # the spectrum of the linear block, the ray condition's input; LAPACK's
    # eigenvalues are backward stable and need no check of their own
    ("sector.py", "spectrum", "numpy.linalg.eigvals"),
    # the Pade rank test, which the least-squares Pade of ROADMAP item 2
    # replaces
    ("borel.py", "_pade_component", "numpy.linalg.svd"),
    ("borel.py", "_pade_component", "numpy.linalg.solve"),
}


def _used(node: ast.AST) -> str | None:
    """"mpmath" or "numpy.linalg.<routine>" when `node` uses it, else None."""
    if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in node.names):
        return "mpmath"
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module.split(".")[0] == "mpmath":
            return "mpmath"
        if node.module == "numpy.linalg" and LINALG & {a.name for a in node.names}:
            return "numpy.linalg"
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "mpmath":
            return "mpmath"
        if (node.attr in LINALG and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            return f"numpy.linalg.{node.attr}"
    return None


def uses(path: Path) -> set[tuple[str, str, str]]:
    """(module, innermost enclosing function or "", what) of every use of
    mpmath or of a numpy.linalg routine of `LINALG` in one module."""
    out = set()

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            what = _used(child)
            if what:
                out.add((path.name, func, what))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_the_pass_sees_uses():
    # a pass that finds nothing would pass the test below vacuously
    series = uses(PACKAGE / "series.py")
    assert {("series.py", "_checked_inverse", "numpy.linalg.inv"),
            ("series.py", "_checked_inverse", "mpmath"),
            ("series.py", "_norm2", "numpy.linalg.norm"),
            ("series.py", "_working", "mpmath")} <= series
    found = set().union(*(uses(path) for path in PACKAGE.glob("*.py")))
    assert ALLOWED <= found


def test_only_series_picks_arithmetic_and_inverts():
    found = sorted(use for path in PACKAGE.glob("*.py") if path.name != "series.py"
                   for use in uses(path) - ALLOWED)
    assert not found, f"uses of mpmath or numpy.linalg outside series.py: {found}"
