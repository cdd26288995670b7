"""List the lines of the package that a pytest run never executes.

    python tests/line_coverage.py [PYTEST_ARGS...]

Runs pytest in this process (by default on the tests next to this script)
under `sys.settrace`, tracing only frames whose code lives in
``src/gevrey_kit`` of the checkout that holds the script, and prints
``module.py:line`` for every executable line that never ran, then a count.
A line is executable when the compiled module maps a bytecode instruction
to it, in the module body or in any function or class body nested in it.
The exit code is pytest's.

The trace sees only this interpreter.  The tests that start a fresh one
(tests/test_startup.py runs the command line and imports the package in
child processes) leave their lines unseen, so the ``__main__`` lines at
the end of ``cli.py`` and two lines of ``__init__.py``'s ``__getattr__``
and ``__dir__`` show up although a child runs them.  The package is
imported after the trace starts, so its module-level lines count.  The
file name does not start with ``test_``, so pytest does not collect it.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gevrey_kit"


def executable_lines(path: Path) -> set[int]:
    """The lines that a bytecode instruction of the module at `path` maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run, package: Path) -> tuple[object, dict[str, set[int]]]:
    """Call `run()` under a trace of the frames whose file lies in
    `package`; returns its result and {file: lines that ran}."""
    prefix = str(package) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, ran


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    code, ran = traced(lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])]), PACKAGE)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sorted(executable_lines(path) - ran.get(str(path), set()))
        for line in lines:
            print(f"{path.name}:{line}")
        missed += len(lines)
    print(f"{missed} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
