"""Compare two report directories written by ``tests/snapshot_reports.py``
number by number.

    python tests/compare_reports.py DIR_A DIR_B

``diff -r`` says only that two reports differ.  This script says by how
much.  Both directories must hold the same files with the same text, apart
from numbers: the same ``exit_codes.txt``, the same JSON keys and array
lengths, the same CSV rows and columns, and the same strings, nulls and
booleans.  Any other difference is structural.  It is printed, and the
script exits 1.  For each file that is not byte-identical it prints the
largest relative change |a - b| / max(|a|, |b|) of its numbers, and how
many of them moved, and the largest change of each field (the innermost
JSON key, or the CSV column) that moved.
A change between a finite and a non-finite number counts as inf.  A last
line gives the largest change over all files.  The file name does not
start with ``test_``, so pytest does not collect it.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


class Structural(Exception):
    """The two files differ in more than their numbers."""


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _walk(a, b, where: str, field: str, out: list[tuple[str, float]]) -> None:
    """Append (field, relative change) of every pair of numbers in two JSON
    values; the field of a number is the innermost key above it."""
    if _is_number(a) and _is_number(b):
        out.append((field, _rel(float(a), float(b))))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            raise Structural(f"{where}: keys {list(a)} != {list(b)}")
        for key in a:
            _walk(a[key], b[key], f"{where}.{key}", key, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Structural(f"{where}: lengths {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", field, out)
    elif type(a) is not type(b) or a != b:
        raise Structural(f"{where}: {a!r} != {b!r}")


def _csv_changes(a: str, b: str) -> list[tuple[str, float]]:
    """(column header, relative change) of every pair of numeric cells."""
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise Structural("rows or columns differ")
    out = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                if x != y:
                    raise Structural(f"row {i}, column {j}: {x!r} != {y!r}")
            else:
                out.append((rows_a[0][j], _rel(nx, ny)))
    return out


def changes(a: Path, b: Path) -> list[tuple[str, float]] | None:
    """(field, relative change) of every number of two files, in order;
    None when the files are byte-identical."""
    text_a, text_b = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
    if text_a == text_b:
        return None
    if a.suffix == ".json":
        out: list[tuple[str, float]] = []
        _walk(json.loads(text_a), json.loads(text_b), "", "", out)
        return out
    if a.suffix == ".csv":
        return _csv_changes(text_a, text_b)
    raise Structural("the texts differ")


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the comparison and return the exit code: 1 on any structural
    difference, else 0."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        print(f"file lists differ: only in A {sorted(set(names_a) - set(names_b))}, "
              f"only in B {sorted(set(names_b) - set(names_a))}")
        return 1
    code, worst, worst_name, identical = 0, 0.0, None, 0
    for name in names_a:
        try:
            rel = changes(dir_a / name, dir_b / name)
        except Structural as e:
            print(f"{name}: structural difference: {e}")
            code = 1
            continue
        if rel is None:
            identical += 1
            continue
        by_field: dict[str, float] = {}
        for field, r in rel:
            if r:
                by_field[field] = max(r, by_field.get(field, 0.0))
        top = max(by_field.values(), default=0.0)
        moved = sum(1 for _, r in rel if r)
        print(f"{name}: {moved} of {len(rel)} numbers differ, largest relative change "
              f"{top:.3g}; by field: "
              + ", ".join(f"{f} {r:.3g}" for f, r in sorted(by_field.items())))
        if worst_name is None or top > worst:
            worst, worst_name = top, name
    print(f"{identical} of {len(names_a)} files byte-identical; largest relative change "
          + (f"{worst:.3g} in {worst_name}" if worst_name else "0"))
    return code


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/compare_reports.py DIR_A DIR_B")
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
