"""Write the reports of a fixed set of command-line runs into one directory,
so that the reports of two checkouts can be compared with ``diff -r``.

    python tests/snapshot_reports.py OUTDIR

The package is imported from ``src/`` of the checkout that holds this
script.  Every run goes in-process through ``gevrey_kit.cli.main``:

* the seed-1 job list of each benchmark workload (riccati, conj8, cubic3),
  as perfbench/workloads.py builds it;
* ``check-sector --gamma 1.0`` on the problem of each workload;
* ``validate-riccati``.

That is 19 runs, each made twice: once writing ``NAME.json`` and once with
``--format csv`` writing ``NAME.csv`` (and, for ``diagnose``, its
``NAME_remainder.csv`` sidecar), so one ``diff -r`` compares both formats.
The problem files are written into OUTDIR and named by paths relative to
it, so no report depends on where OUTDIR is.  ``exit_codes.txt`` lists
every run by its output file with its exit code, which also covers a run
that exits 1 and so writes no report.  The file name does not start
with ``test_``, so pytest does not collect it.
"""
from __future__ import annotations

import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# the CLI sets the BLAS thread count before numpy loads
from gevrey_kit.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def runs() -> list[tuple[str, list[str]]]:
    """(report name, argv without --out) of every run, in order; writes
    the problem files into the working directory."""
    out = []
    for name, build in sorted(WORKLOADS.items()):
        inst = build(SEED, Path("."))
        if inst.problem_json is not None:
            Path(inst.source[1]).write_text(inst.problem_json, encoding="utf-8")
        out.append((f"{name}_check-sector", ["check-sector", "--gamma", "1.0", *inst.source]))
        for n, job in enumerate(inst.jobs):
            label = re.sub(r"[^\w.=-]+", "_", job.label)
            out.append((f"{name}_{n:02d}_{label}", [*job.argv, *inst.source]))
    out.append(("validate-riccati", ["validate-riccati"]))
    return out


def snapshot(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    codes = []
    for name, argv in runs():
        for out, fmt in ((name + ".json", []), (name + ".csv", ["--format", "csv"])):
            codes.append(f"{out} {main([*argv, *fmt, '--out', out])}\n")
    Path("exit_codes.txt").write_text("".join(codes), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/snapshot_reports.py OUTDIR")
    snapshot(Path(sys.argv[1]))
