"""Start-up of the package and of the command line, each in a fresh
interpreter: what `import gevrey_kit` loads, the BLAS thread count the CLI
sets before numpy loads, the cyclic garbage collector that only the
`python -m gevrey_kit.cli` process switches off, and that entry point
against in-process `cli.main`, and the quick start of README.md."""
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gevrey_kit
from gevrey_kit.cli import main

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(gevrey_kit.__file__).resolve().parents[1])

#: every public name of the package: the error types, the library layers'
#: names and the submodules
PUBLIC_NAMES = sorted([
    "ArityMismatchError", "BorelData", "CoeffTensor",
    "DegenerateSpectrumError", "EvalResult", "EvaluationError",
    "GevreyFit", "GevreyKitError", "InsufficientOrderError", "MatSeries",
    "NormalizationError", "PadeApproximant", "PoleObstructionError",
    "ProblemSpec", "RemainderProfile",
    "ResonanceError", "SchemaError", "SiegelCheck",
    "SingularMatrixError", "SpectrumReport", "SummationReport",
    "ZSolution", "assemble_B", "bessel_ratio_cf", "borel_transform",
    "build_T0", "builtin_riccati", "check_siegel", "eps_values_at", "evaluate_f",
    "gamma_max", "gevrey_fit", "laplace_sum", "mat_series_inverse", "multilinear_apply",
    "normalize_shift", "ode_residual", "ode_residual_z", "optimal_truncation_sum",
    "pade_continue", "parse_problem", "phi_eps", "problem_to_json",
    "remainder_profile", "shift_problem", "shifted_reference",
    "solve_a0", "solve_ai", "solve_coeffs_z", "solve_eps_expansion", "spectrum",
    "sup_norm_disc",
    "borel", "epssolver", "errors", "gevrey", "problem", "riccati", "sector", "series", "zsolver",
])


def fresh_env(**preset) -> dict:
    """This environment without the BLAS thread variables, plus `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    env.update(preset)
    return env


def run_python(code: str, **preset):
    """Run `code` in a fresh interpreter; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(**preset),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_numpy_unloaded():
    loaded = run_python("import json, sys, gevrey_kit; "
                        "print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("gevrey_kit")] == [
        "gevrey_kit", "gevrey_kit.errors"]


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
])
def test_cli_import_sets_blas_threads(preset, expected):
    got = run_python("import json, os, gevrey_kit.cli; "
                     f"print(json.dumps([os.environ.get(v) for v in {BLAS_VARS!r}]))",
                     **preset)
    assert got == expected


def test_check_sector_loads_only_its_layers(tmp_path):
    out = tmp_path / "sector.json"
    code = ("import json, sys; from gevrey_kit.cli import main; "
            f"code = main(['check-sector', '--builtin', 'riccati', '--out', {str(out)!r}]); "
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('gevrey_kit.'))]))")
    exit_code, loaded = run_python(code)
    assert exit_code == 0
    assert loaded == ["gevrey_kit.cli", "gevrey_kit.errors", "gevrey_kit.problem",
                      "gevrey_kit.sector", "gevrey_kit.series"]


def test_solve_loads_only_its_layers(tmp_path):
    out = tmp_path / "solve.json"
    code = ("import json, sys; from gevrey_kit.cli import main; "
            f"code = main(['solve', '--builtin', 'riccati', '--out', {str(out)!r}]); "
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('gevrey_kit.'))]))")
    exit_code, loaded = run_python(code)
    assert exit_code == 0
    assert loaded == ["gevrey_kit.cli", "gevrey_kit.errors", "gevrey_kit.problem",
                      "gevrey_kit.series", "gevrey_kit.zsolver"]


def test_resum_leaves_numpy_polynomial_unloaded(tmp_path):
    out = tmp_path / "resum.json"
    code = ("import json, sys; from gevrey_kit.cli import main; "
            f"code = main(['resum', '--builtin', 'riccati', '--I', '12', '--out', {str(out)!r}]); "
            "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.startswith('numpy.polynomial'))]))")
    assert run_python(code) == [0, []]


def test_only_three_dataclasses(tmp_path):
    # every other record of the package is a NamedTuple, which costs less
    # to create at import
    jobs = [["resum", "--builtin", "riccati", "--I", "12", "--out", str(tmp_path / "r.json")],
            ["diagnose", "--builtin", "riccati", "--I", "12", "--out", str(tmp_path / "d.json")]]
    code = ("import dataclasses, json, sys; from gevrey_kit.cli import main; "
            f"codes = [main(job) for job in {jobs!r}]; "
            "print(json.dumps([codes, sorted(name for key, mod in list(sys.modules.items()) "
            "if key.startswith('gevrey_kit.') for name, obj in vars(mod).items() "
            "if isinstance(obj, type) and dataclasses.is_dataclass(obj) "
            "and obj.__module__ == key)]))")
    assert run_python(code) == [[0, 0], ["CoeffTensor", "MatSeries", "ProblemSpec"]]


def test_public_names():
    code = ("import json, gevrey_kit; ns = {}; exec('from gevrey_kit import *', ns); "
            "print(json.dumps([sorted(gevrey_kit.__all__), "
            "sorted(n for n in dir(gevrey_kit) if not n.startswith('_')), "
            "sorted(n for n in ns if n != '__builtins__')]))")
    all_names, dir_names, star_names = run_python(code)
    assert all_names == PUBLIC_NAMES
    assert dir_names == PUBLIC_NAMES
    assert star_names == PUBLIC_NAMES


def test_lazy_names_are_the_submodule_objects():
    from gevrey_kit import epssolver, zsolver

    assert gevrey_kit.solve_coeffs_z is zsolver.solve_coeffs_z
    assert gevrey_kit.epssolver is epssolver


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gevrey_kit.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from gevrey_kit import no_such_name  # noqa: F401


#: every subcommand once, with its exit code and the files it writes; the
#: first is its --out, and a case that writes none reports to stdout.  The
#: z = 0.5 solve lies outside the disc of convergence.
ENTRY_POINT_CASES = [
    (["check-sector", "--builtin", "riccati", "--gamma", "1.0"], 0, ["report.json"]),
    (["solve", "--builtin", "riccati", "--eps", "0.1,0.2", "--z", "0.05,0.1"], 0,
     ["report.json"]),
    (["solve", "--builtin", "riccati", "--eps", "0.1", "--z", "0.5"], 2, ["report.json"]),
    (["resum", "--builtin", "riccati", "--I", "12", "--eps", "0.1", "--z", "0.05"], 0,
     ["report.json"]),
    (["diagnose", "--builtin", "riccati", "--I", "12"], 0, ["report.json"]),
    (["validate-riccati"], 0, ["report.json"]),
    (["solve", "--builtin", "riccati", "--eps", "0.2", "--z", "0.1"], 0, []),
    (["diagnose", "--builtin", "riccati", "--I", "12", "--format", "csv"], 0,
     ["report.csv", "report_remainder.csv"]),
]
CASE_IDS = [" ".join(c[0][:1] + c[0][3:]) for c in ENTRY_POINT_CASES]


@pytest.mark.parametrize("argv, exit_code, files", ENTRY_POINT_CASES, ids=CASE_IDS)
def test_entry_point_matches_in_process(tmp_path, capsys, argv, exit_code, files):
    sub_dir, inproc_dir = tmp_path / "sub", tmp_path / "inproc"
    sub_dir.mkdir()
    inproc_dir.mkdir()

    def out(d):
        return ["--out", str(d / files[0])] if files else []

    proc = subprocess.run([sys.executable, "-m", "gevrey_kit.cli", *argv, *out(sub_dir)],
                          env=fresh_env(), capture_output=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr == b""
    assert main([*argv, *out(inproc_dir)]) == exit_code
    assert proc.stdout == capsys.readouterr().out.encode()
    assert bool(proc.stdout) == (not files)
    assert sorted(p.name for p in sub_dir.iterdir()) == sorted(files)
    assert sorted(p.name for p in inproc_dir.iterdir()) == sorted(files)
    for name in files:
        assert (sub_dir / name).read_bytes() == (inproc_dir / name).read_bytes()


@pytest.mark.parametrize("argv", [c[0] for c in ENTRY_POINT_CASES], ids=CASE_IDS)
def test_in_process_main_keeps_the_collector(tmp_path, argv):
    before = gc.isenabled(), gc.get_freeze_count()
    main([*argv, "--out", str(tmp_path / "report")])
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_cli_import_keeps_the_collector():
    assert run_python("import gc, json, gevrey_kit.cli; "
                      "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))") == [True, 0]


def test_entry_point_freezes_before_exit(tmp_path):
    """The module run as __main__ switches the collector off and freezes
    every object before its sys.exit, which still runs atexit handlers."""
    out = tmp_path / "solve.json"
    code = ("import atexit, gc, json, runpy, sys; "
            "atexit.register(lambda: print(json.dumps("
            "[gc.isenabled(), gc.get_freeze_count() > 10000, len(gc.get_objects())]))); "
            f"sys.argv = ['gevrey-kit', 'solve', '--builtin', 'riccati', '--out', {str(out)!r}]; "
            "runpy.run_module('gevrey_kit.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    enabled, frozen, tracked = json.loads(proc.stdout.splitlines()[-1])
    assert not enabled and frozen
    assert tracked < 100
    assert out.is_file()


#: a job, and the options that grow it (argparse keeps the later value)
GROWN_JOBS = [
    (["solve", "--builtin", "riccati", "--K", "60"], ["--K", "600"]),
    (["diagnose", "--builtin", "riccati", "--I", "12"], ["--I", "40"]),
]


@pytest.mark.parametrize("argv, grown", GROWN_JOBS, ids=["solve", "diagnose"])
def test_cyclic_garbage_does_not_grow_with_the_job(tmp_path, argv, grown):
    """The CLI process never collects cycles: what a job leaves unreachable
    stays until exit, so it must not grow with K or I."""
    out = ["--out", str(tmp_path / "report.json")]
    main([*argv, *out])  # lazy imports and caches fill here

    def garbage(job):
        gc.collect()
        gc.disable()
        try:
            assert main([*job, *out]) == 0
        finally:
            gc.enable()
        return gc.collect()

    assert garbage([*argv, *grown]) == garbage(argv)


def test_readme_quick_start_runs():
    # the one python block of README.md, run as a reader would paste it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", block], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    # its first line is the fixed-eps value against the reference
    assert abs(complex(proc.stdout.splitlines()[0])) < 1e-14
