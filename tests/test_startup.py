"""Start-up of the package and of the command line, each in a fresh
interpreter: what `import gevrey_kit` loads, the BLAS thread count the CLI
sets before numpy loads, and the real `python -m gevrey_kit.cli` entry
point against in-process `cli.main`."""
import json
import os
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
    "DegenerateSpectrumError", "EpsFormalSolution", "EvalResult", "EvaluationError",
    "GevreyFit", "GevreyKitError", "InsufficientOrderError", "MatSeries",
    "NormalizationError", "NormalizationShift", "PadeApproximant", "PoleObstructionError",
    "ProblemSpec", "RemainderProfile",
    "ResonanceError", "SchemaError", "SiegelCheck",
    "SingularMatrixError", "SpectrumReport", "SummationReport", "VarMismatchError",
    "VecSeries", "ZSolution", "assemble_B", "bessel_ratio_cf", "borel_transform",
    "build_T0", "builtin_riccati", "check_siegel", "eps_values_at", "evaluate_f",
    "gamma_max", "gevrey_fit", "laplace_sum", "mat_series_inverse", "multilinear_apply",
    "normalize_shift", "ode_residual", "ode_residual_z", "optimal_truncation_sum",
    "pade_continue", "parse_problem", "phi_eps", "problem_to_dict", "problem_to_json",
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


#: every subcommand once, with its exit code; the z = 0.5 solve lies
#: outside the disc of convergence
ENTRY_POINT_CASES = [
    (["check-sector", "--builtin", "riccati", "--gamma", "1.0"], 0),
    (["solve", "--builtin", "riccati", "--eps", "0.1,0.2", "--z", "0.05,0.1"], 0),
    (["solve", "--builtin", "riccati", "--eps", "0.1", "--z", "0.5"], 2),
    (["resum", "--builtin", "riccati", "--I", "12", "--eps", "0.1", "--z", "0.05"], 0),
    (["diagnose", "--builtin", "riccati", "--I", "12"], 0),
    (["validate-riccati"], 0),
]


@pytest.mark.parametrize("argv, exit_code", ENTRY_POINT_CASES,
                         ids=[" ".join(c[0][:1] + c[0][3:]) for c in ENTRY_POINT_CASES])
def test_entry_point_matches_in_process(tmp_path, argv, exit_code):
    sub_out, inproc_out = tmp_path / "sub.json", tmp_path / "inproc.json"
    proc = subprocess.run([sys.executable, "-m", "gevrey_kit.cli", *argv,
                           "--out", str(sub_out)],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stderr == ""
    assert main([*argv, "--out", str(inproc_out)]) == exit_code
    assert sub_out.read_bytes() == inproc_out.read_bytes()
