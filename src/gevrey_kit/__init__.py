"""Constructive solvers, Gevrey growth certification and Borel-Laplace
summation for singularly perturbed nonlinear systems eps*z*f' = F(eps, z, f)
with a regular singularity at z = 0.

Only `errors` is imported with the package; every other public name is
loaded from its submodule on first access (PEP 562), so ``import
gevrey_kit`` does not import numpy.  The command line relies on this to
set the BLAS thread count before numpy loads.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .errors import __all__ as _error_names

#: submodule -> the public names it serves to the package
_LAZY = {
    "series": ("MatSeries", "VecSeries", "mat_series_inverse", "multilinear_apply"),
    "problem": (
        "CoeffTensor", "NormalizationShift", "ProblemSpec", "assemble_B",
        "builtin_riccati", "normalize_shift", "parse_problem", "problem_to_dict",
        "problem_to_json", "shift_problem",
    ),
    "sector": ("SiegelCheck", "SpectrumReport", "check_siegel", "gamma_max", "spectrum"),
    "zsolver": ("EvalResult", "ZSolution", "evaluate_f", "ode_residual_z", "solve_coeffs_z"),
    "epssolver": (
        "EpsFormalSolution", "build_T0", "eps_values_at", "solve_a0", "solve_ai",
        "solve_eps_expansion",
    ),
    "gevrey": ("GevreyFit", "RemainderProfile", "gevrey_fit", "remainder_profile",
               "sup_norm_disc"),
    "borel": (
        "BorelData", "PadeApproximant", "SummationReport", "borel_transform",
        "laplace_sum", "optimal_truncation_sum", "pade_continue",
    ),
    "riccati": ("bessel_ratio_cf", "ode_residual", "phi_eps", "shifted_reference"),
}
_HOME = {name: mod for mod, names in _LAZY.items() for name in names}

__all__ = [*_error_names, *_HOME, "errors", *_LAZY]


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
