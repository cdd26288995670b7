"""Disc sup-norm estimates, factorial growth fitting, and the
Taylor-remainder profile of the formal expansion.

The sup-norm estimate is the coefficient majorant M(sigma) = sum_n
||c_n|| sigma^n.  The Nagumo-norm calculus built on the same majorant is a
test oracle (tests/oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .epssolver import eps_values_at
from .errors import GevreyKitError
from .problem import ProblemSpec
from .series import VecSeries, _norm2, _working
from .zsolver import evaluate_f, solve_coeffs_z

_K_REF = 80
#: indices below this are small-index transients, left out of the growth fit
_FIT_MIN = 3


@dataclass(frozen=True, eq=False)
class GevreyFit:
    """Factorial-growth fit ||a_i|| <= C * i! * mu**i.

    The slope/intercept come from least squares on log(norm_i) - log(i!)
    over the fitted index range; C is then inflated minimally so the bound
    holds at every supplied index.  r2 is the coefficient of determination
    of the full fitted law, i.e. of log(C i! mu^i) against log(norm_i) on
    the fitted range.
    """

    C: float
    mu: float
    r2: float


def sup_norm_disc(f: VecSeries, sigma: float) -> float:
    """Certified upper estimate M(sigma) = sum_n ||c_n|| sigma^n of the sup
    of ||f|| on the closed disc of radius sigma.  A sum that overflows
    raises GevreyKitError."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    gamma = f.norms()
    with np.errstate(over="ignore", invalid="ignore"):
        total = float((gamma * sigma ** np.arange(gamma.size)).sum())
    if not math.isfinite(total):
        raise GevreyKitError(f"the sup norm on the disc of radius sigma = {sigma:.6g} "
                             "overflows double precision")
    return total


def _r2(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination of a fitted line."""
    ss_res = float(((observed - predicted) ** 2).sum())
    ss_tot = float(((observed - observed.mean()) ** 2).sum())
    if ss_tot <= 1e-300:
        return 1.0 if ss_res <= 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def gevrey_fit(norms: Sequence[float]) -> GevreyFit:
    """Fit C, mu in ``norm_i <= C * i! * mu**i`` from the norms at i = 0, 1, ...

    Indices below _FIT_MIN are excluded from the least-squares line
    (small-index transients); C is inflated afterwards so the bound holds at
    every supplied index.  A zero norm (a term that vanishes identically)
    meets every bound and takes no part in the fit or in C.
    """
    norms = np.asarray(norms, dtype=np.float64)
    idx = np.arange(norms.size)
    if np.any(norms < 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("norms must be nonnegative and finite")
    if np.count_nonzero(idx >= _FIT_MIN) < 6:
        raise ValueError(f"need at least 6 indices at or above {_FIT_MIN}")
    positive = norms > 0.0
    mask = (idx >= _FIT_MIN) & positive
    if mask.sum() < 6:
        raise GevreyKitError(
            f"the growth fit needs 6 nonzero norms at i >= {_FIT_MIN}, found "
            f"{int(mask.sum())}: {norms.size - int(positive.sum())} of the {norms.size} "
            "terms a_i vanish identically")
    x = idx[mask].astype(np.float64)
    lgam = np.array([math.lgamma(i + 1.0) for i in x])
    log_norm = np.log(norms[mask])
    y = log_norm - lgam
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    mu = math.exp(slope)
    log_c = max(math.log(n) - math.lgamma(i + 1.0) - slope * i
                for n, i in zip(norms[positive], idx[positive]))
    return GevreyFit(C=math.exp(log_c), mu=mu, r2=_r2(log_norm, fitted + lgam))


@dataclass(frozen=True, eq=False)
class RemainderProfile:
    """Scaled Taylor remainders of the formal expansion at one eps.

    ``abs_r[I]`` is |r_I| = |f(eps, z) - sum_{i<I} a_i(z) eps^i| / |eps|^I;
    ``abs_r_eps[I] = abs_r[I] * |eps|^I`` is the raw truncation error, whose
    argmin is the optimal truncation index I_star.  `floor` is the absolute
    rounding floor of the table at its working precision: the worst-case
    error (n + 1) u (|f| + sum_{i<n} |a_i(z)| |eps|^i) of forming
    f - partial sum with n = I_star terms and unit roundoff u.  It does not
    count the error of the reference itself.  `I_star_on_floor` is set when
    abs_r_eps[I_star] does not rise above that floor: the minimum is then
    rounding noise and the true optimal index may well be larger.
    """

    eps: complex
    abs_r: np.ndarray
    abs_r_eps: np.ndarray
    I_star: int
    floor: float
    I_star_on_floor: bool


def remainder_profile(p: ProblemSpec, z: complex, eps_list, I_max: int,
                      reference: Callable[[complex, complex], np.ndarray] | None = None
                      ) -> list[RemainderProfile]:
    """Taylor-remainder table r_I(eps, z) for I = 0..I_max at each eps.

    `reference` supplies f(eps, z); the default evaluates the fixed-eps
    z-series solver at truncation _K_REF, at every eps in one batch.  The
    values a_i(z) come from their Taylor jets at z (`eps_values_at`), not
    from z-series summed at 0.

    The working precision follows the reference's values: float or complex
    values mean float64, mpmath values mean the current mpmath precision
    (set it with ``mpmath.workdps`` around the call).  A double-precision
    table cannot resolve remainders below about 1e-16 |f|; each profile
    says whether its minimum sits on that floor.  eps = 0 raises ValueError,
    and a table that leaves the double range raises `GevreyKitError`.
    """
    if I_max < 1:
        raise ValueError("I_max must be >= 1")
    if any(complex(eps) == 0 for eps in eps_list):
        raise ValueError("the remainder table needs eps != 0")
    if reference is None:
        refs = [evaluate_f(sol, z).value for sol in solve_coeffs_z(p, list(eps_list), _K_REF)]
    else:
        refs = [reference(eps, z) for eps in eps_list]
    refs = [np.asarray(f, dtype=object).ravel() for f in refs]
    # a numpy eps**I overflows to inf, where a Python complex one raises
    work, unit = _working(*(v for f in refs for v in f))
    a_vals = eps_values_at(p, work(z), I_max)  # (I_max+1, nu)
    a_norms = _norm2(a_vals, axis=1)

    out = []
    for eps_in, f in zip(eps_list, refs):
        eps = work(eps_in)
        f_ref = np.array([work(v) for v in f], dtype=a_vals.dtype)
        abs_r_eps = np.zeros(I_max + 1)
        partial = np.zeros_like(f_ref)
        # overflow is detected on the table, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for I in range(I_max + 1):
                abs_r_eps[I] = _norm2(f_ref - partial)
                partial = partial + a_vals[I] * eps**I
            eps_powers = abs(complex(eps_in)) ** np.arange(I_max + 1)
            abs_r = abs_r_eps / eps_powers
            i_star = int(np.argmin(abs_r_eps))
            term_sizes = a_norms * eps_powers
            floor = (i_star + 1) * unit * (_norm2(f_ref) + float(term_sizes[:i_star].sum()))
        # abs_r is not finite where abs_r_eps is not
        if not (np.all(np.isfinite(abs_r)) and math.isfinite(floor)):
            raise GevreyKitError(f"the remainder table at eps = {complex(eps_in):.6g} "
                                 "leaves the double range")
        out.append(RemainderProfile(eps=complex(eps_in), abs_r=abs_r,
                                    abs_r_eps=abs_r_eps, I_star=i_star, floor=floor,
                                    I_star_on_floor=bool(abs_r_eps[i_star] <= floor)))
    return out
