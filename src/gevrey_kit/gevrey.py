"""Nagumo-norm calculus, disc sup-norm estimates, factorial growth fitting,
and the Taylor-remainder profile of the formal expansion.

The implemented Nagumo norm is the coefficient-majorant variant: with
M(r) = sum_n ||c_n|| r^n,

    ||f||_k = sup_{0 <= r < kappa} (kappa - r)^k M(r).

M dominates the sup of ||f|| on the circle |z| = r, so this is an upper
bound for the sup-based norm, it is computable from coefficients alone, and
all four calculus properties (subadditivity, product, derivative with the
e*(k+1) factor, radius monotonicity) hold for it verbatim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .epssolver import eps_values_at, is_mpmath
from .problem import ProblemSpec
from .series import VecSeries
from .zsolver import evaluate_f, solve_coeffs_z

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class NagumoNorm:
    kappa: float
    k: int
    value: float
    maximizer: float


@dataclass(frozen=True, eq=False)
class GevreyFit:
    """Factorial-growth fit ||a_i|| <= C * i! * mu**i.

    The slope/intercept come from least squares on log(norm_i) - log(i!)
    over the fitted index range; C is then inflated minimally so the bound
    holds at every supplied index.  r2 is the coefficient of determination
    of the full fitted law, i.e. of log(C i! mu^i) against log(norm_i) on
    the fitted range; `r2_compensated` scores the line on the
    factorial-compensated values alone, which is the stricter measure of
    how purely geometric the compensated sequence is.
    """

    C: float
    mu: float
    r2: float
    norms: np.ndarray
    i_start: int
    fit_min: int
    r2_compensated: float = 0.0


def _majorant(f: VecSeries) -> np.ndarray:
    return f.norms()


def _weighted(gamma: np.ndarray, kappa: float, k: int) -> Callable[[float], float]:
    powers = np.arange(gamma.size)

    def g(r: float) -> float:
        return (kappa - r) ** k * float((gamma * r**powers).sum())

    return g


def nagumo_norm(f: VecSeries, k: int, kappa: float) -> NagumoNorm:
    """Coefficient-majorant Nagumo norm of a polynomial vector series.

    For k = 0 the weight is absent and the sup is M(kappa) itself.  For
    k >= 1 a coarse scan brackets the maximizer of (kappa - r)^k M(r) and
    golden-section refines it; the endpoint r = 0 is always compared
    against the refined interior value.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if k < 0:
        raise ValueError("weight index k must be nonnegative")
    gamma = _majorant(f)
    if not np.any(gamma):
        return NagumoNorm(kappa=kappa, k=k, value=0.0, maximizer=0.0)
    powers = np.arange(gamma.size)
    if k == 0:
        return NagumoNorm(kappa=kappa, k=0,
                          value=float((gamma * kappa**powers).sum()), maximizer=kappa)

    g = _weighted(gamma, kappa, k)
    n_scan = 257
    grid = kappa * np.arange(n_scan) / n_scan
    m_vals = np.polynomial.polynomial.polyval(grid, gamma)
    vals = (kappa - grid) ** k * m_vals
    best = int(np.argmax(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, n_scan - 1)]
    if best == n_scan - 1:
        hi = kappa * (1.0 - 1e-12)

    # golden-section maximization on [lo, hi]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    while hi - lo > 1e-12 * kappa:
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = g(x1)
    r_star = 0.5 * (lo + hi)
    v_star = g(r_star)
    if g(0.0) >= v_star:
        return NagumoNorm(kappa=kappa, k=k, value=g(0.0), maximizer=0.0)
    return NagumoNorm(kappa=kappa, k=k, value=v_star, maximizer=r_star)


def nagumo_property_suite(f: VecSeries, g: VecSeries, k: int, l: int,
                          kappa: float, slack: float = 1e-9) -> dict[str, bool]:
    """Check the four norm properties on one pair of scalar polynomials:

      1. ||f + g||_k <= ||f||_k + ||g||_k
      2. ||f g||_{k+l} <= ||f||_k ||g||_l
      3. ||f'||_{k+1} <= e (k+1) ||f||_k
      4. ||f||_k <= kappa ||f||_{k-1}   (k >= 1)
    """
    if f.nu != 1 or g.nu != 1:
        raise ValueError("the product property needs scalar series")
    deg = f.order + g.order  # polynomial data, so the product is exact here
    sum_fg = f.pad_to(deg) + g.pad_to(deg)
    prod_fg = VecSeries(np.convolve(f.coeffs[0], g.coeffs[0])[None, :], f.var)

    nf_k = nagumo_norm(f, k, kappa).value
    ng_k = nagumo_norm(g, k, kappa).value
    ng_l = nagumo_norm(g, l, kappa).value
    df = f.derivative()
    out = {
        "sum": nagumo_norm(sum_fg, k, kappa).value <= nf_k + ng_k + slack,
        "product": nagumo_norm(prod_fg, k + l, kappa).value <= nf_k * ng_l + slack,
        "derivative": nagumo_norm(df, k + 1, kappa).value
        <= math.e * (k + 1) * nf_k + slack,
    }
    if k >= 1:
        out["radius"] = nagumo_norm(f, k, kappa).value \
            <= kappa * nagumo_norm(f, k - 1, kappa).value + slack
    else:
        out["radius"] = True
    return out


def sup_norm_disc(f: VecSeries, sigma: float) -> float:
    """Certified upper estimate M(sigma) = sum_n ||c_n|| sigma^n of the sup
    of ||f|| on the closed disc of radius sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    gamma = _majorant(f)
    return float((gamma * sigma ** np.arange(gamma.size)).sum())


def gevrey_fit(norms: Sequence[float], i_start: int = 0, fit_min: int = 3) -> GevreyFit:
    """Fit C, mu in ``norm_i <= C * i! * mu**i`` from a norm sequence.

    `norms[j]` is the norm at index ``i_start + j``.  Indices below
    `fit_min` are excluded from the least-squares line (small-index
    transients); C is inflated afterwards so the bound holds at every
    supplied index.
    """
    norms = np.asarray(norms, dtype=np.float64)
    idx = np.arange(i_start, i_start + norms.size)
    if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("norms must be positive and finite")
    mask = idx >= fit_min
    if mask.sum() < 6:
        raise ValueError("need at least 6 indices at or above fit_min")
    x = idx[mask].astype(np.float64)
    lgam = np.array([math.lgamma(i + 1.0) for i in x])
    log_norm = np.log(norms[mask])
    y = log_norm - lgam
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept

    def _r2(observed, predicted):
        ss_res = float(((observed - predicted) ** 2).sum())
        ss_tot = float(((observed - observed.mean()) ** 2).sum())
        if ss_tot <= 1e-300:
            return 1.0 if ss_res <= 1e-12 else 0.0
        return 1.0 - ss_res / ss_tot

    r2 = _r2(log_norm, fitted + lgam)
    r2_comp = _r2(y, fitted)
    mu = math.exp(slope)
    log_c = max(math.log(n) - math.lgamma(i + 1.0) - slope * i
                for n, i in zip(norms, idx))
    return GevreyFit(C=math.exp(log_c), mu=mu, r2=r2, norms=norms,
                     i_start=i_start, fit_min=fit_min, r2_compensated=r2_comp)


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
    `I_star_term` is the superasymptotic proxy argmin_I ||a_I(z)|| |eps|^I
    from the term sizes alone; it needs no reference, but it is only as
    good as the point values a_I(z), whose relative error in double
    precision grows with I.  `shape_slope` and `shape_r2` describe the line
    fitted to log|r_I| - log(I!) up to I_star.
    """

    eps: complex
    z: complex
    abs_r: np.ndarray
    abs_r_eps: np.ndarray
    I_star: int
    I_star_term: int
    shape_slope: float
    shape_r2: float
    floor: float
    I_star_on_floor: bool


def _norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v).astype(np.complex128)))


def remainder_profile(p: ProblemSpec, z: complex, eps_list, I_max: int,
                      reference: Callable[[complex, complex], np.ndarray] | None = None,
                      K_ref: int = 80) -> list[RemainderProfile]:
    """Taylor-remainder table r_I(eps, z) for I = 0..I_max at each eps.

    `reference` supplies f(eps, z); the default evaluates the fixed-eps
    z-series solver at truncation `K_ref`.  The values a_i(z) come from
    their Taylor jets at z (`eps_values_at`), not from z-series summed at 0.

    The working precision follows the reference's values: float or complex
    values mean float64, mpmath values mean the current mpmath precision
    (set it with ``mpmath.workdps`` around the call).  A double-precision
    table cannot resolve remainders below about 1e-16 |f|; each profile
    says whether its minimum sits on that floor.
    """
    if I_max < 1:
        raise ValueError("I_max must be >= 1")
    if reference is None:
        def reference(eps, zz):
            return evaluate_f(solve_coeffs_z(p, eps, K_ref), zz).value

    refs = [np.asarray(reference(eps, z), dtype=object).ravel() for eps in eps_list]
    if any(is_mpmath(v) for f in refs for v in f):
        import mpmath

        work, unit = mpmath.mpc, 2.0 ** -mpmath.mp.prec
    else:
        work, unit = complex, 2.0 ** -53
    a_vals = eps_values_at(p, work(z), I_max)  # (I_max+1, nu)
    a_norms = np.linalg.norm(a_vals.astype(np.complex128), axis=1)

    out = []
    for eps_in, f in zip(eps_list, refs):
        eps = work(eps_in)
        f_ref = np.array([work(v) for v in f], dtype=a_vals.dtype)
        abs_r_eps = np.zeros(I_max + 1)
        partial = np.zeros_like(f_ref)
        for I in range(I_max + 1):
            abs_r_eps[I] = _norm(f_ref - partial)
            partial = partial + a_vals[I] * eps**I
        eps_powers = abs(complex(eps_in)) ** np.arange(I_max + 1)
        abs_r = abs_r_eps / eps_powers
        i_star = int(np.argmin(abs_r_eps))
        term_sizes = a_norms * eps_powers
        i_star_term = int(np.argmin(term_sizes))
        floor = (i_star + 1) * unit * (_norm(f_ref) + float(term_sizes[:i_star].sum()))
        # factorial-compensated shape of the remainder up to the optimum
        upto = max(i_star, 2)
        xs = np.arange(1, upto + 1, dtype=np.float64)
        ys = np.array([math.log(max(abs_r[int(i)], 1e-300)) - math.lgamma(i + 1.0)
                       for i in xs])
        if xs.size >= 2:
            slope, intercept = np.polyfit(xs, ys, 1)
            fitted = slope * xs + intercept
            ss_res = float(((ys - fitted) ** 2).sum())
            ss_tot = float(((ys - ys.mean()) ** 2).sum())
            r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
        else:
            slope, r2 = 0.0, 1.0
        out.append(RemainderProfile(eps=complex(eps_in), z=complex(z), abs_r=abs_r,
                                    abs_r_eps=abs_r_eps, I_star=i_star,
                                    I_star_term=i_star_term,
                                    shape_slope=float(slope), shape_r2=float(r2),
                                    floor=floor,
                                    I_star_on_floor=bool(abs_r_eps[i_star] <= floor)))
    return out
