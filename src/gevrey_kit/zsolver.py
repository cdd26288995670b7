"""z-power-series solution at fixed numeric eps.

The coefficients of f(eps, z) = sum_{k>=1} f_k(eps) z^k satisfy a closed
triangular recursion: f_1 solves (eps*I - A01(eps)) f_1 = A10(eps), and each
later f_j solves (eps*j*I - A01(eps)) f_j = g_j, where g_j is the
coefficient of z^j of F(eps, z, f) with f_j set to zero, so only earlier
coefficients enter.  `series.solve_triangular` forms g_j on the Taylor-jet
kernel.  Linear systems are solved by dense factorization with an explicit
residual check; eps*k landing on an eigenvalue of the linear block is
reported as a resonance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GevreyKitError, ResonanceError
from .problem import ProblemSpec
from .sector import RadiiReport
from .series import CONV_TAMING_A, solve_triangular

_RESONANCE_RTOL = 1e-10
_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Partial-sum value with its geometric tail estimate.

    `tail_valid` is False when no radii are attached or |z| >= kappa; the
    bound is then meaningless and reported as None.
    """

    value: np.ndarray
    tail_bound: float | None
    tail_valid: bool


@dataclass(frozen=True, eq=False)
class ZSolution:
    """Coefficients f_1..f_K at a fixed eps.

    ``coeffs[k-1]`` is the nu-vector f_k.  `residuals` records the relative
    residual of each linear solve.  `radii` optionally carries the majorant
    data used for tail bounds.
    """

    eps: complex
    coeffs: np.ndarray
    residuals: np.ndarray
    radii: RadiiReport | None = None

    @property
    def K(self) -> int:
        return self.coeffs.shape[0]

    @property
    def nu(self) -> int:
        return self.coeffs.shape[1]


def solve_coeffs_z(p: ProblemSpec, eps: complex, K: int,
                   radii: RadiiReport | None = None) -> ZSolution:
    """Run the coefficient recursion up to order K at numeric eps."""
    if K < 1:
        raise ValueError("K must be >= 1")
    p.require_normalized()
    nu = p.nu
    eps = complex(eps)
    a01 = p.a01(eps)
    eye = np.eye(nu, dtype=np.complex128)

    # blocks at this eps, by arity, with z-polynomial entries
    blocks: dict[int, np.ndarray] = {}
    for t in p.tensors:
        e = blocks.setdefault(t.m, np.zeros(t.entries.shape[:-1] + (p.n_max + 1,),
                                            dtype=np.complex128))
        e[..., t.n] = t.at_eps(eps)

    residuals = np.zeros(K)

    def solve_linear(k: int, rhs: np.ndarray) -> np.ndarray:
        mat = eps * k * eye - a01
        svals = np.linalg.svd(mat, compute_uv=False)
        if float(svals[-1]) <= _RESONANCE_RTOL * max(1.0, float(svals[0])):
            raise ResonanceError(
                f"eps*k = {eps * k:.6g} collides with an eigenvalue of the linear "
                f"block at k = {k}", k=k, eps=eps)
        x = np.linalg.solve(mat, rhs)
        # max-abs norms: a 2-norm squares the entries and overflows first,
        # and a NaN residual must fail the check, not pass it
        res = float(np.abs(mat @ x - rhs).max()) / (1.0 + float(np.abs(rhs).max()))
        if not res <= _RESIDUAL_RTOL:
            raise GevreyKitError(f"linear solve at k = {k} left residual {res:.3e}")
        residuals[k - 1] = res
        return x

    f = solve_triangular(list(blocks.items()), np.zeros((nu, K + 1), dtype=np.complex128),
                         solve_linear)
    coeffs = np.ascontiguousarray(f[:, 1:].T)
    return ZSolution(eps=eps, coeffs=coeffs, residuals=residuals, radii=radii)


def evaluate_f(sol: ZSolution, z: complex) -> EvalResult:
    """Partial sum sum_{k<=K} f_k z^k plus the closed-form tail estimate
    ``alpha*A*(|z|/kappa)^(K+1) / ((K+1)^2 (1 - |z|/kappa))`` when majorant
    radii are attached and |z| < kappa."""
    z = complex(z)
    acc = np.zeros(sol.nu, dtype=np.complex128)
    for k in range(sol.K, 0, -1):
        acc = acc * z + sol.coeffs[k - 1]
    acc = acc * z

    if sol.radii is None:
        return EvalResult(value=acc, tail_bound=None, tail_valid=False)
    q = abs(z) / sol.radii.kappa
    if q >= 1.0:
        return EvalResult(value=acc, tail_bound=None, tail_valid=False)
    kk = sol.K + 1
    bound = sol.radii.alpha * CONV_TAMING_A * q**kk / (kk**2 * (1.0 - q))
    return EvalResult(value=acc, tail_bound=bound, tail_valid=True)


def ode_residual_z(p: ProblemSpec, sol: ZSolution, z_grid) -> float:
    """Max over the grid of ||eps*z*f'(z) - F(eps, z, f(z))|| with f' from
    exact differentiation of the partial sum."""
    worst = 0.0
    for z in np.atleast_1d(np.asarray(z_grid, dtype=np.complex128)):
        val = np.zeros(sol.nu, dtype=np.complex128)
        dval = np.zeros(sol.nu, dtype=np.complex128)
        for k in range(sol.K, 0, -1):
            val = val * z + sol.coeffs[k - 1]
            dval = dval * z + k * sol.coeffs[k - 1]
        val = val * z
        dval_times_z = dval * z  # z * f'(z), since dval = sum k f_k z^(k-1)
        resid = sol.eps * dval_times_z - p.eval_F(sol.eps, z, val)
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst
