"""Ray condition on the spectrum, and majorant radii.

A sector S(theta, gamma; E) is the set of eps with |arg eps - theta| <
gamma/2 and 0 < |eps| < E.  The solvability of the coefficient recursions
rests on no eigenvalue ray of the linear block meeting the closed sector;
this module checks that condition and evaluates the majorant radii used by
the tail bounds.  The sampled resolvent constant on a sector is a test
oracle (tests/oracles.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, RadiiInfeasibleError
from .problem import MAX_DIMENSION, ProblemSpec
from .series import CONV_TAMING_A

@dataclass(frozen=True)
class SiegelCheck:
    """Per-eigenvalue angular margins against a (theta, gamma) query."""

    ok: bool
    margins: np.ndarray  # d_j - gamma/2, one per eigenvalue


@dataclass(frozen=True)
class SpectrumReport:
    args: np.ndarray
    gamma_max: float
    summable: bool


@dataclass(frozen=True)
class RadiiReport:
    alpha: float
    kappa: float
    sigma: float
    A: float = CONV_TAMING_A


def spectrum(a01: np.ndarray) -> np.ndarray:
    """Eigenvalues of the dense linear block (dimension at most MAX_DIMENSION).

    Each eigenvalue is verified by |det(A - lambda I)| being small relative
    to the matrix scale.
    """
    a = np.asarray(a01, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    nu = a.shape[0]
    if nu > MAX_DIMENSION:
        raise ValueError(f"dimension above {MAX_DIMENSION} is not supported")
    eigs = np.linalg.eigvals(a)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    for lam in eigs:
        det = np.linalg.det(a - lam * np.eye(nu))
        if abs(det) > 1e-8 * scale**nu:
            raise ArithmeticError(f"eigenvalue verification failed at {lam}")
    return eigs


def _angular_distances(eigs: np.ndarray, theta: float) -> np.ndarray:
    eigs = np.atleast_1d(np.asarray(eigs, dtype=np.complex128))
    scale = float(np.abs(eigs).max())
    if scale == 0.0 or float(np.abs(eigs).min()) <= 1e-14 * max(1.0, scale):
        raise DegenerateSpectrumError("zero eigenvalue: ray condition undefined")
    diff = np.angle(eigs) - theta
    # wrap into [0, pi]: distance between rays
    wrapped = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
    return wrapped


def check_siegel(eigs: np.ndarray, theta: float, gamma: float) -> SiegelCheck:
    """True when every eigenvalue ray stays outside the closed sector,
    i.e. the wrapped angular distance of each arg(lambda_j) from theta
    exceeds gamma/2."""
    d = _angular_distances(eigs, theta)
    margins = d - gamma / 2.0
    return SiegelCheck(ok=bool(np.min(d) > gamma / 2.0), margins=margins)


def gamma_max(eigs: np.ndarray, theta: float) -> SpectrumReport:
    """Supremum opening at direction theta, with the summability verdict
    gamma_max > pi."""
    eigs = np.atleast_1d(np.asarray(eigs, dtype=np.complex128))
    d = _angular_distances(eigs, theta)
    gmax = 2.0 * float(np.min(d))
    return SpectrumReport(args=np.angle(eigs), gamma_max=gmax, summable=gmax > math.pi)


def radius_estimates(p: ProblemSpec, c: float) -> RadiiReport:
    """Majorant scale alpha and the radii kappa, sigma.

    For every present block (n, m) other than the linear (0,1) part, alpha
    must satisfy ``c * alpha_nm <= alpha * C_n / rho**(n+m)`` with
    ``C_n = A/n**2`` (C_0 = A).  The block norm bound alpha_nm is the smaller
    of the per-block coefficient bound on the closed eps-disc of radius rho
    and the Cauchy-type bound ``C_bound / (rho1**n * rho**m)``, where
    ``C_bound`` sums ``frobenius_bound(rho) * rho1**n * rho**m`` over all
    blocks.  Feasibility requires alpha < rho/2; then

        kappa = rho * sqrt(1 - alpha / (rho - alpha)),
        sigma = kappa * (rho - alpha * A) / rho,

    which makes the majorant partial-sum identity
    ``alpha * A * kappa / (kappa - sigma) = rho`` hold exactly.
    """
    if c <= 0:
        raise ValueError("resolvent constant c must be positive")
    rho, rho1 = p.rho, p.rho1
    C_bound = sum(t.frobenius_bound(rho) * rho1**t.n * rho**t.m for t in p.tensors)

    alpha = 0.0
    limiting = (0, 1)
    for t in p.tensors:
        if (t.n, t.m) == (0, 1):
            continue
        c_n = CONV_TAMING_A if t.n == 0 else CONV_TAMING_A / t.n**2
        alpha_nm = min(t.frobenius_bound(rho), C_bound / (rho1**t.n * rho**t.m))
        need = c * alpha_nm * rho ** (t.n + t.m) / c_n
        if need > alpha:
            alpha = need
            limiting = (t.n, t.m)
    if alpha >= rho / 2.0:
        raise RadiiInfeasibleError(
            f"no admissible majorant scale: block {limiting} needs alpha = "
            f"{alpha:.4g} >= rho/2 = {rho / 2.0:.4g}; shrink rho")
    kappa = rho * math.sqrt(1.0 - alpha / (rho - alpha))
    sigma = kappa * (rho - alpha * CONV_TAMING_A) / rho
    return RadiiReport(alpha=alpha, kappa=kappa, sigma=sigma)
