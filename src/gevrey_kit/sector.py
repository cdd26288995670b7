"""Ray condition on the spectrum.

A sector S(theta, gamma; E) is the set of eps with |arg eps - theta| <
gamma/2 and 0 < |eps| < E.  The solvability of the coefficient recursions
rests on no eigenvalue ray of the linear block meeting the closed sector;
this module checks that condition, on LAPACK's eigenvalues, which are
backward stable and need no check of their own.  The sampled resolvent
constant on a sector and the paper's majorant radii built on it are test
oracles (tests/oracles.py).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError
from .problem import MAX_DIMENSION
from .series import SINGULAR_RTOL


class SiegelCheck(NamedTuple):
    """Per-eigenvalue angular margins against a (theta, gamma) query."""

    ok: bool
    margins: np.ndarray  # d_j - gamma/2, one per eigenvalue


class SpectrumReport(NamedTuple):
    args: np.ndarray
    gamma_max: float
    summable: bool


def spectrum(a01: np.ndarray) -> np.ndarray:
    """Eigenvalues of the dense linear block (dimension at most MAX_DIMENSION),
    by LAPACK, whose eigenvalues are backward stable."""
    a = np.asarray(a01, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.shape[0] > MAX_DIMENSION:
        raise ValueError(f"dimension above {MAX_DIMENSION} is not supported")
    return np.linalg.eigvals(a)


def _angular_distances(eigs: np.ndarray, theta: float) -> np.ndarray:
    eigs = np.atleast_1d(np.asarray(eigs, dtype=np.complex128))
    if not np.abs(eigs).min() > SINGULAR_RTOL * np.abs(eigs).max():
        raise DegenerateSpectrumError("zero eigenvalue: ray condition undefined")
    diff = np.angle(eigs) - theta
    # wrap into [0, pi]: distance between rays
    wrapped = np.abs((diff + math.pi) % (2.0 * math.pi) - math.pi)
    return wrapped


def check_siegel(eigs: np.ndarray, theta: float, gamma: float) -> SiegelCheck:
    """True when every eigenvalue ray stays outside the closed sector,
    i.e. the wrapped angular distance of each arg(lambda_j) from theta
    exceeds gamma/2.  The opening gamma must lie in (0, 2*pi]."""
    if not 0.0 < gamma <= 2.0 * math.pi:
        raise ValueError(f"the opening gamma must lie in (0, 2*pi], got {gamma}")
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
