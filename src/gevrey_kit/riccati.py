"""Closed-form reference for the built-in Riccati problem.

The function phi_eps(z) = -(1/(2*sqrt(z))) * I_k(x) / I_{k-1}(x) with
k = 1/eps and x = 2*sqrt(z)/eps satisfies

    eps*z*phi' + phi - 2*z*phi**2 + 1/2 = 0,

and tends, as eps -> 0+, to phi0(z) = -1/(1 + sqrt(1 + 4z)), an oracle of
the tests (tests/oracles.py).  The modified Bessel ratio is evaluated by
the standard continued fraction

    I_k(x)/I_{k-1}(x) = 1 / (2k/x + 1/(2(k+1)/x + 1/(2(k+2)/x + ...)))

via the modified Lentz algorithm, which converges unconditionally for
x > 0, k > 0.  This oracle is kept free of any dependence on the series
solvers so that it can arbitrate them.
"""
from __future__ import annotations

import math

from .errors import EvaluationError

_TINY = 1e-30
#: the continued fraction stops when a relative update falls below _CF_TOL,
#: and fails after _CF_MAX_DEPTH terms
_CF_TOL = 1e-15
_CF_MAX_DEPTH = 10000
_Z_MAX = 4.0
_H = 1e-6


def bessel_ratio_cf(kappa: float, x: float) -> float:
    """Ratio I_kappa(x) / I_{kappa-1}(x) by modified Lentz iteration.

    Returns the converged value; raises :class:`EvaluationError` when the
    relative update has not fallen below _CF_TOL within _CF_MAX_DEPTH terms.
    """
    if x <= 0 or kappa <= 0:
        raise ValueError("the continued fraction needs x > 0 and kappa > 0")
    f = _TINY
    c = f
    d = 0.0
    for j in range(1, _CF_MAX_DEPTH + 1):
        b = 2.0 * (kappa + j - 1) / x
        d = b + d
        if d == 0.0:
            d = _TINY
        c = b + 1.0 / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return f
    raise EvaluationError(
        f"continued fraction did not converge (kappa={kappa}, x={x}, depth={_CF_MAX_DEPTH})")


def phi_eps(eps: float, z: float) -> float:
    """Bessel-ratio solution at real eps in (0, 2], real z in (0, _Z_MAX].

    For z > 0 the value is real and sits in (-1/2, 0).
    """
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if not 0.0 < z <= _Z_MAX:
        raise ValueError(f"z must lie in (0, {_Z_MAX}], got {z}")
    kappa = 1.0 / eps
    sz = math.sqrt(z)
    x = 2.0 * sz / eps
    ratio = bessel_ratio_cf(kappa, x)
    return -ratio / (2.0 * sz)


def shifted_reference(eps: float, z: float) -> float:
    """phi_eps(z) + 1/2: the quantity the normalized solvers must match."""
    return phi_eps(eps, z) + 0.5


def ode_residual(eps: float, z: float) -> float:
    """|eps*z*phi' + phi - 2*z*phi**2 + 1/2| with phi' from a fourth-order
    central difference of step _H (two-step Richardson refinement of the
    midpoint rule).

    Independent of the series solvers; this is the oracle's self-check.
    """
    h = _H if z > 2 * _H else z / 4.0
    f = phi_eps(eps, z)
    d1 = (phi_eps(eps, z + h) - phi_eps(eps, z - h)) / (2.0 * h)
    d2 = (phi_eps(eps, z + 2 * h) - phi_eps(eps, z - 2 * h)) / (4.0 * h)
    dphi = (4.0 * d1 - d2) / 3.0
    return abs(eps * z * dphi + f - 2.0 * z * f * f + 0.5)
