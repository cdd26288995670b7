"""Cross-checks linking the two expansions of the same solution.

The fixed-eps z-expansion and the formal eps-expansion are two readings of
one double series: the eps-Taylor coefficients of f_k(eps) must match the
z-coefficients of a_i(z).  The extraction of eps-derivatives uses discrete
Fourier averaging on a circle, which conditions far better than one-sided
finite differences for high orders.  Every eps of a call is solved in one
batched z-recursion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epssolver import solve_a0, solve_eps_expansion
from .problem import ProblemSpec
from .zsolver import evaluate_f, solve_coeffs_z

_LIMIT_K = 60


@dataclass(frozen=True, eq=False)
class CrossReport:
    """Discrepancy table between the two coefficient extractions.

    ``table[i, k]`` is the max-norm difference between the Fourier-extracted
    eps-coefficient i of f_{k+1} and the z-coefficient k+1 of a_i, scaled by
    radius**i (the contribution of that coefficient at the sampling radius,
    which is the scale at which the fit is meaningful in double precision).
    ``raw[i, k]`` keeps the unscaled differences for inspection.
    """

    table: np.ndarray
    raw: np.ndarray
    radius: float
    max_scaled_discrepancy: float
    eps_taylor: np.ndarray  # (I+1, K, nu) extracted coefficients


def eps_taylor_of_z_coeffs(p: ProblemSpec, I: int, K: int,
                           radius: float = 1e-2) -> np.ndarray:
    """eps-Taylor coefficients of f_1..f_K through order I by discrete
    Fourier averaging over a circle of the given radius.

    Returns an array of shape (I+1, K, nu); entry [i, k-1] approximates the
    coefficient of eps^i in f_k(eps).
    """
    if I < 0 or K < 1:
        raise ValueError("need I >= 0 and K >= 1")
    M = 2 * I + 3
    circle = [radius * np.exp(2j * np.pi * s / M) for s in range(M)]
    samples = np.stack([sol.coeffs for sol in solve_coeffs_z(p, circle, K)])
    out = np.zeros((I + 1, K, p.nu), dtype=np.complex128)
    phases = np.exp(-2j * np.pi * np.arange(M) / M)
    for i in range(I + 1):
        weights = phases**i / (M * radius**i)
        out[i] = np.tensordot(weights, samples, axes=(0, 0))
    return out


def cross_consistency(p: ProblemSpec, I: int, K: int,
                      radius: float = 1e-2) -> CrossReport:
    """Compare the double-series coefficients along both expansions.

    The reported discrepancy is ``max_{i,k} |difference| * radius**i``; see
    :class:`CrossReport` for why the sampling-radius scaling is the honest
    metric for the Fourier route.
    """
    fourier = eps_taylor_of_z_coeffs(p, I, K, radius)
    eps_sol = solve_eps_expansion(p, I, K + I + 1)
    raw = np.zeros((I + 1, K))
    for i in range(I + 1):
        ai = eps_sol.a[i]
        for k in range(1, K + 1):
            diff = fourier[i, k - 1] - ai.coeff_vec(k)
            raw[i, k - 1] = float(np.abs(diff).max())
    scaled = raw * (radius ** np.arange(I + 1))[:, None]
    return CrossReport(table=scaled, raw=raw, radius=radius,
                       max_scaled_discrepancy=float(scaled.max()),
                       eps_taylor=fourier)


def limit_to_a0(p: ProblemSpec, eps_list, z: complex) -> list[tuple[complex, float]]:
    """Table of ||f(eps_j, z) - a_0(z)|| along a sequence eps_j -> 0, both
    sides summed from z-series of order _LIMIT_K."""
    a0 = solve_a0(p, _LIMIT_K)
    target = a0.evaluate(z)
    eps_list = list(eps_list)
    sols = iter(solve_coeffs_z(p, [eps for eps in eps_list if eps != 0], _LIMIT_K))
    out = []
    for eps in eps_list:
        if eps == 0:
            out.append((complex(eps), 0.0))
            continue
        val = evaluate_f(next(sols), z).value
        out.append((complex(eps), float(np.linalg.norm(val - target))))
    return out
