"""z-power-series solution at fixed numeric eps.

The coefficients of f(eps, z) = sum_{k>=1} f_k(eps) z^k satisfy a closed
triangular recursion: f_1 solves (eps*I - A01(eps)) f_1 = A10(eps), and each
later f_j solves (eps*j*I - A01(eps)) f_j = g_j, where g_j is the
coefficient of z^j of F(eps, z, f) with f_j set to zero, so only earlier
coefficients enter.  `series.solve_triangular`, on jets of length 1, forms
g_j from partial contractions of the blocks that it extends by one
coefficient per step, so step j costs O(j).

`solve_coeffs_z` runs its eps, a number or a sequence, as one batch: one
Horner pass along the eps axis of the arrays of `problem.assemble_B` gives
the blocks at every eps, one call inverts every eps*k*I - A01, and one
recursion carries all eps, each contraction one batched matrix product, so
each eps gets the bits it would get alone.  Every step is checked for
resonance (eps*k within a relative distance of an eigenvalue of A01(eps))
and by an explicit residual, after the recursion or, stopping it, at the
first multiple of `_STOP_CHECK_EVERY` steps where the first eps has a
non-finite coefficient; a batch raises the error that solving its eps one
by one, in order, raises first.  An overflowing or resonant matrix is
inverted as the identity meanwhile; an overflow fails its eps before any
other failure of that eps, and an exactly singular matrix fails at once.
`evaluate_f` and `ode_residual_z` sum the series at all their points by
one Horner pass; a partial sum carries no bound on its tail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GevreyKitError, ResonanceError
from .problem import ProblemSpec, assemble_B
from .series import RELATION_RTOL, _horner, _norm2, solve_triangular

#: step k is resonant when eps*k lies within this times max(|eps*k|, |lambda|)
#: of an eigenvalue lambda of A01(eps)
_RESONANCE_RTOL = 1e-10
#: steps between the tests that stop the recursion once the first eps has failed
_STOP_CHECK_EVERY = 64


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Partial-sum value of the z-series at one point."""

    value: np.ndarray


@dataclass(frozen=True, eq=False)
class ZSolution:
    """Coefficients f_1..f_K at a fixed eps.

    ``coeffs[k-1]`` is the nu-vector f_k.  `residuals` records the relative
    residual of each linear solve.
    """

    eps: complex
    coeffs: np.ndarray
    residuals: np.ndarray

    @property
    def K(self) -> int:
        return self.coeffs.shape[0]


def solve_coeffs_z(p: ProblemSpec, eps: complex | Sequence[complex],
                   K: int) -> ZSolution | list[ZSolution]:
    """Run the coefficient recursion up to order K at numeric eps.

    `eps` is a number, which gives one ZSolution, or a sequence of numbers,
    which gives one ZSolution per entry, in order, from one batched
    recursion.  A matrix eps*k*I - A01 that overflows raises GevreyKitError."""
    if K < 1:
        raise ValueError("K must be >= 1")
    p.require_normalized()
    batch = np.atleast_1d(np.asarray(eps, dtype=np.complex128))
    if batch.ndim > 1:
        raise ValueError("eps must be a number or a sequence of numbers")
    if not np.all(np.isfinite(batch)):
        raise ValueError(f"eps must be finite, got {eps}")
    if not batch.size:
        return []
    eye = np.eye(p.nu, dtype=np.complex128)

    # blocks at every eps, by arity, with z-polynomial entries: Horner along
    # the eps axis; overflow is detected on the matrices, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = {m: _horner(np.moveaxis(e, -2, 0), batch.reshape((-1,) + (1,) * (m + 2)))
                  for m, e in assemble_B(p).items()}
        a01 = blocks[1][..., 0]
        # k leads the inverses, so step k takes its own by one plain index
        eps_k = np.arange(1, K + 1)[:, None] * batch
        mats = eps_k[..., None, None] * eye - a01
        overflow = ~np.isfinite(mats).all(axis=(-2, -1))
        # a non-finite A01 takes the spectrum of the identity; its matrices overflow
        lam = np.linalg.eigvals(np.where(np.isfinite(a01).all(axis=(-2, -1))[..., None, None],
                                         a01, eye))
        resonant = (np.abs(eps_k[..., None] - lam) <= _RESONANCE_RTOL
                    * np.maximum(np.abs(eps_k)[..., None], np.abs(lam))).any(axis=-1)
    # an overflowing or resonant step is inverted as the identity, and fails below
    try:
        inv = np.linalg.inv(np.where((overflow | resonant)[..., None, None], eye, mats))
    except np.linalg.LinAlgError:
        raise ResonanceError("eps*k*I - A01 is exactly singular: eps*k collides with an "
                             "eigenvalue of the linear block that its spectrum misses") from None
    rhs_k = np.zeros((K, batch.size, p.nu, 1), dtype=np.complex128)
    f = np.zeros((batch.size, p.nu, K + 1, 1), dtype=np.complex128)

    def checked(n: int) -> np.ndarray:
        """Residuals (n, batch) of steps 1..n by max-abs norms; raises on a failed step."""
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = (np.abs(mats[:n] @ np.moveaxis(f[..., 1:n + 1, :], -2, 0) - rhs_k[:n])
                         .max(axis=(-2, -1)) / (1.0 + np.abs(rhs_k[:n]).max(axis=(-2, -1))))
        # a NaN residual must fail the check, not pass it
        failed = overflow[:n] | resonant[:n] | ~(residuals <= RELATION_RTOL)
        if failed.any():
            _raise_first(batch, failed, overflow, resonant, residuals)
        return residuals

    def solve_linear(k: int, rhs: np.ndarray) -> np.ndarray:
        rhs_k[k - 1] = rhs
        x_k = inv[k - 1] @ rhs
        if not k % _STOP_CHECK_EVERY and not np.isfinite(x_k[0]).all():
            f[..., k, :] = x_k  # solve_triangular stores it only after the return
            checked(k)
        return x_k

    solve_triangular([(m, e[..., None]) for m, e in blocks.items()], f, solve_linear)
    residuals = checked(K)
    sols = [ZSolution(eps=complex(e), coeffs=np.ascontiguousarray(f[b, :, 1:, 0].T),
                      residuals=residuals[:, b].copy()) for b, e in enumerate(batch)]
    return sols if np.ndim(eps) else sols[0]


def _raise_first(batch: np.ndarray, failed: np.ndarray, overflow: np.ndarray,
                 resonant: np.ndarray, residuals: np.ndarray) -> None:
    """Raise the error that solving the eps one at a time, in order, raises
    first: that of the first failing eps, at its first overflowing k if it
    has one (`overflow` covers every k, `failed` only the steps run), else
    at its first failing step, where a resonance is found before the residual."""
    b = int(np.flatnonzero(failed.any(axis=0))[0])
    k = int(np.argmax(overflow[:, b] if overflow[:, b].any() else failed[:, b])) + 1
    eps = complex(batch[b])
    if overflow[k - 1, b]:
        raise GevreyKitError(f"eps*k*I - A01 overflows double precision at eps = "
                             f"{eps:.6g}, k = {k}")
    if resonant[k - 1, b]:
        raise ResonanceError(f"eps*k = {eps * k:.6g} collides with an eigenvalue of the "
                             f"linear block at k = {k}")
    raise GevreyKitError(f"linear solve at k = {k} left residual {residuals[k - 1, b]:.3e}")


def _partial_sums(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_{k<=K} coeffs[k-1] z^k at every z of a 1-D array, shape
    (points, nu), by one Horner pass.  A sum that overflows comes out
    non-finite, without a warning; the callers check for it."""
    z = z[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return _horner(coeffs, z) * z


def evaluate_f(sol: ZSolution, z) -> EvalResult | list[EvalResult]:
    """Partial sum sum_{k<=K} f_k z^k.

    `z` is a number, which gives one EvalResult, or a sequence of numbers,
    which gives one per entry, in order."""
    points = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = [EvalResult(value=value) for value in _partial_sums(sol.coeffs, points)]
    return out if np.ndim(z) else out[0]


def ode_residual_z(p: ProblemSpec, sol: ZSolution, z_grid) -> float:
    """Max over the grid of ||eps*z*f'(z) - F(eps, z, f(z))|| with f' from
    exact differentiation of the partial sum; 0 on an empty grid.  A
    partial sum that overflows gives a residual of inf or NaN, not a
    warning, and a NaN at one point makes the max NaN."""
    z_grid = np.atleast_1d(np.asarray(z_grid, dtype=np.complex128))
    vals = _partial_sums(sol.coeffs, z_grid)
    # z f'(z) = sum k f_k z^k
    z_dvals = _partial_sums(np.arange(1, sol.K + 1)[:, None] * sol.coeffs, z_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [_norm2(sol.eps * z_dval - p.eval_F(sol.eps, z, val))
                 for z, val, z_dval in zip(z_grid, vals, z_dvals)]
    # np.max, unlike max, keeps a NaN
    return float(np.max(norms, initial=0.0))

