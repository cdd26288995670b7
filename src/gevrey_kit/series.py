"""Truncated power series over complex vectors and matrices, the Taylor-jet
kernel that every recursion runs on, and the convolution-taming inequality.

A series here stores exactly the coefficients it knows and the formal variable
it lives in.  Coefficients beyond the recorded order are *unknown*, not zero,
and binary operations deliver the minimum of the operand orders, so a
coefficient is only ever reported when both inputs vouch for it.  Explicit
zero-extension is available through :meth:`VecSeries.pad_to` for data known
to be polynomial.  A scalar series is a `VecSeries` with nu = 1.

Every solver recursion runs on one Taylor-jet kernel (Taylor-mode
arithmetic, Griewank & Walther, *Evaluating Derivatives*, ch. 13):
`_jet_apply` contracts a dense block whose entries are truncated series
with one vector series per slot, in any dtype numpy can multiply (complex128
or object arrays of mpmath numbers), and `solve_triangular` solves for the
coefficients of an unknown series one at a time on top of it.  The
normalization shift of `problem` contracts its blocks with the same kernel.
The composition sum (`compositions` with `multilinear_apply`) and the
Neumann inversion (`mat_series_inverse`, `MatSeries.matmul/apply_vec`)
remain as brute-force references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArityMismatchError, SingularMatrixError, VarMismatchError

SERIES_VARS = ("eps", "z", "t")

#: Absolute coefficient tolerance, scaled by the largest coefficient magnitude.
COEFF_TOL = 1e-12

#: Convolution-taming constant (1 + pi^2/3)^(-1) / 2 = 0.1165536...
CONV_TAMING_A = 0.5 / (1.0 + math.pi**2 / 3.0)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{what} contains non-finite entries")


def _check_var(var: str) -> None:
    if var not in SERIES_VARS:
        raise ValueError(f"unknown series variable {var!r}; expected one of {SERIES_VARS}")


@dataclass(frozen=True, eq=False)
class VecSeries:
    """A vector of ``nu`` series sharing variable and order.

    ``coeffs`` has shape ``(nu, order + 1)``; ``coeffs[i, k]`` is coefficient
    ``k`` of component ``i``.
    """

    coeffs: np.ndarray
    var: str = "z"

    def __post_init__(self):
        _check_var(self.var)
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vector series coefficients must have shape (nu, order + 1)")
        _check_finite(arr, "vector series")
        object.__setattr__(self, "coeffs", _freeze(arr.copy()))

    @staticmethod
    def zeros(nu: int, order: int, var: str = "z") -> "VecSeries":
        return VecSeries(np.zeros((nu, order + 1), dtype=np.complex128), var)

    @property
    def nu(self) -> int:
        return self.coeffs.shape[0]

    @property
    def order(self) -> int:
        return self.coeffs.shape[1] - 1

    def coeff_vec(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond trusted order {self.order}")
        return self.coeffs[:, k].copy()

    def norms(self) -> np.ndarray:
        """Euclidean norm of each coefficient vector, indexed by power."""
        return np.linalg.norm(self.coeffs, axis=0)

    def truncate(self, order: int) -> "VecSeries":
        if order > self.order:
            raise ValueError("cannot truncate to a higher order")
        return VecSeries(self.coeffs[:, : order + 1], self.var)

    def pad_to(self, order: int) -> "VecSeries":
        if order <= self.order:
            return self
        c = np.zeros((self.nu, order + 1), dtype=np.complex128)
        c[:, : self.coeffs.shape[1]] = self.coeffs
        return VecSeries(c, self.var)

    def derivative(self) -> "VecSeries":
        if self.order == 0:
            return VecSeries.zeros(self.nu, 0, self.var)
        k = np.arange(1, self.order + 1)
        return VecSeries(self.coeffs[:, 1:] * k, self.var)

    def __add__(self, other: "VecSeries") -> "VecSeries":
        if not isinstance(other, VecSeries):
            return NotImplemented
        if self.var != other.var:
            raise VarMismatchError("vector series variable mismatch")
        k = min(self.order, other.order)
        return VecSeries(self.coeffs[:, : k + 1] + other.coeffs[:, : k + 1], self.var)

    def __sub__(self, other: "VecSeries") -> "VecSeries":
        if not isinstance(other, VecSeries):
            return NotImplemented
        if self.var != other.var:
            raise VarMismatchError("vector series variable mismatch")
        k = min(self.order, other.order)
        return VecSeries(self.coeffs[:, : k + 1] - other.coeffs[:, : k + 1], self.var)

    def __neg__(self) -> "VecSeries":
        return VecSeries(-self.coeffs, self.var)

    def evaluate(self, x: complex) -> np.ndarray:
        acc = np.zeros(self.nu, dtype=np.complex128)
        for k in range(self.order, -1, -1):
            acc = acc * x + self.coeffs[:, k]
        return acc


@dataclass(frozen=True, eq=False)
class MatSeries:
    """A square matrix of series sharing variable and order.

    ``coeffs`` has shape ``(nu, nu, order + 1)``.
    """

    coeffs: np.ndarray
    var: str = "z"

    def __post_init__(self):
        _check_var(self.var)
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] < 1:
            raise ValueError("matrix series coefficients must have shape (nu, nu, order + 1)")
        _check_finite(arr, "matrix series")
        object.__setattr__(self, "coeffs", _freeze(arr.copy()))

    @property
    def nu(self) -> int:
        return self.coeffs.shape[0]

    @property
    def order(self) -> int:
        return self.coeffs.shape[2] - 1

    def constant(self) -> np.ndarray:
        return self.coeffs[:, :, 0].copy()

    def matmul(self, other: "MatSeries") -> "MatSeries":
        if self.var != other.var:
            raise VarMismatchError("matrix series variable mismatch")
        k = min(self.order, other.order)
        out = np.zeros((self.nu, self.nu, k + 1), dtype=np.complex128)
        for p in range(k + 1):
            for q in range(p + 1):
                out[:, :, p] += self.coeffs[:, :, q] @ other.coeffs[:, :, p - q]
        return MatSeries(out, self.var)

    def apply_vec(self, v: VecSeries) -> VecSeries:
        if self.var != v.var:
            raise VarMismatchError("matrix/vector series variable mismatch")
        k = min(self.order, v.order)
        out = np.zeros((self.nu, k + 1), dtype=np.complex128)
        for p in range(k + 1):
            for q in range(p + 1):
                out[:, p] += self.coeffs[:, :, q] @ v.coeffs[:, p - q]
        return VecSeries(out, self.var)


# ---------------------------------------------------------------------------
# compositions and tensor application
# ---------------------------------------------------------------------------

def compositions(total: int, parts: int, min_part: int = 0):
    """Yield every tuple of `parts` integers >= `min_part` summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= min_part:
            yield (total,)
        return
    for first in range(min_part, total - min_part * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, min_part):
            yield (first,) + rest


def multilinear_apply(entries: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Apply a dense multilinear tensor to m vectors.

    `entries` is indexed row-major as ``[i, i_1, ..., i_m]``; the result has
    components ``sum A[i, i_1..i_m] v_1[i_1] ... v_m[i_m]``.  With m = 0 the
    tensor is returned as a plain vector.
    """
    entries = np.asarray(entries, dtype=np.complex128)
    m = entries.ndim - 1
    if len(vectors) != m:
        raise ArityMismatchError(f"tensor of arity {m} applied to {len(vectors)} vectors")
    res = entries
    for v in vectors:
        v = np.asarray(v, dtype=np.complex128)
        if v.shape != (entries.shape[0],):
            raise ArityMismatchError("vector dimension does not match the tensor")
        res = np.tensordot(res, v, axes=([1], [0]))
    return res


# ---------------------------------------------------------------------------
# matrix series inversion
# ---------------------------------------------------------------------------

def mat_series_inverse(t: MatSeries) -> MatSeries:
    """Invert a matrix series whose constant term is invertible.

    Uses the Neumann recursion ``S_0 = T(0)^{-1}``,
    ``S_k = -T(0)^{-1} sum_{j=1..k} T_j S_{k-j}`` and verifies
    ``T S = I + O(var^(K+1))`` to the coefficient tolerance.
    """
    t0 = t.constant()
    svals = np.linalg.svd(t0, compute_uv=False)
    smax = float(svals[0])
    smin = float(svals[-1])
    if smin <= 1e-14 * max(1.0, smax):
        raise SingularMatrixError(
            "constant term of the matrix series is numerically singular "
            f"(norm {smax:.3e}, smallest singular value {smin:.3e})",
            norm=smax, smallest_singular_value=smin)
    nu, order = t.nu, t.order
    t0inv = np.linalg.solve(t0, np.eye(nu, dtype=np.complex128))
    s = np.zeros((nu, nu, order + 1), dtype=np.complex128)
    s[:, :, 0] = t0inv
    for k in range(1, order + 1):
        acc = np.zeros((nu, nu), dtype=np.complex128)
        for j in range(1, k + 1):
            acc += t.coeffs[:, :, j] @ s[:, :, k - j]
        s[:, :, k] = -t0inv @ acc
    inv = MatSeries(s, t.var)
    resid = t.matmul(inv).coeffs.copy()
    resid[:, :, 0] -= np.eye(nu)
    scale = max(1.0, float(np.abs(t.coeffs).max()), float(np.abs(s).max()))
    worst = float(np.abs(resid).max())
    if worst > COEFF_TOL * scale:
        raise SingularMatrixError(
            f"matrix series inverse failed verification (residual {worst:.3e}, "
            f"condition number {smax / smin:.3e})",
            norm=smax, smallest_singular_value=smin)
    return inv


# ---------------------------------------------------------------------------
# Taylor-jet kernel
# ---------------------------------------------------------------------------

def _fit(t: np.ndarray, L: int) -> np.ndarray:
    """Truncate or zero-pad the trailing series axis to length L."""
    out = np.zeros(t.shape[:-1] + (L,), dtype=t.dtype)
    n = min(t.shape[-1], L)
    out[..., :n] = t[..., :n]
    return out


def _series_dot(t: np.ndarray, x: np.ndarray, L: int) -> np.ndarray:
    """Contract the last slot of `t` (shape (..., nu, A), trailing series
    axis) with the vector series `x` (nu, B), truncated to length L.

    One tensordot against the Toeplitz array X[j, a, q] = x[j, q - a]."""
    A = min(t.shape[-1], L)
    n = min(x.shape[1], L)
    padded = np.zeros((x.shape[0], A - 1 + L), dtype=np.result_type(t, x))
    padded[:, A - 1:A - 1 + n] = x[:, :n]
    toeplitz = sliding_window_view(padded, L, axis=1)[:, ::-1]
    return np.tensordot(t[..., :A], toeplitz, axes=([-2, -1], [0, 1]))


def _jet_apply(entries: np.ndarray, factors: list[np.ndarray], L: int) -> np.ndarray:
    """Contract the trailing slots of a block with vector series, one slot
    per factor (the last factor goes into the last slot), truncated to
    length L; leading slots that get no factor stay free."""
    t = entries
    for x in reversed(factors):
        t = _series_dot(t, x, L)
    return _fit(t, L) if not factors else t


def solve_triangular(blocks: list[tuple[int, np.ndarray]], x: np.ndarray,
                     solve: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Fill the coefficients x[:, 1:] of a vector series in place, in order.

    `blocks` lists (m, e) with e a block of arity m whose entries are
    series.  At step k the coefficient k of sum e(x, ..., x) is formed with
    x_k still zero, and ``solve(k, c)`` returns x_k.  This fits every
    recursion in which x_k enters coefficient k only through a linear term
    that `solve` inverts.  x[:, 0] is the given start; the later columns
    must be zero on entry.
    """
    for k in range(1, x.shape[1]):
        c = sum(_jet_apply(e, [x[:, : k + 1]] * m, k + 1)[:, k] for m, e in blocks)
        x[:, k] = solve(k, c)
    return x


# ---------------------------------------------------------------------------
# convolution-taming inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaConvReport:
    """Outcome of the convolution-taming inequality scan."""

    passed: bool
    max_ratio: float
    worst_m: int
    lam: float
    c0_is_A: bool
    m_max: int
    A: float = CONV_TAMING_A


def lemma_conv_bound(lam: float, c0_is_A: bool, m_max: int) -> LemmaConvReport:
    """Check ``sum_{l=0..m} C_l C_{m-l} <= C_m`` for the weight sequence
    ``C_l = A (l!)^lam / l**2`` (l >= 1) with ``C_0`` either ``A`` or 0.

    Factorials enter only through log-magnitudes, so the scan is overflow-free
    for any `lam`.  Returns the maximal ratio over ``m <= m_max`` and a pass
    verdict at tolerance 1e-12.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    ls = np.arange(1, m_max + 1, dtype=np.float64)
    log_c = np.empty(m_max + 1, dtype=np.float64)
    log_a = math.log(CONV_TAMING_A)
    log_c[0] = log_a if c0_is_A else -np.inf
    log_c[1:] = log_a + lam * np.array([math.lgamma(l + 1.0) for l in ls]) - 2.0 * np.log(ls)

    max_ratio = 0.0
    worst_m = 0
    for m in range(m_max + 1):
        if m == 0:
            ratio = CONV_TAMING_A if c0_is_A else 0.0
        else:
            terms = log_c[: m + 1] + log_c[m::-1] - log_c[m]
            finite = terms[np.isfinite(terms)]
            ratio = float(np.exp(finite).sum()) if finite.size else 0.0
        if ratio > max_ratio:
            max_ratio = ratio
            worst_m = m
    return LemmaConvReport(passed=max_ratio <= 1.0 + 1e-12, max_ratio=max_ratio,
                           worst_m=worst_m, lam=lam, c0_is_A=c0_is_A, m_max=m_max)
