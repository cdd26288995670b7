"""Truncated power series over complex vectors and matrices, and the
Taylor-jet kernel: the one module that multiplies, divides, shifts or
evaluates truncated series.

A series here is a plain complex array of exactly the coefficients it
knows, the power on the last axis: a vector series of nu components has
shape (nu, order + 1), a matrix series (a `MatSeries`) (nu, nu, order + 1).
Coefficients beyond the recorded order are *unknown*, not zero.

Every solver recursion runs on one Taylor-jet kernel (Taylor-mode
arithmetic, Griewank & Walther, *Evaluating Derivatives*, ch. 13).
`_cauchy` contracts the last slot of a block whose entries are truncated
series with series: one matrix product forms every product of two
coefficients, and sums over its anti-diagonals give the truncated Cauchy
product, in any dtype numpy can multiply (complex128 or object arrays of
mpmath numbers); `_jet_apply` fills every slot with it, in `MatSeries`
products too.
`solve_triangular` solves for the coefficients of an unknown series one at
a time, each coefficient a vector of jets.  It keeps the partial
contractions of every block and extends them by one coefficient per step
(the online scheme of van der Hoeven), so step k costs O(k).  Leading
batch axes carry independent problems through the same steps (the vector
mode of Taylor arithmetic, ibid.).  With jets of length 1 it runs the
z-recursion at every eps of a batch, a_0 and the normalization shift; with
jets in h it runs the eps-orders.  `_divide` solves t x = rhs by forward
substitution, for T_0 a_i = rhs and, column by column, for
`mat_series_inverse`.  `_taylor_shift` re-centres polynomials, `_horner`
sums every polynomial at a point, and `_norm2` is the package's one
2-norm, of coefficients, terms, residuals and Newton steps, each scaled
exactly by a power of two so that it cannot overflow or underflow short
of the double range.  `multilinear_apply` applies one block to plain
vectors for `ProblemSpec.eval_F`, which shares no code with the kernel it
checks.  The composition sum, the Cauchy contraction by plain loops, and
the convolution-taming constant with its inequality, are test oracles
(tests/oracles.py).

Every module asks three verdicts of this one: `_working` picks the
arithmetic, `_checked_inverse` refuses a singular matrix and
`_check_relation` a relation that does not hold, both by tests relative
to the problem's scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatchError, GevreyKitError, SingularMatrixError

#: Absolute coefficient tolerance, scaled by the largest coefficient magnitude.
COEFF_TOL = 1e-12
#: a matrix whose smallest singular value is at most this times its largest is singular
SINGULAR_RTOL = 1e-14
#: a relation holds when no residual exceeds this times max(1, |scale|)
RELATION_RTOL = 1e-10


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{what} contains non-finite entries")


def _horner(coeffs: np.ndarray, x):
    """sum_k coeffs[k] * x**k by Horner's rule, the power on the leading
    axis.  The sum starts from 0, not from np.broadcast_shapes, which stops
    at 32 axes where a block may have up to 64."""
    acc = 0
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _working(*values) -> tuple[Callable, float]:
    """(coerce, unit roundoff) of the arithmetic for `values`: the current
    mpmath precision when one is an mpmath number (told without importing
    mpmath), else complex128.  `coerce` takes a number to a number and an
    array to an array (of mpc objects, or complex128 without a copy)."""
    if any(type(v).__module__.split(".")[0] == "mpmath" for v in values):
        import mpmath

        return np.frompyfunc(mpmath.mpc, 1, 1), 2.0 ** -mpmath.mp.prec
    return np.complex128, 2.0 ** -53


def _checked_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """The inverse of `m` in its own arithmetic (complex128, or mpmath for an
    object array), unless its smallest singular value is at most
    SINGULAR_RTOL times its largest: then SingularMatrixError names `what`."""
    svals = np.linalg.svd(m.astype(np.complex128), compute_uv=False)
    if not svals[-1] > SINGULAR_RTOL * svals[0]:
        raise SingularMatrixError(f"{what} is numerically singular "
                                  f"(smallest singular value {float(svals[-1]):.3e})")
    if m.dtype != object:
        return np.linalg.inv(m)
    import mpmath

    return np.array(mpmath.inverse(mpmath.matrix(m.tolist())).tolist(), dtype=object)


def _check_relation(resid, scale, what: str, where: str, *, rtol: float = RELATION_RTOL,
                    error: type[GevreyKitError] = GevreyKitError) -> None:
    """Check the largest |resid| relative to max(1, |scale|), entry by entry
    (a scalar `scale` serves every entry): raise `error` naming `what` and
    `where` when it exceeds `rtol` or is NaN, else return nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel = float(np.max(np.abs(resid) / np.maximum(1.0, np.abs(scale))))
    if not rel <= rtol:
        raise error(f"{what} left residual {rel:.3e} {where}")


def _norm2(v, axis: int | None = None):
    """2-norm in complex128 of `v` along `axis` (of all of it when None).
    Each slice is scaled by 2**-e, e the binary exponent of its largest real
    or imaginary part, before its squares are summed, and scaled back after
    (the xNRM2 scaling of LAPACK, Blue, ACM TOMS 4, 1978).  A power of two
    scales exactly, so a norm whose squares stay in range keeps its bits,
    and no norm overflows or underflows short of the double range."""
    v = np.asarray(v, dtype=np.complex128)
    e = np.frexp(np.maximum(abs(v.real), abs(v.imag)).max(axis=axis, keepdims=True))[1]
    scaled = np.empty_like(v)
    scaled.real, scaled.imag = np.ldexp(v.real, -e), np.ldexp(v.imag, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.ldexp(np.linalg.norm(scaled, axis=axis, keepdims=True), e)
    return norm.squeeze(axis)[()]


@dataclass(frozen=True, eq=False)
class MatSeries:
    """A square matrix of series sharing one order.

    ``coeffs`` has shape ``(nu, nu, order + 1)``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] < 1:
            raise ValueError("matrix series coefficients must have shape (nu, nu, order + 1)")
        _check_finite(arr, "matrix series")
        object.__setattr__(self, "coeffs", _freeze(arr.copy()))

    @property
    def order(self) -> int:
        return self.coeffs.shape[2] - 1

    def matmul(self, other: "MatSeries") -> "MatSeries":
        L = min(self.order, other.order) + 1
        return MatSeries(np.stack([_jet_apply(self.coeffs, [col], L)
                                   for col in other.coeffs.swapaxes(0, 1)], axis=1))

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        """This matrix series times the vector series `v`, shape (nu, order
        + 1), to the lower of the two orders."""
        return _jet_apply(self.coeffs, [v], min(self.order, v.shape[1] - 1) + 1)


# ---------------------------------------------------------------------------
# compositions and tensor application
# ---------------------------------------------------------------------------

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

    Solves ``T S = I`` column by column with the series division `_divide`
    and verifies ``T S = I`` through order K to the coefficient tolerance.
    """
    t0inv = _checked_inverse(t.coeffs[:, :, 0], "constant term of the matrix series")
    eye = np.eye(len(t.coeffs), dtype=np.complex128)
    s = np.stack([_divide(_fit(e[:, None], t.order + 1), t.coeffs, t0inv) for e in eye], axis=1)
    inv = MatSeries(s)
    resid = t.matmul(inv).coeffs.copy()
    resid[:, :, 0] -= eye
    _check_relation(resid, max(float(np.abs(t.coeffs).max()), float(np.abs(s).max())),
                    "matrix series inverse", "in T S = I", rtol=COEFF_TOL,
                    error=SingularMatrixError)
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


def _cauchy(s: np.ndarray, x: np.ndarray, L: int) -> np.ndarray:
    """sum_t s[..., :, t, :] * x[:, t, :] truncated to length L, with * the
    contraction of the last slot of `s` (shape (..., nu, n, A), trailing
    series axis) with the series x[:, t] (x has shape (nu, n, B)) by the
    truncated Cauchy product.

    One matrix product forms every term, y[..., a, b] = sum_{j, t}
    s[..., j, t, a] x[j, t, b], and coefficient q sums y over the
    anti-diagonal a + b = q.  y goes into zero rows of length W = L + A;
    read back as rows of length W - 1, row a has moved a places to the
    right, so each anti-diagonal is a column, summed in the order of a.
    With L = 1 the one term is the product itself.

    Leading axes of x beyond these three are batch axes, which `s` leads
    with too: independent problems, contracted by one batched matrix
    product."""
    batch = x.shape[:-3]
    J = x.shape[-3] * x.shape[-2]
    if L == 1:
        flat = s[..., :1].reshape(batch + (-1, J))
        return (flat @ x[..., :1].reshape(batch + (J, 1))).reshape(s.shape[:-3] + (1,))
    A, B = min(s.shape[-1], L), min(x.shape[-1], L)
    rows = np.swapaxes(s[..., :A].reshape(batch + (-1, J, A)), -1, -2).reshape(batch + (-1, J))
    W = L + A
    y = np.zeros(rows.shape[:-1] + (W,), dtype=np.result_type(s, x))
    np.matmul(rows, x[..., :B].reshape(batch + (J, B)), out=y[..., :B])
    sheared = y.reshape(batch + (-1, A * W))[..., :A * (W - 1)].reshape(batch + (-1, A, W - 1))
    return np.add.reduce(sheared[..., :L], axis=-2).reshape(s.shape[:-3] + (L,))


def _jet_apply(entries: np.ndarray, factors: list[np.ndarray], L: int) -> np.ndarray:
    """Contract the trailing slots of a block with vector series, one slot
    per factor (the last factor goes into the last slot), truncated to
    length L; leading slots that get no factor stay free."""
    t = entries
    for x in reversed(factors):
        t = _cauchy(t[..., None, :], x[:, None, :], L)
    return _fit(t, L) if not factors else t


def _divide(rhs: np.ndarray, t: np.ndarray, t0_inv: np.ndarray) -> np.ndarray:
    """The series x with t x = rhs, by forward substitution: `rhs` has
    shape (nu, L), `t` holds the coefficients of a matrix series (shape
    (nu, nu, >= L)) and `t0_inv` the inverse of its constant term."""
    nu, L = rhs.shape
    x = np.zeros((nu, L), dtype=rhs.dtype)
    for q in range(L):
        acc = rhs[:, q]
        if q:
            acc = acc - (t[:, :, 1: q + 1].reshape(nu, -1) @ x[:, q - 1::-1].reshape(-1))
        x[:, q] = t0_inv @ acc
    return x


def _taylor_shift(poly: np.ndarray, z0) -> np.ndarray:
    """Coefficients of p(z0 + h) in h from those of p(z) (trailing axis):
    coefficient q is sum_n C(n, q) p_n z0^(n - q), summed by `_horner` in
    z0.  A shift that overflows comes out non-finite, without a warning;
    the caller checks for it."""
    N = poly.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([_horner([math.comb(n, q) * poly[..., n] for n in range(q, N)], z0)
                         for q in range(N)], axis=-1)


def solve_triangular(blocks: list[tuple[int, np.ndarray]], x: np.ndarray,
                     solve: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Fill the coefficients x[:, 1:] of a series in place, in order, and
    return the whole coefficients of sum e(x, ..., x), shape of x.

    Coefficient k of the unknown is a vector of jets: x has shape
    (nu, K, L), and coefficient k is carried to jet length L_k =
    max(L - k, 1).  `blocks` lists (m, e) with e a block of arity m, shape
    (nu,) * (m + 1) + (J, L_e): its coefficient j in the recursion variable
    is e[..., j, :], with jets of length L_e as entries.  Products are
    truncated Cauchy products of jets; with L = 1 they are plain products.
    At step k the coefficient k of sum e(x, ..., x) is formed with x_k
    still zero, and ``solve(k, c)`` returns x_k, of shape (nu, L_k).  This
    fits every recursion in which x_k enters coefficient k only through a
    linear term that `solve` inverts.  x[..., 0, :] is the given start; the
    later coefficients must be zero on entry.

    Independent problems run as one: x of shape batch + (nu, K, L) and
    blocks that lead with the same batch axes share every step, each
    contraction one batched matrix product, and c and x_k lead with the
    batch axes too.  Without batch axes nothing changes.

    The scheme is online (van der Hoeven, *Relax, but don't be too lazy*,
    JSC 2002): each block keeps its partial contractions S_r, r = 1..m-1,
    the block with its r trailing slots contracted against x, and step k
    adds coefficient k to each of them with one matrix product, so a step
    costs O(k), not a recontraction of the whole series.  Overflow is left
    to the caller, which sees the non-finite coefficient in `solve` or in
    x.
    """
    K, L = x.shape[-2:]
    nb = x.ndim - 3
    dtype = np.result_type(x, *(e for _, e in blocks))
    whole = np.zeros(x.shape, dtype=dtype)
    # parts[r] = S_r with shape batch + (nu,) * (m + 1 - r) + (K, L); parts[0] is the block
    state = [(m, [e] + [np.zeros(e.shape[:nb + m + 1 - r] + (K, L), dtype=dtype)
                        for r in range(1, m)]) for m, e in blocks]
    x0_zero = not np.any(x[..., 0, :])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            Lk = max(L - k, 1)
            # S_r[k] = sum_t S_{r-1}[t] * x_{k-t}, without t = 0 (x_k) past the start
            first = 1 if k else 0
            back = x[..., k - first::-1, :]
            c = np.zeros(x.shape[:-2] + (Lk,), dtype=dtype)
            for m, parts in state:
                if not m:
                    if k < parts[0].shape[-2]:
                        w = min(Lk, parts[0].shape[-1])
                        c[..., :w] += parts[0][..., k, :w]
                    continue
                for r in range(1, m + 1):
                    n = min(k + 1, parts[r - 1].shape[-2]) - first
                    if n <= 0:
                        continue
                    t = _cauchy(parts[r - 1][..., first:first + n, :], back[..., :n, :], Lk)
                    if r < m:
                        parts[r][..., k, :Lk] = t
                    else:
                        c += t
            if not k:
                whole[..., 0, :] = c
                continue
            x[..., k, :Lk] = solve(k, c)
            wk = whole[..., k, :Lk]
            wk[...] = c
            # x_k enters S_r[k] through S_{r-1}[0] x_k and S_{r-1}[k] x_0;
            # with x_0 = 0 only the first term of S_1 is left.  x[..., k::-k]
            # holds x_k and x_0.
            pair = x[..., k::-k, :Lk]
            for m, parts in state:
                if not m:
                    continue
                delta = _cauchy(parts[0][..., :1, :], pair[..., :1, :], Lk)
                for r in range(1, m):
                    parts[r][..., k, :Lk] += delta
                    if x0_zero:
                        break
                    delta = _cauchy(np.stack([parts[r][..., 0, :Lk], delta], axis=-2), pair, Lk)
                else:
                    wk += delta
    return whole
