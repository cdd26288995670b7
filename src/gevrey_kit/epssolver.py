"""Formal eps-expansion: a_0 from the algebraic limit equation, then the
linear recursion for a_i, all as truncated z-series.

a_0 solves F(0, z, a_0(z)) = 0 with a_0(0) = 0 by a triangular coefficient
recursion.  For i >= 1 the coefficient of eps^i in the equation isolates

    T_0(z) a_i = z a'_{i-1}(z) - R_i(z),

where T_0 collects the f-derivative of the eps-constant part of F along
a_0, and R_i is the coefficient of eps^i of F with a_i set to zero: blocks
with eps-power n >= 1 convolved (offset 0) over (a_0, ..., a_{i-n}), plus
the eps-constant nonlinear blocks applied to compositions of i that involve
at least two indices below i.  Dropping the latter cross terms is the
classic mistake; the double-series consistency test against the fixed-eps
solver pins them down.

One order-i step (`_order_step`) builds R_i once with the Taylor-jet kernel
of `series` and solves for a_i by forward substitution against the
coefficients of T_0.  It serves both the z-series at 0 (`solve_ai`) and the
jets at a point z (`eps_values_at`).  `solve_eps_expansion` checks every
order against the whole coefficient-eps^i equation, a_i included.

Each a_i is delivered to z-order K_z - i: one order is reserved per
eps-step, and the honest order is recorded on the returned series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GevreyKitError, InsufficientOrderError, SingularMatrixError
from .problem import ProblemSpec, assemble_B
from .series import MatSeries, VecSeries, _jet_apply, compositions, solve_triangular

_RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class EpsFormalSolution:
    """Coefficients a_0..a_I of the formal eps-expansion at truncation K_z.

    ``a[i]`` is a z-VecSeries delivered to order K_z - i; T0 is the
    linearized operator along a_0 that every order is solved against.
    """

    a: tuple[VecSeries, ...]
    T0: MatSeries
    K_z: int
    residuals: tuple[float, ...]

    @property
    def I(self) -> int:
        return len(self.a) - 1

    def values_at(self, z: complex) -> np.ndarray:
        """Stack of a_i(z) values, shape (I+1, nu), summed from the z-series
        at 0; `eps_values_at` keeps its digits away from z = 0."""
        return np.stack([ai.evaluate(z) for ai in self.a])


def _blocks0(p: ProblemSpec) -> list[tuple[int, np.ndarray]]:
    """The eps-constant blocks as (arity, z-polynomial entries)."""
    return [(m, b) for (j, m), b in assemble_B(p).items() if j == 0]


def solve_a0(p: ProblemSpec, K_z: int) -> VecSeries:
    """Power-series solution of F(0, z, a_0(z)) = 0 with a_0(0) = 0.

    Triangular recursion on the coefficients: a_0[k] enters coefficient k
    only through the linear block at z = eps = 0, which is solved against
    everything else (earlier coefficients only, since a_0(0) = 0).
    """
    if K_z < 1:
        raise ValueError("K_z must be >= 1")
    p.require_normalized()
    a01 = p.a01(0.0)
    a0 = np.zeros((p.nu, K_z + 1), dtype=np.complex128)
    solve_triangular(_blocks0(p), a0, lambda k, c: -np.linalg.solve(a01, c))
    return VecSeries(a0, var="z")


def _T0_jet(blocks0, a0: np.ndarray, L: int) -> np.ndarray:
    """Jet of T_0 = d_f F(0, z, a_0) through length L, shape (nu, nu, L):
    for each free slot, every other slot takes a_0."""
    return sum(_jet_apply(np.moveaxis(e, 1 + free, 1), [a0] * (m - 1), L)
               for m, e in blocks0 for free in range(m))


def build_T0(p: ProblemSpec, a0: VecSeries, K_z: int) -> MatSeries:
    """T_0(z) = B_{0,1}(z) + sum_{m>=2} m B_{0,m}(z) a_0^{m-1} through z-order K_z.

    For non-symmetric blocks the derivative sum runs over the free slot, so
    entry (i, i') collects each block with one slot left open and the others
    contracted with a_0.
    """
    p.require_normalized()
    return MatSeries(_T0_jet(_blocks0(p), a0.coeffs, K_z + 1), var="z")


def contraction_estimate(p: ProblemSpec, a0: VecSeries, kappa: float, c: float,
                         n_samples: int = 33) -> float:
    """Sampled estimate of c * (||B01(z) - B01(0)|| + sum_m m ||B0m(z)||
    ||a_0(z)||^{m-1}) on |z| <= kappa, the contraction quantity controlling
    invertibility of T_0 on that disc (< 1 means safely invertible)."""
    b_map = assemble_B(p)
    worst = 0.0
    for s in range(1, n_samples + 1):
        z = kappa * s / n_samples
        total = 0.0
        a0z = float(np.linalg.norm(a0.evaluate(z)))
        for (j, m), block in b_map.items():
            if j != 0 or m < 1:
                continue
            flat = block.reshape(-1, block.shape[-1])
            vals = flat @ (z ** np.arange(flat.shape[1]))
            if m == 1:
                b01z = vals.reshape(p.nu, p.nu)
                const = flat[:, 0].reshape(p.nu, p.nu)
                total += float(np.linalg.norm(b01z - const, 2))
            else:
                total += m * float(np.linalg.norm(vals)) * a0z ** (m - 1)
        worst = max(worst, c * total)
    return worst


def _eps_coeff(blocks, jets: list[np.ndarray], i: int, L: int) -> np.ndarray:
    """Jet coefficients 0..L-1 of [eps^i] F(eps, z0 + h, sum_l a_l eps^l).

    `blocks` maps (eps-power j, arity m) to entries whose trailing axis holds
    h-coefficients; the sum over l runs over the given jets.  With
    a_0..a_{i-1} this is R_i; with a_0..a_i it is the whole coefficient.
    """
    return sum(_jet_apply(e, [jets[l] for l in comp], L)
               for (j, m), e in blocks.items() if j <= i
               for comp in compositions(i - j, m, 0) if max(comp, default=0) < len(jets))


def _order_step(blocks, jets: list[np.ndarray], z0, t0: np.ndarray,
                t0_inv: np.ndarray, L: int) -> np.ndarray:
    """a_i for i = len(jets), to length L in h = z - z0, from
    T_0 a_i = (z0 + h) a'_{i-1} - R_i.

    R_i is built once; a_i follows by forward substitution against the
    h-coefficients of T_0 (`t0`, shape (nu, nu, >= L)), with `t0_inv` the
    inverse of its constant term.  a_{i-1} must be known to length L + 1.
    """
    prev = jets[-1]
    k = np.arange(L)
    rhs = z0 * prev[:, 1: L + 1] * (k + 1) + prev[:, :L] * k
    rhs = rhs - _eps_coeff(blocks, jets, len(jets), L)
    nu = rhs.shape[0]
    ai = np.zeros((nu, L), dtype=rhs.dtype)
    for q in range(L):
        acc = rhs[:, q]
        if q:
            acc = acc - (t0[:, :, 1: q + 1].reshape(nu, -1) @ ai[:, q - 1::-1].reshape(-1))
        ai[:, q] = t0_inv @ acc
    return ai


def solve_ai(p: ProblemSpec, a_so_far: list[VecSeries], i: int, K_z: int,
             T0: MatSeries | None = None) -> VecSeries:
    """Next coefficient a_i from T_0 a_i = z a'_{i-1} - R_i, delivered to
    z-order K_z - i."""
    if i < 1 or len(a_so_far) != i:
        raise ValueError("need exactly the coefficients a_0..a_{i-1}")
    target = K_z - i
    if target < 1:
        raise InsufficientOrderError(
            f"truncation K_z = {K_z} cannot support order-{i} coefficients")
    if T0 is None:
        T0 = build_T0(p, a_so_far[0], K_z)
    blocks = assemble_B(p)
    t0 = T0.coeffs
    ai = _order_step(blocks, [a.coeffs for a in a_so_far], 0.0, t0,
                     np.linalg.inv(t0[:, :, 0]), target + 1)
    return VecSeries(ai, var="z")


def solve_eps_expansion(p: ProblemSpec, I: int, K_z: int) -> EpsFormalSolution:
    """Compute a_0..a_I and check each a_i against the whole coefficient of
    eps^i in eps z f' = F(eps, z, f), a_i included."""
    if I < 0:
        raise ValueError("I must be >= 0")
    if K_z - I < 1 and I >= 1:
        raise InsufficientOrderError(
            f"truncation K_z = {K_z} cannot deliver {I} eps-orders")
    p.require_normalized()
    a0 = solve_a0(p, K_z)
    t0 = build_T0(p, a0, K_z)
    blocks = assemble_B(p)
    a_list = [a0]
    residuals = [0.0]
    for i in range(1, I + 1):
        ai = solve_ai(p, a_list, i, K_z, T0=t0)
        L = K_z - i + 1
        za_prime = a_list[i - 1].coeffs[:, :L] * np.arange(L)
        resid = za_prime - _eps_coeff(blocks, [x.coeffs for x in a_list] + [ai.coeffs], i, L)
        rel = float(np.abs(resid).max()) / max(1.0, float(np.abs(za_prime).max()))
        if rel > _RESIDUAL_RTOL:
            raise GevreyKitError(f"defining relation for a_{i} left residual {rel:.3e}")
        residuals.append(rel)
        a_list.append(ai)
    return EpsFormalSolution(a=tuple(a_list), T0=t0, K_z=K_z, residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# point values a_i(z) from Taylor jets at z
# ---------------------------------------------------------------------------

#: z-order of the a_0 series that starts the Newton iteration for a_0(z)
_A0_START_ORDER = 40
_NEWTON_MAX_ITER = 60


def _recentre(poly: np.ndarray, z0) -> np.ndarray:
    """Coefficients of p(z0 + h) in h from those of p(z) (trailing axis)."""
    out = np.zeros_like(poly)
    for n in range(poly.shape[-1]):
        for q in range(n + 1):
            out[..., q] += math.comb(n, q) * z0 ** (n - q) * poly[..., n]
    return out


def _F0_jet(blocks0, a0: np.ndarray, L: int) -> np.ndarray:
    """h-jet of F(0, z0 + h, a_0) through length L, shape (nu, L)."""
    return sum(_jet_apply(e, [a0] * m, L) for m, e in blocks0)


def is_mpmath(x) -> bool:
    """True for mpmath numbers, tested without importing mpmath."""
    return type(x).__module__.split(".")[0] == "mpmath"


def eps_values_at(p: ProblemSpec, z, I: int) -> np.ndarray:
    """Point values a_0(z)..a_I(z) of the formal eps-expansion, shape (I+1, nu).

    `EpsFormalSolution.values_at` sums the z-series at 0, which loses every
    digit that the terms a_{i,k} z^k outgrow a_i(z) by.  This works at z
    itself, on jets in h = z' - z:

    * Newton solves F(0, z, a_0) = 0, started from the a_0 series at 0.
    * The h-coefficients of a_0 and, for i >= 1, of T_0(z + h) a_i =
      (z + h) a'_{i-1} - R_i are found one at a time from triangular
      systems with the constant matrix T_0(z), by the order-i step that
      `solve_ai` runs at z = 0.
    * a_i is carried to h-order I - i, exactly what the next order needs.

    Arithmetic is complex128 for a Python or numpy `z`, and the current
    mpmath precision (object arrays of mpc) when `z` is an mpmath number.
    """
    if I < 0:
        raise ValueError("I must be >= 0")
    p.require_normalized()
    nu = p.nu
    if is_mpmath(z):
        import mpmath

        z0 = mpmath.mpc(z)
        unit = 2.0 ** -mpmath.mp.prec
        work = np.frompyfunc(mpmath.mpc, 1, 1)

        def inverse(m: np.ndarray) -> np.ndarray:
            return np.array(mpmath.inverse(mpmath.matrix(m.tolist())).tolist(), dtype=object)
    else:
        z0 = complex(z)
        unit = 2.0 ** -53
        work = np.asarray

        def inverse(m: np.ndarray) -> np.ndarray:
            return np.linalg.inv(m)

    blocks = {key: _recentre(work(b), z0) for key, b in assemble_B(p).items()}
    blocks0 = [(m, e) for (j, m), e in blocks.items() if j == 0]

    def jacobian_inverse(c: np.ndarray) -> np.ndarray:
        jac = _T0_jet(blocks0, c[:, None], 1)[..., 0]
        svals = np.linalg.svd(jac.astype(np.complex128), compute_uv=False)
        if float(svals[-1]) <= 1e-14 * max(1.0, float(svals[0])):
            raise SingularMatrixError(
                f"T_0({complex(z0)}) is numerically singular "
                f"(smallest singular value {float(svals[-1]):.3e})",
                norm=float(svals[0]), smallest_singular_value=float(svals[-1]))
        return inverse(jac)

    # a_0(z) by Newton from the double-precision a_0 series
    start = solve_a0(p, _A0_START_ORDER).evaluate(complex(z0))
    c = work(start)
    scale = max(float(np.linalg.norm(start)), 1.0)
    for _ in range(_NEWTON_MAX_ITER):
        step = jacobian_inverse(c) @ _F0_jet(blocks0, c[:, None], 1)[:, 0]
        c = c - step
        if float(np.linalg.norm(step.astype(np.complex128))) <= 16 * unit * scale:
            break
    else:
        raise GevreyKitError(f"Newton for a_0({complex(z0)}) did not converge")
    if float(np.linalg.norm(c.astype(np.complex128) - start)) > 1e-6 * scale:
        raise GevreyKitError(
            f"the a_0 series at order {_A0_START_ORDER} does not resolve a_0 "
            f"at z = {complex(z0)}")

    # h-jet of a_0: order k is linear in a_0[k] through T_0(z)
    t0_inv = jacobian_inverse(c)
    a0 = np.zeros((nu, I + 1), dtype=c.dtype)
    a0[:, 0] = c
    solve_triangular(blocks0, a0, lambda k, rhs: -(t0_inv @ rhs))
    t0 = _T0_jet(blocks0, a0, I + 1)

    jets = [a0]
    for i in range(1, I + 1):
        jets.append(_order_step(blocks, jets, z0, t0, t0_inv, I - i + 1))
    return np.stack([a[:, 0] for a in jets])
