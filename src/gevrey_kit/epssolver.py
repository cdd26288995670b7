"""Formal eps-expansion: a_0 from the algebraic limit equation, then the
linear recursion for a_i, all as truncated Taylor jets at one centre.

a_0 solves F(0, z, a_0(z)) = 0.  For i >= 1 the coefficient of eps^i in
the equation isolates

    T_0(z) a_i = z a'_{i-1}(z) - R_i(z),

where T_0 collects the f-derivative of the eps-constant part of F along
a_0, and R_i is the coefficient of eps^i of F with a_i set to zero: blocks
with eps-power n >= 1 convolved (offset 0) over (a_0, ..., a_{i-n}), plus
the eps-constant nonlinear blocks applied to compositions of i that involve
at least two indices below i.  Dropping the latter cross terms is the
classic mistake; the double-series consistency test against the fixed-eps
solver pins them down.

One driver, `_jets_at(p, z, I, L, where)`, runs this recursion at a centre
z on jets in h = z' - z and returns a_0..a_I, a_i to h-length L - i.  It
works in complex128, or at the current mpmath precision when z is an
mpmath number, on the (eps, z) coefficient arrays of
`problem.assemble_B`, shifted to z by `series._taylor_shift`.  a_0(z) is
0 at the origin (the problem is normalized) and elsewhere a Newton root
started from the a_0 series at 0.  The h-coefficients of a_0 follow one at
a time against T_0(z)^-1, and from them the jet of T_0.  The orders run on
the online kernel `series.solve_triangular` over jets, with eps as the
recursion variable and the h-coefficients as entries; the kernel keeps
each block's eps-Cauchy partial contractions against sum_l a_l eps^l, so
order i costs O(i) where the composition sum costs O(i^(m-1)).  Order i is
formed with a_i = 0, which is R_i; a_i follows by the forward substitution
`series._divide` against T_0; the kernel then adds the terms linear in
a_i, which gives the whole eps^i coefficient, and every a_i is checked for
overflow and against it; a failed check raises.

`solve_a0` (I = 0) and `solve_eps_expansion` (L = K_z + 1) are the driver
at 0, whose jets are the z-series; `solve_ai` is one order of
`solve_eps_expansion`; `eps_values_at` is the driver at z with L = I + 1,
read at h = 0.  Each a_i of the z-series is delivered to z-order K_z - i:
one order is reserved per eps-step, and entry i of the tuple that
`solve_eps_expansion` returns is the array of a_i, with exactly
K_z - i + 1 z-coefficients.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import GevreyKitError, InsufficientOrderError
from .problem import ProblemSpec, assemble_B
from .series import (MatSeries, _check_relation, _checked_inverse, _divide, _horner,
                     _jet_apply, _norm2, _taylor_shift, _working, solve_triangular)


def _T0_jet(blocks0, a0: np.ndarray, L: int) -> np.ndarray:
    """Jet of T_0 = d_f F(0, z, a_0) through length L, shape (nu, nu, L):
    for each free slot, every other slot takes a_0."""
    return sum(_jet_apply(np.moveaxis(e, 1 + free, 1), [a0] * (m - 1), L)
               for m, e in blocks0 for free in range(m))


def build_T0(p: ProblemSpec, a0: np.ndarray, K_z: int) -> MatSeries:
    """T_0(z) = B_{0,1}(z) + sum_{m>=2} m B_{0,m}(z) a_0^{m-1} through z-order K_z.

    For non-symmetric blocks the derivative sum runs over the free slot, so
    entry (i, i') collects each block with one slot left open and the others
    contracted with a_0, given by its z-coefficients, shape (nu, >= 1).
    """
    p.require_normalized()
    blocks0 = [(m, e[..., 0, :]) for m, e in assemble_B(p).items()]
    return MatSeries(_T0_jet(blocks0, a0, K_z + 1))


def _lin_rhs(prev: np.ndarray, z0, L: int) -> np.ndarray:
    """h-coefficients 0..L-1 of (z0 + h) a'(z0 + h) from those of a."""
    k = np.arange(L)
    return z0 * prev[:, 1: L + 1] * (k + 1) + prev[:, :L] * k


def _solve_orders(blocks: dict[int, np.ndarray], a: np.ndarray, z0, t0: np.ndarray,
                  t0_inv: np.ndarray, where: str) -> None:
    """Fill a = (a_0, ..., a_I), shape (nu, I + 1, L_0) with a_0 given, from
    T_0 a_i = (z0 + h) a'_{i-1} - R_i, a_i to h-length L_0 - i, each checked
    for overflow and against the whole eps^i coefficient.  `blocks` are the
    arrays of `assemble_B`, their z-axis in h = z - z0."""
    orders, L0 = a.shape[1:]

    def solve(i: int, forcing: np.ndarray) -> np.ndarray:
        ai = _divide(_lin_rhs(a[:, i - 1], z0, L0 - i) - forcing, t0, t0_inv)
        if ai.dtype != object and not np.all(np.isfinite(ai)):
            raise GevreyKitError(f"a_{i} overflows double precision {where}")
        return ai

    # overflow is detected on a_i and on the residual, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        whole = solve_triangular([(m, e[..., :orders, :]) for m, e in blocks.items()],
                                 a, solve)
        for i in range(1, orders):
            # its terms cancel, so the scale is the largest, not each entry's
            za_prime = _lin_rhs(a[:, i - 1], z0, L0 - i)
            _check_relation(za_prime - whole[:, i, : L0 - i], np.abs(za_prime).max(),
                            f"defining relation for a_{i}", where)


# ---------------------------------------------------------------------------
# the driver: jets of a_0..a_I at a centre z
# ---------------------------------------------------------------------------

#: z-orders of the a_0 series tried in turn to start the Newton iteration for a_0(z)
_A0_START_ORDERS = (40, 80, 160, 320)
_NEWTON_MAX_ITER = 60


def _F0_jet(blocks0, a0: np.ndarray, L: int) -> np.ndarray:
    """h-jet of F(0, z0 + h, a_0) through length L, shape (nu, L)."""
    return sum(_jet_apply(e, [a0] * m, L) for m, e in blocks0)


def _jets_at(p: ProblemSpec, z, I: int, L: int, where: str) -> np.ndarray:
    """h-jets of a_0..a_I at the centre z, shape (nu, I + 1, L) with a_i to
    length L - i (L > I), each checked against its defining relation;
    `where` names the centre or truncation in errors.

    * Arithmetic is complex128 for a Python or numpy `z`, and the current
      mpmath precision (object arrays of mpc) when `z` is an mpmath number.
      A non-finite `z` raises ValueError, and blocks that overflow double
      precision when recentred at `z` raise GevreyKitError.
    * a_0(z) is 0 at z = 0, where the problem is normalized.  Elsewhere
      Newton solves F(0, z, a_0) = 0, started from the a_0 series at 0 of
      order 40, 80, 160 or 320: the first whose value agrees with the root
      it leads to within 1e-6.
    * The h-coefficients of a_0 are found one at a time, each against
      T_0(z)^-1 and checked for overflow as it is found, so an overflowing
      jet stops at its first non-finite coefficient, as the a_i do.  The
      whole jet is then checked against F(0, z, a_0) = 0, each coefficient
      relative to the same coefficient summed over the absolute values of
      blocks and a_0; `_solve_orders` then forms the a_i against the jet
      of T_0.
    """
    p.require_normalized()
    work, unit = _working(z)
    z0 = work(z)
    if not abs(z0) < math.inf:
        raise ValueError(f"the centre z = {z} is not finite")

    blocks = {m: work(e) for m, e in assemble_B(p).items()}
    if z0 != 0:
        blocks = {m: _taylor_shift(e, z0) for m, e in blocks.items()}
        if not all(e.dtype == object or np.all(np.isfinite(e)) for e in blocks.values()):
            raise GevreyKitError(f"the blocks recentred {where} overflow double precision")
    blocks0 = [(m, e[..., 0, :]) for m, e in blocks.items()]

    def jacobian_inverse(c: np.ndarray) -> np.ndarray:
        return _checked_inverse(_T0_jet(blocks0, c[:, None], 1)[..., 0], f"T_0({complex(z0)})")

    def newton(start: np.ndarray, scale: float):
        """The root reached from `start`, or None if the iteration fails."""
        c = work(start)
        for _ in range(_NEWTON_MAX_ITER):
            residual = _F0_jet(blocks0, c[:, None], 1)[:, 0]
            if not np.all(np.isfinite(residual.astype(np.complex128))):
                return None
            step = jacobian_inverse(c) @ residual
            c = c - step
            if _norm2(step) <= 16 * unit * scale:
                return c
        return None

    def a0_by_newton() -> np.ndarray:
        """a_0(z) by Newton, started from ever longer double-precision a_0
        series until the start agrees with the root it leads to."""
        for order in _A0_START_ORDERS:
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    start = _horner(solve_a0(p, order).T, complex(z0))
                except GevreyKitError:   # the a_0 coefficients overflow
                    break
                scale = max(_norm2(start), 1.0)
                if not np.isfinite(scale):
                    break
                root = newton(start, scale)
            if root is not None and _norm2(root - start) <= 1e-6 * scale:
                return root
        raise GevreyKitError(f"the a_0 series up to order {order} does not resolve a_0 {where}")

    c = work(np.zeros(p.nu, dtype=np.complex128)) if z0 == 0 else a0_by_newton()
    # h-jet of a_0: order k is linear in a_0[k] through T_0(z)
    t0_inv = jacobian_inverse(c)
    jet = np.zeros((p.nu, L, 1), dtype=c.dtype)
    jet[:, 0, 0] = c

    def solve(k: int, rhs: np.ndarray) -> np.ndarray:
        ak = -(t0_inv @ rhs)
        if ak.dtype != object and not np.all(np.isfinite(ak)):
            raise GevreyKitError(f"a_0 overflows double precision {where}")
        return ak

    whole = solve_triangular([(m, e[..., None]) for m, e in blocks0], jet, solve)
    # each whole h-coefficient of F(0, z0 + h, a_0) vanishes for a root, up
    # to the rounding of the terms it sums, which scale with the blocks
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _F0_jet([(m, np.abs(e)) for m, e in blocks0], np.abs(jet[..., 0]), L)
    _check_relation(whole[..., 0], terms, "defining relation for a_0", where)
    a = np.zeros((p.nu, I + 1, L), dtype=c.dtype)
    a[:, 0] = jet[..., 0]
    if I:   # a_0 alone needs neither the T_0 jet nor the order loop
        _solve_orders(blocks, a, z0, _T0_jet(blocks0, a[:, 0], L), t0_inv, where)
    return a


def solve_a0(p: ProblemSpec, K_z: int) -> np.ndarray:
    """Power-series solution of F(0, z, a_0(z)) = 0 with a_0(0) = 0, through
    z-order K_z, as its z-coefficients, shape (nu, K_z + 1): `_jets_at` at
    0 with I = 0."""
    if K_z < 1:
        raise ValueError("K_z must be >= 1")
    a = _jets_at(p, 0.0, 0, K_z + 1, f"at truncation K_z = {K_z}")
    return a[:, 0]


def solve_eps_expansion(p: ProblemSpec, I: int, K_z: int) -> tuple[np.ndarray, ...]:
    """Compute a_0..a_I as z-series and check each a_i against the whole
    coefficient of eps^i in eps z f' = F(eps, z, f), a_i included.  Entry
    i of the tuple holds the z-coefficients 0..K_z - i of a_i, shape
    (nu, K_z - i + 1)."""
    if I < 0:
        raise ValueError("I must be >= 0")
    if K_z - I < 1:
        raise InsufficientOrderError(
            f"truncation K_z = {K_z} cannot deliver {I} eps-orders")
    a = _jets_at(p, 0.0, I, K_z + 1, f"at truncation K_z = {K_z}")
    return tuple(a[:, i, : K_z - i + 1] for i in range(I + 1))


def solve_ai(p: ProblemSpec, a_so_far: list[np.ndarray], i: int, K_z: int) -> np.ndarray:
    """Coefficient a_i of `solve_eps_expansion(p, i, K_z)`, delivered to
    z-order K_z - i and checked as every order there; `a_so_far` holds
    a_0..a_{i-1}."""
    if i < 1 or len(a_so_far) != i:
        raise ValueError("need exactly the coefficients a_0..a_{i-1}")
    return solve_eps_expansion(p, i, K_z)[i]


def eps_values_at(p: ProblemSpec, z, I: int) -> np.ndarray:
    """Point values a_0(z)..a_I(z) of the formal eps-expansion, shape (I+1, nu).

    Summing the z-series of `solve_eps_expansion`, the arrays ``a[i]`` of
    its tuple, at z loses every digit that the terms a_{i,k} z^k outgrow a_i(z) by.
    This is `_jets_at` at z itself, with a_i carried to h-order I - i,
    exactly what the next order needs, and read at h = 0.
    Arithmetic is complex128 for a Python or numpy `z`, and the current
    mpmath precision when `z` is an mpmath number.
    """
    if I < 0:
        raise ValueError("I must be >= 0")
    a = _jets_at(p, z, I, I + 1, f"at z = {complex(z)}")
    return a[:, :, 0].T.copy()
