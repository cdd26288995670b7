"""Numerical 1-summation of the formal eps-expansion at a fixed z.

Convention: for f-hat = sum_{i>=0} a_i eps^i the transform kept here is

    B(t) = sum_{i>=0} a_{i+1} t^i / i!,     value = a_0 + int_0^inf e^(-t/eps) B(t) dt,

which reproduces a_i eps^i termwise since int e^(-t/eps) t^i/i! dt = eps^(i+1).
Other standard normalizations differ from this one by bookkeeping only.

The transform is continued by rational (Pade) approximation from its Taylor
coefficients, solved from the Toeplitz system with a pivoted factorization;
near-singular systems trigger an order-reduction fallback.  The Laplace
integral runs along the ray of direction theta with adaptive Gauss-Legendre
panels and an explicit truncation-tail term in the error budget.  The
optimal-truncation partial sum is provided as the superasymptotic baseline
the summation has to beat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GevreyKitError, PoleObstructionError
from .series import _horner, _norm2

#: kernel decay target at the integration cutoff
_ETA = 1e-16
_SAFETY = 1.5
_POLE_SAFETY = 1e-3
_RCOND = 1e-12
#: the positive nodes and their weights of the 24-point Gauss-Legendre rule on
#: [-1, 1], the bits of np.polynomial.legendre.leggauss(24), written out so
#: that a process does not load numpy.polynomial for one rule
_GAUSS_X_POS = np.array([
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
    0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
    0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213])
_GAUSS_W_POS = np.array([
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
    0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
    0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869])
#: nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1]
_GAUSS_X = np.concatenate([-_GAUSS_X_POS[::-1], _GAUSS_X_POS])
_GAUSS_W = np.concatenate([_GAUSS_W_POS[::-1], _GAUSS_W_POS])


@dataclass(frozen=True, eq=False)
class BorelData:
    """Transform coefficients at a fixed evaluation point.

    ``b_coeffs[i]`` is a_{i+1}/i! (shape (I, nu)); the constant a_0 rides
    along separately and is added back after the Laplace integral.
    """

    a0_value: np.ndarray
    b_coeffs: np.ndarray

    @property
    def I(self) -> int:
        return self.b_coeffs.shape[0]

    @property
    def nu(self) -> int:
        return self.b_coeffs.shape[1]


@dataclass(frozen=True, eq=False)
class PadeApproximant:
    """Componentwise [L/M] rational approximants with their poles.

    `orders` records the effective (L, M) per component after any fallback
    reduction; a component was reduced where it differs from `requested`.
    """

    numerators: tuple[np.ndarray, ...]
    denominators: tuple[np.ndarray, ...]
    poles: tuple[np.ndarray, ...]
    requested: tuple[int, int]
    orders: tuple[tuple[int, int], ...]

    def all_poles(self) -> np.ndarray:
        if not any(p.size for p in self.poles):
            return np.zeros(0, dtype=np.complex128)
        return np.concatenate([p for p in self.poles if p.size])

    def eval(self, t) -> np.ndarray:
        """Values at t, shape t.shape + (nu,): componentwise Horner."""
        t = np.asarray(t, dtype=np.complex128)
        return np.stack([_horner(num, t) / _horner(den, t)
                         for num, den in zip(self.numerators, self.denominators)], axis=-1)


@dataclass(frozen=True, eq=False)
class SummationReport:
    """Outcome of one summation, with an honest error budget."""

    value: np.ndarray
    quadrature_error_estimate: float
    pole_clearance: float
    I_star: int | None = None


def _coefficients(a_values) -> np.ndarray:
    """a_0..a_I as a complex (I+1, nu) array (a 1-d input: scalar components)."""
    arr = np.asarray(a_values, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 5:
        raise ValueError("need coefficients a_0..a_I with I >= 4")
    return arr


def borel_transform(a_values: np.ndarray) -> BorelData:
    """Factorially damped transform coefficients b_i = a_{i+1}/i!.

    `a_values` stacks the expansion coefficients a_0..a_I at the evaluation
    point, shape (I+1, nu) (a 1-d input is treated as scalar components).
    Requires I >= 4.  1/i! is formed as exp(-lgamma(i + 1)), which cannot
    overflow; non-finite input coefficients raise `GevreyKitError`.
    """
    arr = _coefficients(a_values)
    if not np.all(np.isfinite(arr)):
        raise GevreyKitError("expansion coefficients are not finite: "
                             "they overflow double precision")
    I = arr.shape[0] - 1
    # 1/i! lies in (0, 1], so every b_i is finite
    inv_fact = np.exp([-math.lgamma(i + 1.0) for i in range(I)])
    return BorelData(a0_value=arr[0].copy(), b_coeffs=arr[1:] * inv_fact[:, None])


def _pade_component(c: np.ndarray, L: int, M: int) -> tuple[np.ndarray, np.ndarray, int]:
    """[L/M] Pade of one coefficient sequence, reducing M on degeneracy.

    Returns (numerator, denominator, effective_M).  The denominator is
    normalized to q_0 = 1; the numerator is the truncated product (c * q).
    Degree m_eff solves the leading m_eff block of the M x M Toeplitz system
    c[L + s - j] q_j = -c[L + s] (c = 0 below index 0), s, j = 1..M.
    """
    idx = L + np.arange(M)[:, None] - np.arange(M)[None, :]
    rows = np.where(idx >= 0, c[np.maximum(idx, 0)], 0.0)
    rhs = -c[L + 1: L + M + 1]
    for m_eff in range(M, 0, -1):
        block = rows[:m_eff, :m_eff]
        svals = np.linalg.svd(block, compute_uv=False)
        if svals[-1] <= _RCOND * max(1.0, float(svals[0])):
            continue
        q = np.concatenate([[1.0 + 0.0j], np.linalg.solve(block, rhs[:m_eff])])
        num = np.convolve(c[: L + m_eff + 1], q)[: L + 1]
        return num, q, m_eff
    # no stable rational block: fall back to the Taylor polynomial
    return c[: L + 1].copy(), np.array([1.0 + 0.0j]), 0


def pade_continue(b: BorelData, L: int, M: int) -> PadeApproximant:
    """Componentwise [L/M] rational continuation of the transform.

    Requires L + M + 1 <= I.  Components whose Toeplitz block is numerically
    rank-deficient fall back to smaller denominator degrees (ultimately the
    Taylor polynomial); the effective orders are reported.
    """
    if L < 0 or M < 0:
        raise ValueError(f"Pade orders [{L}/{M}] must be nonnegative")
    if L + M + 1 > b.I:
        raise ValueError(f"[{L}/{M}] needs {L + M + 1} coefficients, have {b.I}")
    nums, dens, poles, orders = [], [], [], []
    for comp in range(b.nu):
        c = b.b_coeffs[:, comp]
        num, den, m_eff = _pade_component(c, L, M)
        nums.append(num)
        dens.append(den)
        orders.append((L, m_eff))
        if m_eff:
            rts = np.roots(den[::-1])
            poles.append(rts[np.isfinite(rts)])
        else:
            poles.append(np.zeros(0, dtype=np.complex128))
    return PadeApproximant(numerators=tuple(nums), denominators=tuple(dens),
                           poles=tuple(poles), requested=(L, M), orders=tuple(orders))


def _segment_clearance(poles: np.ndarray, theta: float, t_max: float) -> float:
    """Min distance of the poles to the ray segment e^(i theta) [0, t_max]."""
    if poles.size == 0:
        return math.inf
    direction = complex(math.cos(theta), math.sin(theta))
    best = math.inf
    for pole in poles:
        proj = (pole * direction.conjugate()).real
        proj = min(max(proj, 0.0), t_max)
        best = min(best, abs(pole - proj * direction))
    return best


def _gauss_panels(func, t_max: float, panels: int) -> np.ndarray:
    """Composite 24-point Gauss-Legendre rule on [0, t_max]; `func` maps an
    array of s to values of shape s.shape + (nu,) and is called once."""
    edges = np.linspace(0.0, t_max, panels + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    s = (mid[:, None] + half[:, None] * _GAUSS_X).ravel()
    weights = (half[:, None] * _GAUSS_W).ravel()
    return weights @ func(s)


def laplace_sum(b: BorelData, pade: PadeApproximant, eps: complex,
                theta: float = 0.0) -> SummationReport:
    """Laplace integral of the continued transform along direction theta.

    The cutoff t_max = |eps| * ln(1/eta) * safety keeps the dropped tail at
    kernel level; its bound e^(-t_max/|eps|) * sup|P| joins the quadrature
    refinement difference in the reported error estimate.  A continuation
    pole within _POLE_SAFETY of the integration segment raises
    :class:`PoleObstructionError` (non-summability in this direction, or
    not enough coefficients).  eps = 0 raises ValueError; a cutoff, value
    or error estimate that overflows double precision raises
    `GevreyKitError`.
    """
    eps = complex(eps)
    if eps == 0:
        raise ValueError("the Laplace sum needs eps != 0")
    direction = complex(math.cos(theta), math.sin(theta))
    if (direction / eps).real <= 0.0:
        raise ValueError("kernel does not decay: need Re(e^(i theta)/eps) > 0")
    t_max = abs(eps) * math.log(1.0 / _ETA) * _SAFETY
    if not math.isfinite(t_max):
        raise GevreyKitError(f"the Laplace cutoff at eps = {eps:.6g} overflows double precision")
    poles = pade.all_poles()
    clearance = _segment_clearance(poles, theta, t_max)
    if clearance <= _POLE_SAFETY:
        raise PoleObstructionError(
            f"continuation pole within {clearance:.3e} of the theta = {theta:.4g} ray", clearance)

    rate = direction / eps

    def integrand(s: np.ndarray) -> np.ndarray:
        return np.exp(-rate * s)[:, None] * pade.eval(direction * s) * direction

    # overflow is detected on the value and the estimate, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        panels = 4
        prev = _gauss_panels(integrand, t_max, panels)
        diff = math.inf
        while panels < 512:
            panels *= 2
            cur = _gauss_panels(integrand, t_max, panels)
            diff = float(np.abs(cur - prev).max())
            prev = cur
            if diff < 1e-12 or diff < 1e-10 * max(1.0, float(np.abs(cur).max())):
                break
        sup_p = float(np.abs(pade.eval(direction * np.linspace(0.0, t_max, 65))).max())
        tail = math.exp(-t_max / abs(eps)) * sup_p
        value = b.a0_value + prev
    if not (np.all(np.isfinite(value)) and math.isfinite(diff + tail)):
        raise GevreyKitError(f"the Laplace sum at eps = {eps:.6g} overflows double precision")
    return SummationReport(value=value, quadrature_error_estimate=diff + tail,
                           pole_clearance=clearance)


def optimal_truncation_sum(a_values: np.ndarray, eps: complex) -> SummationReport:
    """Superasymptotic baseline: stop the partial sum just before the
    smallest term ||a_i|| |eps|^i.  A smallest term or a partial sum that
    overflows double precision raises `GevreyKitError`."""
    arr = _coefficients(a_values)
    # a numpy eps**i overflows to inf, where a Python complex one raises
    eps = np.complex128(eps)
    value = np.zeros(arr.shape[1], dtype=np.complex128)
    # overflow is detected on the sum, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _norm2(arr, axis=1)
        # a zero term stays 0 where |eps|^i overflows
        sizes = np.where(norms > 0, norms * np.abs(eps) ** np.arange(arr.shape[0]), 0.0)
        i_star = int(np.argmin(sizes))
        for i in range(i_star):
            value += arr[i] * eps**i
    if not (np.all(np.isfinite(value)) and math.isfinite(sizes[i_star])):
        raise GevreyKitError(f"the truncated sum at eps = {eps:.6g} overflows double precision")
    return SummationReport(value=value, quadrature_error_estimate=float(sizes[i_star]),
                           pole_clearance=math.inf, I_star=i_star)
