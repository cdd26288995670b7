"""Oracles and paper checks that only the tests call.

None of these is reached by a `gevrey-kit` subcommand; they check the
package from outside it and are kept here, next to the tests, rather than
in the shipped library.

* The double-series cross-check: the fixed-eps z-expansion and the formal
  eps-expansion are two readings of one double series, so the
  eps-Taylor coefficients of f_k(eps) must match the z-coefficients of
  a_i(z).  The extraction of eps-derivatives uses discrete Fourier
  averaging on a circle, which conditions far better than one-sided finite
  differences for high orders.  Every eps of a call is solved in one
  batched z-recursion.
* The composition sum (`compositions`), the brute-force reference for the
  online kernel `series.solve_triangular`, and the truncated Cauchy
  contraction (`cauchy_contraction`) by plain loops, the reference for
  `series._cauchy`.
* The convolution-taming inequality for the weights C_l = A (l!)^lam / l^2.
* The Nagumo-norm calculus.  The implemented Nagumo norm is the
  coefficient-majorant variant: with M(r) = sum_n ||c_n|| r^n,

      ||f||_k = sup_{0 <= r < kappa} (kappa - r)^k M(r).

  M dominates the sup of ||f|| on the circle |z| = r, so this is an upper
  bound for the sup-based norm, it is computable from coefficients alone,
  and all four calculus properties (subadditivity, product, derivative
  with the e*(k+1) factor, radius monotonicity) hold for it verbatim.
* The contraction quantity for T_0 on a disc and the resolvent constant on
  a sector, both sampled, not bounds.
* The paper's majorant radii (kappa, sigma) from a resolvent constant c
  and the Frobenius block bounds, and the geometric tail bound that they
  give a z-series partial sum of order K at a point z.
* The eps -> 0 limit phi0 of the Riccati closed form.
* The point values a_i(z) of the built-in Riccati problem from its own jet
  recursion in plain mpmath (`riccati_eps_values`): no numpy and no package
  code, so it can arbitrate the 50-digit path of `eps_values_at`.
* The conjugate of rescaled Riccati problems (the benchmark's conj8 map):
  the problem of f = P h, built with numpy and the public constructors,
  and its a_i(z) from `riccati_eps_values` by a diagonal scaling and P.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gevrey_kit.epssolver import solve_a0, solve_eps_expansion
from gevrey_kit.problem import CoeffTensor, ProblemSpec, assemble_B
from gevrey_kit.sector import check_siegel, spectrum
from gevrey_kit.zsolver import evaluate_f, solve_coeffs_z

# ---------------------------------------------------------------------------
# double-series cross-check
# ---------------------------------------------------------------------------

_LIMIT_K = 60


def _series_value(c: np.ndarray, z: complex) -> np.ndarray:
    """sum_k c[:, k] z^k of a vector series, shape (nu, order + 1), by
    Horner's rule."""
    acc = 0
    for ck in c.T[::-1]:
        acc = acc * z + ck
    return acc


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
    a = solve_eps_expansion(p, I, K + I + 1)
    raw = np.zeros((I + 1, K))
    for i in range(I + 1):
        ai = a[i]
        for k in range(1, K + 1):
            diff = fourier[i, k - 1] - ai[:, k]
            raw[i, k - 1] = float(np.abs(diff).max())
    scaled = raw * (radius ** np.arange(I + 1))[:, None]
    return CrossReport(table=scaled, raw=raw, radius=radius,
                       max_scaled_discrepancy=float(scaled.max()),
                       eps_taylor=fourier)


def limit_to_a0(p: ProblemSpec, eps_list, z: complex) -> list[tuple[complex, float]]:
    """Table of ||f(eps_j, z) - a_0(z)|| along a sequence eps_j -> 0, both
    sides summed from z-series of order _LIMIT_K."""
    a0 = solve_a0(p, _LIMIT_K)
    target = _series_value(a0, z)
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


# ---------------------------------------------------------------------------
# compositions, the Cauchy contraction and the convolution-taming inequality
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


def cauchy_contraction(s: np.ndarray, x: np.ndarray, L: int) -> np.ndarray:
    """out[..., q] = sum_{j, t} sum_{a + b = q} s[..., j, t, a] x[j, t, b]
    for q < L, by a loop over q and a loop over a: the contraction of the
    last slot of `s` (shape (..., nu, n, A)) with the series x[j, t]
    (x of shape (nu, n, B)).  Leading axes of x beyond these three are
    batch axes, which `s` leads with too.  numpy only, in the dtype of the
    inputs (object arrays of mpmath numbers too)."""
    nb = x.ndim - 3
    out = np.zeros(s.shape[:-3] + (L,), dtype=np.result_type(s, x))
    for idx in np.ndindex(s.shape[:-3]):
        si, xi = s[idx], x[idx[:nb]]
        for q in range(L):
            for a in range(min(q + 1, si.shape[-1])):
                if q - a < xi.shape[-1]:
                    out[idx + (q,)] += np.sum(si[..., a] * xi[..., q - a])
    return out


#: Convolution-taming constant (1 + pi^2/3)^(-1) / 2 = 0.1165536...
CONV_TAMING_A = 0.5 / (1.0 + math.pi**2 / 3.0)


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


# ---------------------------------------------------------------------------
# Nagumo-norm calculus
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class NagumoNorm:
    kappa: float
    k: int
    value: float
    maximizer: float


def _weighted(gamma: np.ndarray, kappa: float, k: int) -> Callable[[float], float]:
    powers = np.arange(gamma.size)

    def g(r: float) -> float:
        return (kappa - r) ** k * float((gamma * r**powers).sum())

    return g


def nagumo_norm(f: np.ndarray, k: int, kappa: float) -> NagumoNorm:
    """Coefficient-majorant Nagumo norm of a polynomial vector series, shape
    (nu, order + 1).

    For k = 0 the weight is absent and the sup is M(kappa) itself.  For
    k >= 1 a coarse scan brackets the maximizer of (kappa - r)^k M(r) and
    golden-section refines it; the endpoint r = 0 is always compared
    against the refined interior value.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if k < 0:
        raise ValueError("weight index k must be nonnegative")
    gamma = np.linalg.norm(f, axis=0)
    if not np.any(gamma):
        return NagumoNorm(kappa=kappa, k=k, value=0.0, maximizer=0.0)
    powers = np.arange(gamma.size)
    if k == 0:
        return NagumoNorm(kappa=kappa, k=0,
                          value=float((gamma * kappa**powers).sum()), maximizer=kappa)

    g = _weighted(gamma, kappa, k)
    n_scan = 257
    grid = kappa * np.arange(n_scan) / n_scan
    m_vals = np.polynomial.polynomial.polyval(grid, gamma)
    vals = (kappa - grid) ** k * m_vals
    best = int(np.argmax(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, n_scan - 1)]
    if best == n_scan - 1:
        hi = kappa * (1.0 - 1e-12)

    # golden-section maximization on [lo, hi]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    while hi - lo > 1e-12 * kappa:
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = g(x1)
    r_star = 0.5 * (lo + hi)
    v_star = g(r_star)
    if g(0.0) >= v_star:
        return NagumoNorm(kappa=kappa, k=k, value=g(0.0), maximizer=0.0)
    return NagumoNorm(kappa=kappa, k=k, value=v_star, maximizer=r_star)


def nagumo_property_suite(f: np.ndarray, g: np.ndarray, k: int, l: int,
                          kappa: float, slack: float = 1e-9) -> dict[str, bool]:
    """Check the four norm properties on one pair of scalar polynomials:

      1. ||f + g||_k <= ||f||_k + ||g||_k
      2. ||f g||_{k+l} <= ||f||_k ||g||_l
      3. ||f'||_{k+1} <= e (k+1) ||f||_k
      4. ||f||_k <= kappa ||f||_{k-1}   (k >= 1)
    """
    if f.shape[0] != 1 or g.shape[0] != 1:
        raise ValueError("the product property needs scalar series")
    fc, gc = f[0], g[0]
    deg = fc.size + gc.size - 2  # polynomial data, so the product is exact here
    sum_fg = (np.pad(fc, (0, deg + 1 - fc.size)) + np.pad(gc, (0, deg + 1 - gc.size)))[None, :]
    prod_fg = np.convolve(fc, gc)[None, :]

    nf_k = nagumo_norm(f, k, kappa).value
    ng_k = nagumo_norm(g, k, kappa).value
    ng_l = nagumo_norm(g, l, kappa).value
    # f' has the coefficients k f_k; a constant has the derivative 0
    df = (fc[1:] * np.arange(1, fc.size) if fc.size > 1 else np.zeros(1))[None, :]
    out = {
        "sum": nagumo_norm(sum_fg, k, kappa).value <= nf_k + ng_k + slack,
        "product": nagumo_norm(prod_fg, k + l, kappa).value <= nf_k * ng_l + slack,
        "derivative": nagumo_norm(df, k + 1, kappa).value
        <= math.e * (k + 1) * nf_k + slack,
    }
    if k >= 1:
        out["radius"] = nagumo_norm(f, k, kappa).value \
            <= kappa * nagumo_norm(f, k - 1, kappa).value + slack
    else:
        out["radius"] = True
    return out


# ---------------------------------------------------------------------------
# sampled contraction and resolvent constants
# ---------------------------------------------------------------------------

_CONTRACTION_SAMPLES = 33
_RESOLVENT_BLOWUP = 1e12


def contraction_estimate(p: ProblemSpec, a0: np.ndarray, kappa: float, c: float) -> float:
    """Sampled estimate of c * (||B01(z) - B01(0)|| + sum_m m ||B0m(z)||
    ||a_0(z)||^{m-1}) on |z| <= kappa, the contraction quantity controlling
    invertibility of T_0 on that disc (< 1 means safely invertible), sampled
    at _CONTRACTION_SAMPLES radii."""
    # the eps-constant blocks of arity m >= 1, as z-polynomial entries
    blocks0 = [(m, e[..., 0, :]) for m, e in assemble_B(p).items() if m >= 1]
    worst = 0.0
    for s in range(1, _CONTRACTION_SAMPLES + 1):
        z = kappa * s / _CONTRACTION_SAMPLES
        total = 0.0
        a0z = float(np.linalg.norm(_series_value(a0, z)))
        for m, block in blocks0:
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


@dataclass(frozen=True)
class SectorSpec:
    """Direction theta, opening gamma (radians), radius limit."""

    theta: float
    gamma: float
    radius: float

    def __post_init__(self):
        if not 0.0 < self.gamma <= 2.0 * math.pi:
            raise ValueError("opening gamma must lie in (0, 2*pi]")
        if self.radius <= 0.0:
            raise ValueError("sector radius must be positive")


@dataclass(frozen=True)
class ResolventReport:
    """Sampled estimate of the uniform resolvent constant on a sector.

    `c` is the maximum operator norm of (eps*k*I - A01(eps))^{-1} over the
    sampled boundary grid; a practical stand-in for the uniform constant,
    not a certified bound.
    """

    c: float
    worst_k: int
    worst_eps: complex
    sector: SectorSpec
    k_max: int
    samples: int


def resolvent_bound(p: ProblemSpec, sector: SectorSpec, k_max: int = 50,
                    samples: int = 64) -> ResolventReport:
    """Sampled maximum of ||(eps*k*I - A01(eps))^{-1}|| over the sector
    boundary (both radial edges and the outer arc) and k = 1..k_max.

    Raises ValueError when an eigenvalue ray meets the closed sector or a
    sampled resolvent exceeds 1e12.
    """
    if k_max < 1 or samples < 2:
        raise ValueError("need k_max >= 1 and samples >= 2")
    eigs = spectrum(p.a01(0.0))
    if not check_siegel(eigs, sector.theta, sector.gamma).ok:
        raise ValueError(
            "an eigenvalue ray meets the closed sector; shrink gamma or rotate theta")
    a01_block = p.blocks[(0, 1)]

    radii = sector.radius * np.arange(1, samples + 1) / samples
    arcs = sector.theta + sector.gamma * (np.arange(samples) / (samples - 1) - 0.5)
    eps_grid = np.concatenate([
        radii * np.exp(1j * (sector.theta - sector.gamma / 2.0)),
        radii * np.exp(1j * (sector.theta + sector.gamma / 2.0)),
        sector.radius * np.exp(1j * arcs),
    ])

    eye = np.eye(p.nu)
    best = 0.0
    worst_k, worst_eps = 1, eps_grid[0]
    for eps in eps_grid:
        a = a01_block.at_eps(eps)
        for k in range(1, k_max + 1):
            smin = float(np.linalg.svd(eps * k * eye - a, compute_uv=False)[-1])
            norm_inv = np.inf if smin == 0.0 else 1.0 / smin
            if norm_inv > _RESOLVENT_BLOWUP:
                raise ValueError(
                    f"resolvent blows up at eps={eps:.4g}, k={k}; "
                    "shrink gamma or the sector radius")
            if norm_inv > best:
                best, worst_k, worst_eps = norm_inv, k, complex(eps)
    return ResolventReport(c=best, worst_k=worst_k, worst_eps=worst_eps,
                           sector=sector, k_max=k_max, samples=samples)


# ---------------------------------------------------------------------------
# majorant radii and the tail bound of a z-series partial sum
# ---------------------------------------------------------------------------

class RadiiInfeasibleError(ValueError):
    """No admissible majorant scale exists for the given radii; the message
    names the limiting block and the alpha it needs."""


@dataclass(frozen=True)
class RadiiReport:
    alpha: float
    kappa: float
    sigma: float
    A: float = CONV_TAMING_A


def frobenius_bound(t: CoeffTensor, radius: float) -> float:
    """Upper bound for the operator norm of a block on the closed eps-disc of
    the given radius: triangle inequality over eps-coefficients, Frobenius
    norm of each flattened coefficient tensor (exact for nu = 1)."""
    flat = t.entries.reshape(-1, t.entries.shape[-1])
    norms = np.linalg.norm(flat, axis=0)
    return float(sum(norms[j] * radius**j for j in range(len(norms))))


def radius_estimates(p: ProblemSpec, c: float) -> RadiiReport:
    """Majorant scale alpha and the radii kappa, sigma.

    For every present block (n, m) other than the linear (0,1) part, alpha
    must satisfy ``c * alpha_nm <= alpha * C_n / rho**(n+m)`` with
    ``C_n = A/n**2`` (C_0 = A).  The block norm bound alpha_nm is the smaller
    of `frobenius_bound` on the closed eps-disc of radius rho and the
    Cauchy-type bound ``C_bound / (rho1**n * rho**m)``, where ``C_bound``
    sums ``frobenius_bound(rho) * rho1**n * rho**m`` over all blocks.
    Feasibility requires alpha < rho/2; then

        kappa = rho * sqrt(1 - alpha / (rho - alpha)),
        sigma = kappa * (rho - alpha * A) / rho,

    which makes the majorant partial-sum identity
    ``alpha * A * kappa / (kappa - sigma) = rho`` hold exactly.
    """
    if c <= 0:
        raise ValueError("resolvent constant c must be positive")
    rho, rho1 = p.rho, p.rho1
    C_bound = sum(frobenius_bound(t, rho) * rho1**t.n * rho**t.m for t in p.tensors)

    alpha = 0.0
    limiting = (0, 1)
    for t in p.tensors:
        if (t.n, t.m) == (0, 1):
            continue
        c_n = CONV_TAMING_A if t.n == 0 else CONV_TAMING_A / t.n**2
        alpha_nm = min(frobenius_bound(t, rho), C_bound / (rho1**t.n * rho**t.m))
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


def majorant_tail_bound(radii: RadiiReport, K: int, z: complex) -> float | None:
    """Bound ``alpha*A*(|z|/kappa)^(K+1) / ((K+1)^2 (1 - |z|/kappa))`` on the
    tail sum_{k>K} f_k z^k of the z-series; None where |z| >= kappa, where
    the majorant gives no bound."""
    q = abs(complex(z)) / radii.kappa
    if q >= 1.0:
        return None
    kk = K + 1
    return radii.alpha * radii.A * q**kk / (kk**2 * (1.0 - q))


# ---------------------------------------------------------------------------
# the eps -> 0 limit of the Riccati closed form
# ---------------------------------------------------------------------------

def phi0(z: complex) -> complex:
    """Limit function -1 / (1 + sqrt(1 + 4z)) on the principal branch.

    The argument 1 + 4z must stay off the cut (-inf, 0], i.e. z off
    (-inf, -1/4].
    """
    w = 1.0 + 4.0 * complex(z)
    if w.imag == 0.0 and w.real <= 0.0:
        raise ValueError(f"1 + 4z = {w} lies on the branch cut (-inf, 0]")
    return -1.0 / (1.0 + cmath.sqrt(w))


# ---------------------------------------------------------------------------
# a_i(z) of the built-in Riccati problem, in plain mpmath
# ---------------------------------------------------------------------------

def riccati_eps_values(z, I: int, dps: int = 50) -> list:
    """a_0(z)..a_I(z) of the built-in problem (beta = 1) at `dps` digits.

    With f = phi + 1/2 and phi = sum_i phi_i eps^i, eps z phi' = -1/2 - phi
    + 2 z phi**2 gives phi_0 = -1/(1 + s), s = sqrt(1 + 4z), and for i >= 1

        phi_i = (2 z sum' phi_j phi_l - z phi'_{i-1}) / s,

    the sum over j, l >= 1 with j + l = i.  Each phi_i is a Taylor jet in h
    at z + h, a list of mpmath numbers carried to h-order I - i, which is
    what phi'_i needs for the next order; s and 1/s are binomial series.
    """
    import mpmath

    def mul(a, b, n):
        return [mpmath.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]

    L = I + 1
    with mpmath.workdps(dps + 10):
        z = mpmath.mpmathify(z)
        w = 1 + 4 * z
        root = mpmath.sqrt(w)
        s = [mpmath.binomial(0.5, k) * (4 / w) ** k * root for k in range(L)]
        inv_s = [mpmath.binomial(-0.5, k) * (4 / w) ** k / root for k in range(L)]
        zjet = [z, mpmath.mpf(1)] + [mpmath.mpf(0)] * (L - 2)
        # phi_0 = -1/(1 + s) by the reciprocal recursion of 1 + s
        d = [1 + s[0]] + s[1:]
        jet0 = [-1 / d[0]]
        for k in range(1, L):
            jet0.append(-mpmath.fsum(d[j] * jet0[k - j] for j in range(1, k + 1)) / d[0])
        phis = [jet0]
        for i in range(1, L):
            n = L - i
            prev = phis[i - 1]
            dprev = [(k + 1) * prev[k + 1] for k in range(n)]
            cross = [mpmath.mpf(0)] * n
            for j in range(1, i):
                cross = [c + t for c, t in zip(cross, mul(phis[j], phis[i - j], n))]
            rhs = mul(zjet, [2 * c - dp for c, dp in zip(cross, dprev)], n)
            phis.append(mul(rhs, inv_s, n))
        return [phis[0][0] + mpmath.mpf(0.5)] + [phi[0] for phi in phis[1:]]


# ---------------------------------------------------------------------------
# a conjugate of rescaled Riccati problems, and its a_i(z)
# ---------------------------------------------------------------------------

def conjugate_riccati_problem(P: np.ndarray, c: np.ndarray, lam: np.ndarray,
                              skew: np.ndarray) -> ProblemSpec:
    """The problem that f = P h solves, h_j(eps, z) = c_j g(eps / lam_j, z)
    with g the solution of the built-in Riccati problem (the benchmark's
    conj8 when nu = 8).

    Each h_j solves eps z h' = -lam_j (1 + 2z) h + lam_j c_j z/2 +
    (2 lam_j / c_j) z h^2, so with L = P diag(lam) P^-1 the blocks are
    (0,1) = -L, (1,1) = -2L, (1,0) = P (lam c / 2) and (1,2) the sum over j
    of P_ij (2 lam_j / c_j) (P^-1)_ja (P^-1)_jb, plus skew - skew^T over
    its two f-slots, which changes no value.
    """
    Pinv = np.linalg.inv(P)
    L = P @ np.diag(lam) @ Pinv
    quad = np.einsum("ij,j,ja,jb->iab", P, 2.0 * lam / c, Pinv, Pinv)
    blocks = {(0, 1): -L, (1, 1): -2.0 * L, (1, 0): P @ (lam * c / 2.0),
              (1, 2): quad + skew - skew.transpose(0, 2, 1)}
    return ProblemSpec(nu=len(c), rho=1.0, rho1=4.0, tensors=tuple(
        CoeffTensor(n, m, np.asarray(arr, dtype=np.complex128)[..., None])
        for (n, m), arr in blocks.items()))


def conjugate_riccati_eps_values(P: np.ndarray, c: np.ndarray, lam: np.ndarray,
                                 z, I: int, dps: int = 30) -> np.ndarray:
    """a_0(z)..a_I(z) of `conjugate_riccati_problem`, shape (I + 1, nu):
    a_i = P diag(c_j lam_j^-i) a_i^ric, a_i^ric from `riccati_eps_values`."""
    ric = np.array([complex(v) for v in riccati_eps_values(z, I, dps)])
    scale = c[None, :] * lam[None, :] ** -np.arange(I + 1)[:, None]
    return (ric[:, None] * scale) @ P.T
