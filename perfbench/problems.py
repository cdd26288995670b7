"""Seeded problem generators and oracles for the benchmark workloads.

Every generator draws from ``numpy.random.default_rng([seed, tag])``, so one
seed always yields the same problem, and it redraws until the problem is
summable in the direction theta = 0 and non-resonant on the eps grid the
workload uses.  The oracles share no code with the solvers: `conj8` has a
closed form built on the Bessel continued fraction, and `cubic3` is checked
against a plain coefficient recursion written here with dense numpy
polynomial products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gevrey_kit.problem import (CoeffTensor, ProblemSpec, parse_problem,
                                problem_to_json)
from gevrey_kit.riccati import shifted_reference
from gevrey_kit.sector import gamma_max, spectrum

MAX_DRAWS = 100
#: smallest admissible singular value of eps*k*I - A01(eps) on the eps grid
RESONANCE_MARGIN = 0.05


def _spec(nu: int, blocks: dict[tuple[int, int], np.ndarray]) -> ProblemSpec:
    """Problem from blocks whose trailing axis holds eps-coefficients."""
    tensors = tuple(CoeffTensor(n, m, np.asarray(arr, dtype=np.complex128))
                    for (n, m), arr in sorted(blocks.items()))
    return ProblemSpec(nu=nu, rho=1.0, rho1=4.0, tensors=tensors)


def admissible(p: ProblemSpec, eps_grid, k_max: int) -> bool:
    """Summable at theta = 0 and every eps*k*I - A01(eps), k <= k_max,
    well away from singular on the grid."""
    if not gamma_max(spectrum(p.a01(0.0)), 0.0).summable:
        return False
    eye = np.eye(p.nu)
    for eps in eps_grid:
        a01 = p.a01(eps)
        for k in range(1, k_max + 1):
            smin = np.linalg.svd(eps * k * eye - a01, compute_uv=False)[-1]
            if smin < RESONANCE_MARGIN:
                return False
    return True


def to_problem_json(p: ProblemSpec) -> str:
    """Serialize with `problem_to_json` and insist on a bit-exact round trip
    through `parse_problem`."""
    text = problem_to_json(p)
    back = parse_problem(text)
    same = (back.nu == p.nu and len(back.tensors) == len(p.tensors) and all(
        (a.n, a.m) == (b.n, b.m) and np.array_equal(a.entries, b.entries)
        for a, b in zip(back.tensors, p.tensors)))
    if not same:
        raise RuntimeError("problem did not round-trip through parse_problem")
    return text


# ---------------------------------------------------------------------------
# cubic3: nu = 3, dense non-symmetric blocks up to arity 3
# ---------------------------------------------------------------------------

#: Frobenius norm of each drawn cubic3 block; (1,0) is [eps^0, eps^1]
CUBIC3_NORM = {(1, 0): (0.3, 0.1), (1, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5,
               (0, 3): 0.3}


#: spectrum -mu of A01(0) in cubic3
CUBIC3_MU = np.array([0.7, 1.0, 1.4])


def _gauss(rng, shape) -> np.ndarray:
    """Complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _normed(rng, shape, norm: float) -> np.ndarray:
    x = _gauss(rng, shape)
    return norm * x / np.linalg.norm(x)


def cubic3(seed: int, eps_grid, k_max: int) -> ProblemSpec:
    """nu = 3 problem: (0,1) and (1,0) linear in eps, (1,1), (0,2), (1,2)
    and (0,3) dense, non-symmetric and eps-constant.  Entries are complex
    Gaussian (see WORKLOADS.md for why not real).  A01(0) = -Q diag(mu) Q^-1
    with Q = I + 0.3 G has a fixed spectrum, and the other blocks are drawn
    at fixed Frobenius norms, so that every seed has about the same z-radius
    and Borel-Pade accuracy."""
    rng = np.random.default_rng([seed, 3])
    nu = 3
    for _ in range(MAX_DRAWS):
        Q = np.eye(nu) + 0.3 * _gauss(rng, (nu, nu))
        if np.linalg.cond(Q) > 10.0:
            continue
        blocks = {
            (0, 1): np.stack([-Q @ np.diag(CUBIC3_MU) @ np.linalg.inv(Q),
                              0.1 * _gauss(rng, (nu, nu))], axis=-1),
            (1, 0): np.stack([_normed(rng, nu, s) for s in CUBIC3_NORM[(1, 0)]],
                             axis=-1),
        }
        for (n, m), norm in CUBIC3_NORM.items():
            if m:
                blocks[(n, m)] = _normed(rng, (nu,) * (m + 1), norm)[..., None]
        p = _spec(nu, blocks)
        if admissible(p, eps_grid, k_max):
            return p
    raise RuntimeError(f"no admissible cubic3 problem for seed {seed}")


def series_oracle(p: ProblemSpec, eps: float, K: int) -> np.ndarray:
    """Coefficients f_0..f_K (shape (nu, K+1), f_0 = 0) of the fixed-eps
    solution, from eps*k*f_k - A01 f_k = [z^k] of the other blocks, with
    every product formed as a full truncated polynomial product."""
    nu = p.nu
    f = np.zeros((nu, K + 1), dtype=np.complex128)
    a01 = p.a01(eps)
    others = [(t.n, t.m, t.at_eps(eps)) for t in p.tensors if (t.n, t.m) != (0, 1)]
    for k in range(1, K + 1):
        g = np.zeros(nu, dtype=np.complex128)
        for n, m, a in others:
            if k < n:
                continue
            if m == 0:
                g += a * (k == n)
                continue
            # series[a, b, ...] = f_a * f_b * ..., truncated at z^K
            series = f
            for _ in range(m - 1):
                series = np.stack([np.stack([np.convolve(s, fj)[: K + 1] for fj in f])
                                   for s in series.reshape(-1, K + 1)])
            prod = series.reshape((nu,) * m + (K + 1,))
            g += np.tensordot(a, prod[..., k - n], axes=m)
        f[:, k] = np.linalg.solve(eps * k * np.eye(nu) - a01, g)
    return f


def series_value(coeffs: np.ndarray, z: float) -> np.ndarray:
    return coeffs @ (z ** np.arange(coeffs.shape[1]))


# ---------------------------------------------------------------------------
# conj8: nu = 8 conjugate of eight rescaled Riccati problems
# ---------------------------------------------------------------------------

#: spectrum -lam of the linear block, fixed so that the distance of the
#: nearest Borel singularity, hence the Borel-Pade accuracy, is the same
#: for every seed
CONJ8_LAM = np.geomspace(0.5, 2.0, 8)


@dataclass(frozen=True)
class Conj8:
    """f = P h with h_j(eps, z) = c_j g(eps / lam_j, z), g the normalized
    Riccati solution; `problem` is the right-hand side f satisfies."""

    problem: ProblemSpec
    P: np.ndarray
    lam: np.ndarray
    c: np.ndarray

    def exact(self, eps: float, z: float) -> np.ndarray:
        h = [cj * shifted_reference(eps / lj, z) for cj, lj in zip(self.c, self.lam)]
        return self.P @ np.array(h)


def conj8(seed: int, eps_grid, k_max: int) -> Conj8:
    """Each h_j solves eps z h' = -lam(1+2z) h + lam c z/2 + (2 lam/c) z h^2,
    so f = P h has a dense spectrum -lam_j in [-2, -0.5] and a dense
    quadratic block; a random antisymmetric part is added to that block,
    which changes no value but makes it non-symmetric."""
    rng = np.random.default_rng([seed, 8])
    nu, lam = 8, CONJ8_LAM
    for _ in range(MAX_DRAWS):
        c = rng.uniform(0.5, 1.5, nu) * rng.choice([-1.0, 1.0], nu)
        P = np.eye(nu) + 0.3 * _gauss(rng, (nu, nu)) / np.sqrt(nu)
        if np.linalg.cond(P) > 10.0:
            continue
        Pinv = np.linalg.inv(P)
        L = P @ np.diag(lam) @ Pinv
        quad = np.einsum("ij,j,ja,jb->iab", P, 2.0 * lam / c, Pinv, Pinv)
        skew = 0.1 * rng.standard_normal((nu, nu, nu))
        quad = quad + skew - skew.transpose(0, 2, 1)
        blocks = {(0, 1): -L, (1, 1): -2.0 * L, (1, 0): P @ (lam * c / 2.0),
                  (1, 2): quad}
        p = _spec(nu, {key: arr[..., None] for key, arr in blocks.items()})
        if admissible(p, eps_grid, k_max):
            return Conj8(problem=p, P=P, lam=lam, c=c)
    raise RuntimeError(f"no admissible conj8 problem for seed {seed}")
