"""Right-hand-side model for eps*z*f' = F(eps, z, f).

F is a finite family of dense coefficient tensors: block (n, m) multiplies
z**n and m copies of f, with entries polynomial in eps.  The model is
normalized so that the constant block vanishes identically; the solvers
assume that normal form.  A built-in Riccati problem and the reindexing of
the blocks into z-polynomial tensors graded by powers of eps live here too.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import NormalizationError, SchemaError, SingularMatrixError
from .series import COEFF_TOL, VecSeries, _check_finite, _freeze, _jet_apply, solve_triangular

MAX_DIMENSION = 8


@dataclass(frozen=True, eq=False)
class CoeffTensor:
    """Dense multilinear block of the right-hand side.

    `n` is the z-power, `m` the number of f-slots.  ``entries`` has shape
    ``(nu,) * (m + 1) + (D + 1,)`` in row-major slot order ``[i, i_1..i_m]``
    with a trailing axis of eps-polynomial coefficients.
    """

    n: int
    m: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError("powers n, m must be nonnegative")
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != self.m + 2:
            raise ValueError(f"entries for arity {self.m} need {self.m + 2} axes")
        nu = arr.shape[0]
        if any(s != nu for s in arr.shape[:-1]):
            raise ValueError("entry axes must share the dimension nu")
        if arr.shape[-1] < 1:
            raise ValueError("entries need at least the constant eps-coefficient")
        _check_finite(arr, "tensor entries")
        object.__setattr__(self, "entries", _freeze(arr.copy()))

    @property
    def nu(self) -> int:
        return self.entries.shape[0]

    @property
    def degree(self) -> int:
        return self.entries.shape[-1] - 1

    def at_eps(self, eps: complex) -> np.ndarray:
        """Evaluate the eps-polynomial entries at a numeric eps (Horner)."""
        acc = np.zeros(self.entries.shape[:-1], dtype=np.complex128)
        for j in range(self.degree, -1, -1):
            acc = acc * eps + self.entries[..., j]
        return acc

    def eps_coeff(self, j: int) -> np.ndarray:
        if j > self.degree:
            return np.zeros(self.entries.shape[:-1], dtype=np.complex128)
        return self.entries[..., j].copy()

    def frobenius_bound(self, radius: float) -> float:
        """Upper bound for the operator norm on the closed eps-disc of the
        given radius: triangle inequality over eps-coefficients, Frobenius
        norm of each flattened coefficient tensor (exact for nu = 1)."""
        flat = self.entries.reshape(-1, self.entries.shape[-1])
        norms = np.linalg.norm(flat, axis=0)
        return float(sum(norms[j] * radius**j for j in range(len(norms))))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A full right-hand side: dimension, blocks, and domain radii.

    The (0,1) block must be present with an invertible constant matrix; a
    (0,0) block may be present only on raw, not yet normalized problems.
    """

    nu: int
    rho: float
    rho1: float
    tensors: tuple[CoeffTensor, ...]

    def __post_init__(self):
        if not 1 <= self.nu <= MAX_DIMENSION:
            raise ValueError(f"dimension nu must be in [1, {MAX_DIMENSION}]")
        if not (self.rho > 0 and self.rho1 > self.rho):
            raise ValueError("radii must satisfy 0 < rho < rho1")
        seen = set()
        for t in self.tensors:
            if t.nu != self.nu:
                raise ValueError("tensor dimension does not match the problem")
            if (t.n, t.m) in seen:
                raise SchemaError(f"duplicate block ({t.n}, {t.m})")
            seen.add((t.n, t.m))
        object.__setattr__(self, "tensors",
                           tuple(sorted(self.tensors, key=lambda t: (t.n, t.m))))
        a01 = self.blocks.get((0, 1))
        if a01 is None:
            raise SingularMatrixError("missing (0,1) block; the linear part must be present")
        svals = np.linalg.svd(a01.at_eps(0.0), compute_uv=False)
        if float(svals[-1]) <= 1e-10:
            raise SingularMatrixError(
                f"linear block at eps=0 is not invertible "
                f"(smallest singular value {float(svals[-1]):.3e})",
                norm=float(svals[0]), smallest_singular_value=float(svals[-1]))

    @cached_property
    def blocks(self) -> Mapping[tuple[int, int], CoeffTensor]:
        return {(t.n, t.m): t for t in self.tensors}

    @property
    def n_max(self) -> int:
        return max(t.n for t in self.tensors)

    @property
    def m_max(self) -> int:
        return max(t.m for t in self.tensors)

    @property
    def is_normalized(self) -> bool:
        return (0, 0) not in self.blocks

    def tensor(self, n: int, m: int) -> CoeffTensor | None:
        return self.blocks.get((n, m))

    def a01(self, eps: complex = 0.0) -> np.ndarray:
        return self.blocks[(0, 1)].at_eps(eps)

    def eval_F(self, eps: complex, z: complex, f: np.ndarray) -> np.ndarray:
        """Evaluate the right-hand side at numeric (eps, z, f)."""
        from .series import multilinear_apply

        f = np.asarray(f, dtype=np.complex128)
        acc = np.zeros(self.nu, dtype=np.complex128)
        for t in self.tensors:
            acc += (z**t.n) * multilinear_apply(t.at_eps(eps), [f] * t.m)
        return acc

    def require_normalized(self) -> None:
        if not self.is_normalized:
            raise NormalizationError(
                "problem carries a (0,0) block; run normalize_shift first")


@dataclass(frozen=True, eq=False)
class NormalizationShift:
    """Shift s(eps) applied to f, together with the shifted problem."""

    s: VecSeries
    shifted: ProblemSpec


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

_TOP_KEYS = {"nu", "rho", "rho1", "tensors"}
_TENSOR_KEYS = {"n", "m", "entries"}


def parse_problem(document) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a problem document.

    `document` may be a dict, a JSON string, or a path to a JSON file.  The
    layout is ``{"nu", "rho", "rho1", "tensors": [{"n", "m", "entries"}]}``
    where ``entries`` is a flat list of length ``nu**(m+1)`` in row-major
    slot order and every entry is a list of ``[re, im]`` eps-coefficients.
    """
    if isinstance(document, (str, Path)):
        try:
            is_file = Path(document).exists()
        except OSError:
            is_file = False
        if is_file:
            text = Path(document).read_text(encoding="utf-8")
        elif isinstance(document, str):
            text = document
        else:
            raise SchemaError(f"problem file not found: {document}")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e}") from e
    if not isinstance(document, dict):
        raise SchemaError("problem document must be a JSON object")
    if set(document) != _TOP_KEYS:
        raise SchemaError(f"top-level keys must be exactly {sorted(_TOP_KEYS)}")
    nu = document["nu"]
    if not isinstance(nu, int) or isinstance(nu, bool) or not 1 <= nu <= MAX_DIMENSION:
        raise SchemaError(f"nu must be an integer in [1, {MAX_DIMENSION}]")
    rho, rho1 = document["rho"], document["rho1"]
    if not all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in (rho, rho1)):
        raise SchemaError("rho and rho1 must be numbers")
    if not (rho > 0 and rho1 > rho):
        raise SchemaError("radii must satisfy 0 < rho < rho1")
    raw = document["tensors"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("tensors must be a non-empty list")
    tensors = []
    seen = set()
    for item in raw:
        if not isinstance(item, dict) or set(item) != _TENSOR_KEYS:
            raise SchemaError(f"each tensor needs exactly the keys {sorted(_TENSOR_KEYS)}")
        n, m = item["n"], item["m"]
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (n, m)):
            raise SchemaError("tensor powers n, m must be nonnegative integers")
        if (n, m) in seen:
            raise SchemaError(f"duplicate block ({n}, {m})")
        seen.add((n, m))
        flat = item["entries"]
        want = nu ** (m + 1)
        if not isinstance(flat, list) or len(flat) != want:
            raise SchemaError(f"block ({n}, {m}) needs exactly {want} entries")
        lengths = set()
        rows = []
        for entry in flat:
            if not isinstance(entry, list) or not entry:
                raise SchemaError("each entry must be a non-empty list of [re, im] pairs")
            coeffs = []
            for pair in entry:
                if (not isinstance(pair, list) or len(pair) != 2
                        or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                   for v in pair)):
                    raise SchemaError("eps-coefficients must be [re, im] pairs")
                coeffs.append(complex(pair[0], pair[1]))
            lengths.add(len(coeffs))
            rows.append(coeffs)
        if len(lengths) != 1:
            raise SchemaError(f"block ({n}, {m}) entries must share one degree bound")
        deg1 = lengths.pop()
        arr = np.array(rows, dtype=np.complex128).reshape((nu,) * (m + 1) + (deg1,))
        tensors.append(CoeffTensor(n, m, arr))
    try:
        return ProblemSpec(nu=nu, rho=float(rho), rho1=float(rho1), tensors=tuple(tensors))
    except SingularMatrixError:
        raise
    except ValueError as e:
        raise SchemaError(str(e)) from e


def problem_to_dict(p: ProblemSpec) -> dict:
    """Inverse of :func:`parse_problem`; floats round-trip bit-exactly."""
    tensors = []
    for t in p.tensors:
        flat = t.entries.reshape(-1, t.degree + 1)
        entries = [[[float(c.real), float(c.imag)] for c in row] for row in flat]
        tensors.append({"n": t.n, "m": t.m, "entries": entries})
    return {"nu": p.nu, "rho": p.rho, "rho1": p.rho1, "tensors": tensors}


def problem_to_json(p: ProblemSpec) -> str:
    return json.dumps(problem_to_dict(p), indent=2)


# ---------------------------------------------------------------------------
# shifting and normalization
# ---------------------------------------------------------------------------

def _shift_blocks(blocks: dict[tuple[int, int], np.ndarray],
                  s: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Re-expand every block around f = s(eps) + f_new.

    For each block of arity m and each way of keeping m' slots free, the
    kept slots move to the front in their order and the others, now
    trailing, are contracted with `s` by the Taylor-jet kernel, through the
    full degree so the eps-polynomial product is exact.  Keeping the slot
    order handles non-symmetric tensors correctly.
    """
    from itertools import combinations

    out: dict[tuple[int, int], np.ndarray] = {}

    def accumulate(key, arr):
        # sums start from +0, so a zero term carries no sign into the blocks
        a, b = out.get(key, np.zeros_like(arr)), arr
        if a.shape[-1] < b.shape[-1]:
            a, b = b, a
        a = a.copy()
        a[..., : b.shape[-1]] += b
        out[key] = a

    for (n, m), entries in blocks.items():
        for keep in range(m, -1, -1):
            for kept in combinations(range(m), keep):
                dropped = tuple(slot for slot in range(m) if slot not in kept)
                axes = [0, *(1 + slot for slot in kept + dropped), m + 1]
                length = entries.shape[-1] + len(dropped) * (s.shape[1] - 1)
                accumulate((n, keep), _jet_apply(entries.transpose(axes),
                                                 [s] * len(dropped), length))
    return out


def shift_problem(p: ProblemSpec, s: VecSeries, *, drop_tol: float = COEFF_TOL,
                  max_eps_order: int | None = None) -> ProblemSpec:
    """Return the problem re-expanded around f = s(eps) + f_new.

    The shifted (0,0) block must vanish below `drop_tol` (scaled); it is then
    removed exactly.  Blocks that end up numerically zero are dropped, except
    the mandatory (0,1) block.
    """
    if s.var != "eps":
        raise ValueError("the shift must be an eps-series")
    if s.nu != p.nu:
        raise ValueError("shift dimension mismatch")
    shifted = _shift_blocks({(t.n, t.m): t.entries for t in p.tensors}, s.coeffs)
    if max_eps_order is not None:
        # the drop threshold and the (0,0) check scale with what is kept
        shifted = {key: arr[..., : max_eps_order + 1] for key, arr in shifted.items()}

    scale = max(1.0, max(float(np.abs(a).max()) for a in shifted.values()))
    zz = shifted.pop((0, 0), None)
    if zz is not None:
        worst = float(np.abs(zz).max())
        if worst > drop_tol * scale:
            raise NormalizationError(
                f"shift does not remove the constant block (residual {worst:.3e})")

    tensors = []
    for (n, m), arr in sorted(shifted.items()):
        if (n, m) != (0, 1) and float(np.abs(arr).max()) <= drop_tol * scale:
            continue
        last = int(np.max(np.nonzero(np.abs(arr).reshape(-1, arr.shape[-1]).max(axis=0)
                                     > 0.0)[0], initial=0))
        tensors.append(CoeffTensor(n, m, arr[..., : last + 1]))
    return ProblemSpec(nu=p.nu, rho=p.rho, rho1=p.rho1, tensors=tuple(tensors))


def normalize_shift(p: ProblemSpec, k_eps: int) -> NormalizationShift:
    """Remove the constant block by the unique shift s(eps) with s(0) = 0.

    Solves ``sum_m A_{0,m}(eps) s(eps)^m = 0`` order by order through
    ``k_eps`` (possible because the linear block at eps = 0 is invertible),
    then re-expands every block around f = s + f_new.  Requires F(0,0,0) = 0;
    otherwise the caller must supply a root and shift explicitly.
    """
    if k_eps < 1:
        raise ValueError("k_eps must be >= 1")
    zz = p.tensor(0, 0)
    if zz is not None and float(np.abs(zz.at_eps(0.0)).max()) > COEFF_TOL:
        raise NormalizationError(
            "F(0,0,0) != 0: no shift with s(0) = 0 exists; supply a root")

    a01_0 = p.a01(0.0)
    # the z-constant blocks, with their eps-polynomial entries as series in eps
    zero_blocks = [(t.m, t.entries) for t in p.tensors if t.n == 0]
    s = np.zeros((p.nu, k_eps + 1), dtype=np.complex128)
    solve_triangular(zero_blocks, s, lambda j, c: -np.linalg.solve(a01_0, c))

    phi = sum(_jet_apply(e, [s] * m, k_eps + 1) for m, e in zero_blocks)
    residual = float(np.abs(phi).max())
    if residual > 1e-10:
        raise NormalizationError(f"order-by-order root solve failed (residual {residual:.3e})")

    shift = VecSeries(s, var="eps")
    shifted = shift_problem(p, shift, max_eps_order=k_eps)
    return NormalizationShift(s=shift, shifted=shifted)


# ---------------------------------------------------------------------------
# built-in Riccati problem
# ---------------------------------------------------------------------------

def builtin_riccati(beta: Sequence[complex] = (1.0,), *, rho: float = 1.0,
                    rho1: float = 4.0) -> ProblemSpec:
    """Normalized scalar Riccati problem eps*z*f' = -beta(eps)/2 - f + 2*z*f**2.

    `beta` is the coefficient list of a polynomial with beta(0) != 0.  The
    normalization substitutes f = ftilde - beta/2, which collects to

        -(1 + 2*beta*z) * ftilde + (beta**2 / 2) * z + 2*z*ftilde**2,

    so the delivered blocks are (0,1) -> -1, (1,1) -> -2*beta,
    (1,0) -> beta**2/2 and (1,2) -> 2.  The sign of the (1,1) block follows
    from the substitution; the test suite confirms it by checking that the
    shifted continued-fraction reference satisfies this right-hand side.
    """
    b = np.atleast_1d(np.asarray(beta, dtype=np.complex128))
    if b.ndim != 1:
        raise ValueError("beta must be a coefficient sequence")
    if abs(b[0]) <= COEFF_TOL:
        raise NormalizationError("beta(0) must be nonzero for the built-in shift")

    raw = ProblemSpec(nu=1, rho=rho, rho1=rho1, tensors=(
        CoeffTensor(0, 0, (-0.5 * b)[None, :]),
        CoeffTensor(0, 1, np.array([[[-1.0 + 0.0j]]])),
        CoeffTensor(1, 2, np.array([[[[2.0 + 0.0j]]]])),
    ))
    return shift_problem(raw, VecSeries((-0.5 * b)[None, :], var="eps"))


# ---------------------------------------------------------------------------
# reindexing into z-polynomial blocks graded by eps-powers
# ---------------------------------------------------------------------------

def assemble_B(p: ProblemSpec) -> dict[tuple[int, int], np.ndarray]:
    """Reindex the blocks into z-polynomial tensors graded by eps-power.

    ``B[(j, m)]`` collects, for each z-power n, the eps-coefficient j of block
    (n, m): a frozen array in the layout of :class:`CoeffTensor` whose
    trailing axis holds z-coefficients.  Absent keys are identically zero.
    The z-degree of every returned tensor is the problem's maximal z-power
    for that arity.
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    zdeg_by_m = {}
    for t in p.tensors:
        zdeg_by_m[t.m] = max(zdeg_by_m.get(t.m, 0), t.n)
    for t in p.tensors:
        for j in range(t.degree + 1):
            coef = t.eps_coeff(j)
            if float(np.abs(coef).max()) == 0.0:
                continue
            key = (j, t.m)
            if key not in out:
                out[key] = np.zeros(coef.shape + (zdeg_by_m[t.m] + 1,), dtype=np.complex128)
            out[key][..., t.n] += coef
    return {key: _freeze(arr) for key, arr in sorted(out.items())}
