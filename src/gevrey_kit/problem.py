"""Right-hand-side model for eps*z*f' = F(eps, z, f).

F is a finite family of dense coefficient tensors: block (n, m) multiplies
z**n and m copies of f, with entries polynomial in eps.  The model is
normalized so that the constant block vanishes identically; the solvers
assume that normal form.  A built-in Riccati problem lives here too.

`assemble_B` is the one place that lays the blocks out for the solvers:
one array per arity m holding the coefficient of eps**j z**n of block
(n, m) at [..., j, n].  Each recursion reads a slice of it, so the
z-recursion at fixed eps and the formal eps-recursion share one layout.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import NormalizationError, SchemaError, SingularMatrixError
from .series import (COEFF_TOL, VecSeries, _check_finite, _check_relation, _checked_inverse,
                     _freeze, _horner, _jet_apply, solve_triangular)

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
        return _horner(np.moveaxis(self.entries, -1, 0), eps)


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
        _checked_inverse(a01.at_eps(0.0), "linear block at eps = 0")

    @cached_property
    def blocks(self) -> Mapping[tuple[int, int], CoeffTensor]:
        return {(t.n, t.m): t for t in self.tensors}

    @property
    def is_normalized(self) -> bool:
        return (0, 0) not in self.blocks

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
#: numpy's limit on array axes; a block of arity m needs m + 2
_MAX_AXES = 64
#: largest z-power n of a block: `assemble_B` holds every block of an arity
#: on a dense z-axis of length N_m + 1, and a few hundred powers is far beyond
#: any truncation order the solvers are run at
_MAX_Z_POWER = 256


def _is_double(v) -> bool:
    """A JSON number that is a finite double; bools are not numbers."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def parse_problem(document) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a problem document.

    `document` is a `Path` to a JSON file, a `str` of JSON text, or the
    decoded dict; a `str` is never taken for a file name.  The layout is
    ``{"nu", "rho", "rho1", "tensors": [{"n", "m", "entries"}]}`` where
    ``entries`` is a flat list of length ``nu**(m+1)`` in row-major slot
    order and every entry is a list of ``[re, im]`` eps-coefficients.
    Numbers must be finite doubles, n at most _MAX_Z_POWER and m + 2 at most
    _MAX_AXES.  A missing or singular linear block raises
    `SingularMatrixError`, any other fault, a missing or unreadable file
    included, `SchemaError`.
    """
    if isinstance(document, Path):
        try:
            document = document.read_text(encoding="utf-8")
        except FileNotFoundError as e:
            raise SchemaError(f"problem file not found: {document}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise SchemaError(f"cannot read problem file {document}: {e}") from e
    if isinstance(document, str):
        try:
            document = json.loads(document)
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
    if not (_is_double(rho) and _is_double(rho1)):
        raise SchemaError("rho and rho1 must be finite numbers")
    raw = document["tensors"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("tensors must be a non-empty list")
    tensors = []
    for item in raw:
        if not isinstance(item, dict) or set(item) != _TENSOR_KEYS:
            raise SchemaError(f"each tensor needs exactly the keys {sorted(_TENSOR_KEYS)}")
        n, m = item["n"], item["m"]
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (n, m)):
            raise SchemaError("tensor powers n, m must be nonnegative integers")
        if n > _MAX_Z_POWER:
            raise SchemaError(f"block ({n}, {m}) has z-power above {_MAX_Z_POWER}")
        if m + 2 > _MAX_AXES:
            raise SchemaError(f"block ({n}, {m}) needs {m + 2} array axes, at most {_MAX_AXES}")
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
                if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_double, pair)):
                    raise SchemaError("eps-coefficients must be [re, im] pairs of finite numbers")
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


def problem_to_json(p: ProblemSpec) -> str:
    """JSON text that :func:`parse_problem` reads back; floats round-trip bit-exactly."""
    tensors = []
    for t in p.tensors:
        flat = t.entries.reshape(-1, t.degree + 1)
        entries = [[[float(c.real), float(c.imag)] for c in row] for row in flat]
        tensors.append({"n": t.n, "m": t.m, "entries": entries})
    return json.dumps({"nu": p.nu, "rho": p.rho, "rho1": p.rho1, "tensors": tensors}, indent=2)


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


def shift_problem(p: ProblemSpec, s: VecSeries, *,
                  max_eps_order: int | None = None) -> ProblemSpec:
    """Return the problem re-expanded around f = s(eps) + f_new.

    The shifted (0,0) block must vanish below COEFF_TOL (scaled); it is then
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
        _check_relation(zz, scale, "the shift", "in the constant block", rtol=COEFF_TOL,
                        error=NormalizationError)

    tensors = []
    for (n, m), arr in sorted(shifted.items()):
        if (n, m) != (0, 1) and float(np.abs(arr).max()) <= COEFF_TOL * scale:
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
    zz = p.blocks.get((0, 0))
    if zz is not None and float(np.abs(zz.at_eps(0.0)).max()) > COEFF_TOL:
        raise NormalizationError(
            "F(0,0,0) != 0: no shift with s(0) = 0 exists; supply a root")

    a01_inv = _checked_inverse(p.a01(0.0), "linear block at eps = 0")
    # the z-constant blocks, with their eps-polynomial entries as series in eps
    zero_blocks = [(m, e[..., 0]) for m, e in assemble_B(p).items()]
    s = np.zeros((p.nu, k_eps + 1, 1), dtype=np.complex128)
    solve_triangular([(m, e[..., None]) for m, e in zero_blocks], s,
                     lambda j, c: -(a01_inv @ c))
    s = s[..., 0]

    # the root check is relative to the largest block term A_{0,m}(s, ..., s)
    terms = [_jet_apply(e, [s] * m, k_eps + 1) for m, e in zero_blocks]
    _check_relation(sum(terms), max(float(np.abs(t).max()) for t in terms),
                    "the order-by-order root", f"through eps-order {k_eps}",
                    error=NormalizationError)

    shift = VecSeries(s, var="eps")
    shifted = shift_problem(p, shift, max_eps_order=k_eps)
    return NormalizationShift(s=shift, shifted=shifted)


# ---------------------------------------------------------------------------
# built-in Riccati problem
# ---------------------------------------------------------------------------

def builtin_riccati(beta: Sequence[complex] = (1.0,)) -> ProblemSpec:
    """Normalized scalar Riccati problem eps*z*f' = -beta(eps)/2 - f + 2*z*f**2,
    with domain radii rho = 1 and rho1 = 4.

    `beta` is the coefficient list of a polynomial with beta(0) != 0.  The
    normalization substitutes f = ftilde - beta/2, which collects to

        -(1 + 2*beta*z) * ftilde + (beta**2 / 2) * z + 2*z*ftilde**2,

    so the delivered blocks are (0,1) -> -1, (1,1) -> -2*beta,
    (1,0) -> beta**2/2 and (1,2) -> 2.  The sign of the (1,1) block follows
    from the substitution; `validate-riccati` confirms it exactly: at phi of
    the continued-fraction reference, this F at phi + 1/2 is the raw F at phi.
    """
    b = np.atleast_1d(np.asarray(beta, dtype=np.complex128))
    if b.ndim != 1:
        raise ValueError("beta must be a coefficient sequence")
    if abs(b[0]) <= COEFF_TOL:
        raise NormalizationError("beta(0) must be nonzero for the built-in shift")

    raw = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
        CoeffTensor(0, 0, (-0.5 * b)[None, :]),
        CoeffTensor(0, 1, np.array([[[-1.0 + 0.0j]]])),
        CoeffTensor(1, 2, np.array([[[[2.0 + 0.0j]]]])),
    ))
    return shift_problem(raw, VecSeries((-0.5 * b)[None, :], var="eps"))


# ---------------------------------------------------------------------------
# the blocks of each arity as one array of (eps, z) coefficients
# ---------------------------------------------------------------------------

def assemble_B(p: ProblemSpec) -> dict[int, np.ndarray]:
    """The blocks of each arity as one array of bivariate coefficients.

    ``B[m]`` is a frozen array of shape ``(nu,) * (m + 1) + (J_m + 1, N_m + 1)``
    in the slot layout of :class:`CoeffTensor`: ``B[m][..., j, n]`` is the
    coefficient of eps**j z**n of block (n, m).  N_m is the largest z-power
    of arity m and J_m its last eps-power with a nonzero coefficient.  An
    arity whose blocks all vanish is left out.  Every recursion slices these
    arrays: the z-recursion sums the eps axis at its eps, the eps-orders
    read it from the front, the limit equation at eps = 0 reads ``[..., 0, :]``
    and the normalization shift, at z = 0, ``[..., 0]``.
    """
    shapes: dict[int, tuple[int, int]] = {}
    for t in p.tensors:
        nonzero = np.flatnonzero(t.entries.reshape(-1, t.degree + 1).any(axis=0))
        J, N = shapes.get(t.m, (-1, 0))
        shapes[t.m] = (max(J, int(nonzero.max(initial=-1))), max(N, t.n))
    out = {m: np.zeros((p.nu,) * (m + 1) + (J + 1, N + 1), dtype=np.complex128)
           for m, (J, N) in sorted(shapes.items()) if J >= 0}
    for t in p.tensors:
        if t.m in out:
            J = out[t.m].shape[-2]
            out[t.m][..., : t.degree + 1, t.n] = t.entries[..., :J]
    return {m: _freeze(arr) for m, arr in out.items()}
