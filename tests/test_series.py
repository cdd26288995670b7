import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_kit import (
    MatSeries,
    builtin_riccati,
    mat_series_inverse,
    multilinear_apply,
    solve_eps_expansion,
)
from gevrey_kit.errors import ArityMismatchError, SingularMatrixError
from gevrey_kit.series import _cauchy, _horner, _jet_apply, _norm2, _taylor_shift, solve_triangular
from oracles import CONV_TAMING_A, cauchy_contraction, compositions, lemma_conv_bound


def jet_product(series, L):
    """Coefficients 0..L-1 of the componentwise product of vector series
    (rows are components), formed by the Taylor-jet kernel with the
    diagonal block of arity len(series)."""
    nu, m = series[0].shape[0], len(series)
    block = np.zeros((nu,) * (m + 1) + (1,), dtype=complex)
    for i in range(nu):
        block[(i,) * (m + 1)] = 1.0
    return _jet_apply(block, [np.asarray(x, dtype=complex) for x in series], L)


def jet_mul(a, b):
    """Scalar Cauchy product, truncated to the shorter operand."""
    return jet_product([np.atleast_2d(a), np.atleast_2d(b)], min(len(a), len(b)))[0]


def offset1(seq):
    """An offset-1 sequence (rows: indices 1, 2, ...) as a series with a
    zero constant coefficient."""
    seq = np.asarray(seq, dtype=complex)
    return np.concatenate([np.zeros((seq.shape[0], 1)), seq], axis=1)


def brute_mul(a, b, K):
    out = np.zeros(K + 1, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= K:
                out[i + j] += ai * bj
    return out


class TestSeriesMul:
    def test_difference_of_squares(self):
        np.testing.assert_allclose(jet_mul([1, 1, 0], [1, -1, 0]), [1, 0, -1])

    def test_identity(self):
        p = np.array([2.0, -1.0, 0.5, 3.0])
        np.testing.assert_array_equal(jet_mul([1, 0, 0, 0], p), p)

    def test_square_of_a0_prefix(self):
        # (z/2 - z^2)^2 = z^2/4 - z^3 + ... truncated at K=3
        p = np.array([0, 0.5, -1.0, 0.0])
        got = jet_mul(p, p)
        np.testing.assert_allclose(got, brute_mul(p, p, 3))
        np.testing.assert_allclose(got, [0, 0, 0.25, -1.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        ka, kb = rng.integers(0, 12, size=2)
        a = rng.standard_normal(ka + 1) + 1j * rng.standard_normal(ka + 1)
        b = rng.standard_normal(kb + 1) + 1j * rng.standard_normal(kb + 1)
        k = min(ka, kb)
        np.testing.assert_allclose(jet_mul(a, b), brute_mul(a[: k + 1], b[: k + 1], k),
                                   atol=1e-12)


class TestConvolutions:
    """The m-fold convolution of sequences indexed from 1 (offset 1) or from 0
    (offset 0) is a coefficient of the product of the series they define."""

    def test_offset1_single_composition(self):
        a = offset1([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(jet_product([a, a], 3)[:, 2], [1.0])

    def test_offset1_vanishes_at_one(self):
        a = offset1(np.ones((1, 5)))
        np.testing.assert_allclose(jet_product([a, a], 2)[:, 1], [0.0])

    def test_offset1_counts_compositions(self):
        a = offset1(np.ones((1, 5)))
        got = jet_product([a, a, a], 6)[:, 5]
        # compositions of 5 into 3 positive parts
        count = sum(1 for _ in compositions(5, 3, 1))
        assert count == 6
        np.testing.assert_allclose(got, [6.0])

    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_offset1_vanishes_below_m(self, seed, m, k):
        rng = np.random.default_rng(seed)
        seqs = [offset1(rng.standard_normal((2, 30))) for _ in range(m)]
        if k < m:
            np.testing.assert_array_equal(jet_product(seqs, k + 1)[:, k], np.zeros(2))

    def test_offset0_all_ones(self):
        a = np.ones((1, 4))
        np.testing.assert_allclose(jet_product([a, a], 3)[:, 2], [3.0])

    def test_offset0_delta_identity(self):
        delta = np.array([[1.0, 0.0, 0.0, 0.0]])
        rng = np.random.default_rng(7)
        b = rng.standard_normal((1, 4))
        np.testing.assert_allclose(jet_product([delta, b], 4), b)

    def test_offset0_arithmetic(self):
        a = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(jet_product([a, a], 3)[:, 2], [10.0])

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mul_agrees_with_offset0(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        a = rng.standard_normal(k + 1)
        b = rng.standard_normal(k + 1)
        np.testing.assert_allclose(jet_mul(a, b), np.convolve(a, b)[: k + 1], atol=1e-12)


class TestMultilinear:
    def test_scalar_linear(self):
        assert multilinear_apply(np.array([[-1.0]]), [np.array([3.0])])[0] == -3.0

    def test_riccati_quadratic(self):
        # arity-2 scalar tensor with entry 2 applied to (1/2, 1/2)
        A = np.full((1, 1, 1), 2.0 + 0j)
        half = np.array([0.5])
        np.testing.assert_allclose(multilinear_apply(A, [half, half]), [0.5])

    def test_identity_matrix(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_allclose(multilinear_apply(np.eye(2), [v]), v)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            multilinear_apply(np.eye(2), [np.ones(2), np.ones(2)])

    def test_nonsymmetric_order(self):
        A = np.zeros((1, 1, 1))  # placeholder shape check below with nu=2
        A = np.zeros((2, 2, 2))
        A[0, 0, 1] = 1.0
        u, v = np.array([2.0, 0.0]), np.array([0.0, 3.0])
        np.testing.assert_allclose(multilinear_apply(A, [u, v]), [6.0, 0.0])
        np.testing.assert_allclose(multilinear_apply(A, [v, u]), [0.0, 0.0])


def brute_jet(entries, factors, L):
    """Coefficients 0..L-1 of a block with series entries applied to one
    vector series per slot: the composition sum over every split of k."""
    m = entries.ndim - 2
    out = np.zeros((entries.shape[0], L), dtype=complex)
    for k in range(L):
        for n in range(min(entries.shape[-1], k + 1)):
            for comp in compositions(k - n, m, 0):
                if all(c < f.shape[1] for c, f in zip(comp, factors)):
                    out[:, k] += multilinear_apply(
                        entries[..., n], [f[:, c] for f, c in zip(factors, comp)])
    return out


class TestJetKernel:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_composition_sum(self, seed):
        # non-symmetric blocks and a different series in every slot, so a
        # slot-order mistake shows
        rng = np.random.default_rng(seed)
        nu, m, L = int(rng.integers(1, 4)), int(rng.integers(0, 4)), int(rng.integers(1, 9))

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        entries = draw((nu,) * (m + 1) + (int(rng.integers(1, 4)),))
        factors = [draw((nu, int(rng.integers(1, L + 3)))) for _ in range(m)]
        np.testing.assert_allclose(_jet_apply(entries, factors, L),
                                   brute_jet(entries, factors, L), rtol=1e-12, atol=1e-12)

    def test_free_leading_slot(self):
        # one factor short: slot 1 stays open, as in the jet of T_0
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((2, 2, 2, 3)) + 0j
        x = rng.standard_normal((2, 6)) + 0j
        got = _jet_apply(entries, [x], 6)
        assert got.shape == (2, 2, 6)
        for col in range(2):
            unit = np.zeros((2, 1), dtype=complex)
            unit[col, 0] = 1.0
            np.testing.assert_allclose(got[:, col], brute_jet(entries, [unit, x], 6),
                                       atol=1e-12)


class TestCauchyContraction:
    """`_cauchy` (one matrix product, then anti-diagonal sums) against the
    plain loops of `oracles.cauchy_contraction`."""

    @pytest.mark.parametrize("batch, free, nu, n, A, B, L", [
        ((2,), (3,), 2, 3, 4, 5, 6),    # batch axes, nu * n > 1
        ((), (2,), 1, 3, 3, 6, 7),      # A < B
        ((), (2,), 2, 2, 6, 3, 7),      # A > B
        ((), (1,), 1, 2, 8, 5, 4),      # L < A
        ((), (2,), 2, 1, 3, 4, 9),      # L > A + B - 1: the top coefficients are 0
        ((3,), (2,), 2, 2, 4, 1, 5),    # B = 1
        ((), (2,), 2, 2, 1, 4, 5),      # A = 1
        ((2,), (2, 2), 2, 3, 3, 4, 1),  # L = 1: one product
    ], ids=["batch", "A<B", "A>B", "L<A", "L>A+B-1", "B=1", "A=1", "L=1"])
    def test_matches_loops(self, batch, free, nu, n, A, B, L):
        rng = np.random.default_rng(7)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        s, x = draw(batch + free + (nu, n, A)), draw(batch + (nu, n, B))
        got = _cauchy(s, x, L)
        assert got.shape == batch + free + (L,)
        np.testing.assert_allclose(got, cauchy_contraction(s, x, L), rtol=1e-13, atol=1e-13)

    def test_mpmath_objects_at_50_digits(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        with mpmath.workdps(50):
            def draw(shape):
                return np.array([mpmath.mpc(mpmath.mpf(1) / int(p), mpmath.mpf(1) / int(q))
                                 for p, q in rng.integers(2, 1000, size=(math.prod(shape), 2))],
                                dtype=object).reshape(shape)

            s, x = draw((2, 2, 3, 5)), draw((2, 3, 4))
            got, ref = _cauchy(s, x, 6), cauchy_contraction(s, x, 6)
            assert got.dtype == object
            assert max(abs(g - r) for g, r in zip(got.ravel(), ref.ravel())) < 1e-45

    def test_memory_of_a_deep_expansion(self):
        # a contraction allocates little beyond its product: a riccati
        # expansion to eps-order 60 and z-order 150 peaks below 3 MB of
        # numpy and Python allocations
        p = builtin_riccati()
        tracemalloc.start()
        try:
            solve_eps_expansion(p, 60, 150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def lazy_triangular(blocks, x, solve):
    """The lazy form of `solve_triangular` on jets of length 1: every step
    recontracts the whole series sum e(x, ..., x) and keeps only coefficient
    k; returns the whole coefficients."""
    for k in range(1, x.shape[1]):
        c = sum(_jet_apply(e[..., 0], [x[:, : k + 1, 0]] * m, k + 1)[:, k] for m, e in blocks)
        x[:, k] = solve(k, c[:, None])
    return sum(_jet_apply(e[..., 0], [x[..., 0]] * m, x.shape[1]) for m, e in blocks)[..., None]


class TestOnlineTriangular:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_lazy_recontraction(self, seed):
        # non-symmetric blocks of arity 0..3, some longer than x, a nonzero
        # start x_0, and a solve that mixes the components
        rng = np.random.default_rng(seed)
        nu, L = int(rng.integers(1, 4)), int(rng.integers(1, 10))

        def draw(shape, scale=1.0):
            return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        blocks = [(m, draw((nu,) * (m + 1) + (int(rng.integers(1, L + 4)), 1), 0.5))
                  for m in rng.integers(0, 4, size=int(rng.integers(1, 4)))]
        mix = draw((nu, nu), 0.5)

        def solve(k, c):
            return mix @ c / k

        start = np.zeros((nu, L, 1), dtype=complex)
        start[:, 0, 0] = draw(nu, 0.5)
        want, got = start.copy(), start.copy()
        want_whole = lazy_triangular(blocks, want, solve)
        got_whole = solve_triangular(blocks, got, solve)
        for g, w in ((got, want), (got_whole, want_whole)):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(w).max()))


    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_one_by_one(self, seed):
        # independent problems on leading batch axes, with jets, nonzero
        # starts and blocks of arity 0..3, give what each gives alone
        rng = np.random.default_rng(seed)
        nu, L, K, B = (int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                       int(rng.integers(1, 9)), int(rng.integers(1, 4)))

        def draw(shape, scale=1.0):
            return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        arities = rng.integers(0, 4, size=int(rng.integers(1, 4)))
        blocks = [(int(m), draw((B,) + (nu,) * (m + 1) + (int(rng.integers(1, K + 3)),
                                                             int(rng.integers(1, L + 2))), 0.5))
                  for m in arities]
        mix = draw((B, nu, nu), 0.5)
        start = np.zeros((B, nu, K, L), dtype=complex)
        start[:, :, 0] = draw((B, nu, L), 0.5)
        got = start.copy()
        got_whole = solve_triangular(blocks, got, lambda k, c: mix @ c / k)
        for b in range(B):
            want = start[b].copy()
            want_whole = solve_triangular([(m, e[b]) for m, e in blocks], want,
                                          lambda k, c: mix[b] @ c / k)
            np.testing.assert_array_equal(got[b], want)
            np.testing.assert_array_equal(got_whole[b], want_whole)


class TestMatInverse:
    def test_geometric(self):
        t = MatSeries(np.array([[[1.0, 1.0, 0.0, 0.0]]], dtype=complex))
        s = mat_series_inverse(t)
        np.testing.assert_allclose(s.coeffs[0, 0], [1, -1, 1, -1], atol=1e-14)

    def test_riccati_t0_prefix(self):
        t = MatSeries(np.array([[[-1.0, -2.0, 2.0, -4.0]]], dtype=complex))
        s = mat_series_inverse(t)
        np.testing.assert_allclose(s.coeffs[0, 0], [-1, 2, -6, 20], atol=1e-12)
        # dual route: the product is the identity series
        prod = t.matmul(s)
        np.testing.assert_allclose(prod.coeffs[0, 0], [1, 0, 0, 0], atol=1e-12)

    def test_singular_constant_term(self):
        t = MatSeries(np.array([[[0.0, 1.0]]], dtype=complex))
        with pytest.raises(SingularMatrixError):
            mat_series_inverse(t)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_well_conditioned(self, seed):
        rng = np.random.default_rng(seed)
        nu = int(rng.integers(1, 5))
        K = int(rng.integers(1, 41))
        coeffs = 0.3 * (rng.standard_normal((nu, nu, K + 1))
                        + 1j * rng.standard_normal((nu, nu, K + 1)))
        coeffs[:, :, 0] = np.eye(nu) + 0.2 * coeffs[:, :, 0]
        coeffs[:, :, 1:] /= np.arange(1, K + 1)  # keep the inverse tame
        t = MatSeries(coeffs)
        s = mat_series_inverse(t)
        resid = t.matmul(s).coeffs.copy()
        resid[:, :, 0] -= np.eye(nu)
        assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(s.coeffs).max())


class TestApplyVec:
    def test_hand_computed_product(self):
        # A(z) = [[1, z], [2z, 3]] times v(z) = (1 + z^2, 2 + z - z^2),
        # truncated to the order 1 of A: (1, 6) + (2, 5) z
        a = np.array([[[1, 0], [0, 1]], [[0, 2], [3, 0]]], dtype=complex)
        v = np.array([[1, 0, 1], [2, 1, -1]], dtype=complex)
        got = MatSeries(a).apply_vec(v)
        np.testing.assert_array_equal(got, [[1, 2], [6, 5]])


class TestTaylorShift:
    def test_complex_centre_against_derivatives(self):
        # coefficient q of p(z0 + h) is p^(q)(z0) / q!
        rng = np.random.default_rng(7)
        poly = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        z0 = complex(0.7, -1.3)
        want = np.stack([np.polynomial.polynomial.polyval(
            z0, np.polynomial.polynomial.polyder(poly, q, axis=-1).T).T / math.factorial(q)
            for q in range(5)], axis=-1)
        np.testing.assert_allclose(_taylor_shift(poly, z0), want, rtol=1e-13, atol=1e-13)

    def test_overflow_is_non_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _taylor_shift(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex), 1e200)
        assert not np.all(np.isfinite(out))
        assert out[3] == 1.0


class TestDerivativeEvaluate:
    def test_evaluate_horner(self):
        # the power on the leading axis: a vector series transposed
        assert _horner(np.array([[1, 2, 3]], dtype=complex).T, 1.0)[0] == 6.0
        assert _horner(np.array([[4, 2, 3]], dtype=complex).T, 0.0)[0] == 4.0

    def test_evaluate_geometric_tail(self):
        # coefficient pattern of 1/(2(1+eps)) truncated at 20
        coeffs = [0.5 * (-1.0) ** j for j in range(21)]
        got = _horner(np.array(coeffs, dtype=complex), 0.1)
        assert abs(got - 1.0 / 2.2) < 1e-12


class TestLemmaConvBound:
    def test_constant_value(self):
        assert abs(CONV_TAMING_A - 0.5 / (1 + math.pi**2 / 3)) < 1e-16
        assert f"{CONV_TAMING_A:.7f}".startswith("0.1165537")  # 0.1165536...

    def test_m2_ratio(self):
        rep = lemma_conv_bound(0.0, False, 2)
        assert abs(rep.max_ratio - 4 * CONV_TAMING_A) < 1e-14
        assert rep.passed

    def test_m0_with_head(self):
        rep = lemma_conv_bound(0.0, True, 1)
        assert rep.passed  # A^2 <= A since A < 1

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("c0", [False, True])
    def test_passes_to_500(self, lam, c0):
        rep = lemma_conv_bound(lam, c0, 500)
        assert rep.passed, rep

    def test_against_naive_loop(self):
        # independent plain-float double loop, no log-space
        for lam in (0.0, 1.0):
            for c0 in (0.0, CONV_TAMING_A):
                cs = [c0] + [CONV_TAMING_A * math.factorial(l) ** lam / l**2
                             for l in range(1, 51)]
                worst = 0.0
                for m in range(51):
                    if cs[m] == 0.0:
                        continue
                    ratio = sum(cs[l] * cs[m - l] for l in range(m + 1)) / cs[m]
                    worst = max(worst, ratio)
                rep = lemma_conv_bound(lam, c0 != 0.0, 50)
                assert abs(rep.max_ratio - worst) < 1e-12

    def test_kfold_corollary(self):
        # with C_0 = 0: sum over l_1+..+l_k = m, l_j >= 1 of prod C_lj <= C_m
        M = 60
        c = np.zeros(M + 1)
        c[1:] = CONV_TAMING_A / np.arange(1, M + 1) ** 2
        # recursive k-fold sums
        s_prev = c.copy()
        for k in range(2, M + 1):
            s_cur = np.zeros(M + 1)
            for m in range(k, M + 1):
                s_cur[m] = sum(c[l] * s_prev[m - l] for l in range(1, m - k + 2))
            for m in range(k, M + 1):
                assert s_cur[m] <= c[m] * (1 + 1e-12), (k, m)
            if k <= 4:
                for m in range(k, min(M, 24) + 1):
                    brute = sum(
                        math.prod(c[l] for l in comp)
                        for comp in compositions(m, k, 1))
                    assert abs(brute - s_cur[m]) < 1e-15
            s_prev = s_cur


class TestCarriers:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MatSeries(np.array([[[1.0, np.inf]]]))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: MatSeries(np.ones((2, 1, 1))), ValueError, r"shape \(nu, nu, order \+ 1\)"),
        (lambda: multilinear_apply(np.ones((2, 2)), [np.ones(3)]), ArityMismatchError,
         "vector dimension does not match"),
    ], ids=["mat-shape", "vector-dimension"])
    def test_shape_guards(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_vecseries_components(self):
        # a vector series is a (nu, order + 1) array: the norm of each
        # coefficient vector is taken along its components
        v = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_allclose(_norm2(v, axis=0), [math.sqrt(10), math.sqrt(20)])

    def test_vecseries_norms_past_the_square_range(self):
        # the squares of 3e200 and 4e200 overflow, the norm 5e200 does not
        v = np.array([[3e200, 1.0], [4e200j, 0.0]])
        np.testing.assert_allclose(_norm2(v, axis=0), [5e200, 1.0], rtol=1e-15)
        # the squares of 3e-170 and 4e-170 underflow, the norm 5e-170 does not
        v = np.array([[3e-170], [4e-170j]])
        np.testing.assert_allclose(_norm2(v, axis=0), [5e-170], rtol=1e-15)
        # sqrt(2) * 1.5e308 is past the double range itself
        assert np.isinf(_norm2(np.array([[1.5e308, 1.0], [1.5e308j, 0.0]]), axis=0)[0])
