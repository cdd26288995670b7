import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest

from gevrey_kit import (
    CoeffTensor,
    ProblemSpec,
    assemble_B,
    build_T0,
    builtin_riccati,
    eps_values_at,
    mat_series_inverse,
    solve_a0,
    solve_ai,
    solve_coeffs_z,
    solve_eps_expansion,
)
from gevrey_kit import series
from gevrey_kit.errors import GevreyKitError, InsufficientOrderError
from gevrey_kit.series import _horner, _jet_apply, solve_triangular
from oracles import (compositions, conjugate_riccati_eps_values, conjugate_riccati_problem,
                     riccati_eps_values)


def half_binomial(k):
    """binom(1/2, k) as an exact fraction."""
    b = Fraction(1)
    for j in range(k):
        b = b * (Fraction(1, 2) - j) / (j + 1)
    return b


def a0_exact_coeff(k):
    """[z^k] of 1/2 - 1/(1 + sqrt(1+4z)) = -binom(1/2, k+1) 4^k for k >= 1."""
    return float(-half_binomial(k + 1) * Fraction(4) ** k)


def sqrt1p4z_coeff(k):
    """[z^k] of sqrt(1+4z)."""
    return float(half_binomial(k) * Fraction(4) ** k)


def inv_sqrt1p4z_coeff(k):
    """[z^k] of 1/sqrt(1+4z) = binom(-1/2, k) 4^k."""
    b = Fraction(1)
    for j in range(k):
        b = b * (Fraction(-1, 2) - j) / (j + 1)
    return float(b * Fraction(4) ** k)


def perturb_a0_jet(monkeypatch, L, k, rel):
    """Make h-coefficient k of every a_0 jet of length L wrong by `rel`
    relative, in the solver of the driver."""
    from gevrey_kit import epssolver

    def perturbed(blocks, x, solve):
        if x.shape[-2:] != (L, 1):   # the eps-orders or another a_0 jet
            return solve_triangular(blocks, x, solve)
        return solve_triangular(blocks, x, lambda j, c: solve(j, c) * (1 + rel * (j == k)))

    monkeypatch.setattr(epssolver, "solve_triangular", perturbed)


class TestA0:
    def test_riccati_against_binomial_oracle(self, riccati):
        a0 = solve_a0(riccati, 25)
        assert a0[0, 0] == 0.0
        for k in range(1, 26):
            exact = a0_exact_coeff(k)
            got = a0[0, k].real
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), k

    def test_riccati_first_terms(self, riccati):
        a0 = solve_a0(riccati, 3)
        np.testing.assert_allclose(a0[0, :3].real, [0.0, 0.5, -1.0], atol=1e-14)

    def test_brute_force_substitution(self, riccati):
        # -(1+2z) a0 + z/2 + 2 z a0^2 must vanish through the truncation
        K = 18
        a0 = solve_a0(riccati, K)[0].real
        quad = np.convolve(a0, a0)[: K + 1]
        resid = -a0 - 2 * np.concatenate([[0], a0[:-1]])
        resid[1] += 0.5
        resid += 2 * np.concatenate([[0], quad[:-1]])
        assert np.abs(resid).max() < 1e-12

    def test_linear_problem(self, linear_problem):
        a0 = solve_a0(linear_problem, 8)
        expect = np.zeros(9)
        expect[1] = 1.0
        np.testing.assert_allclose(a0[0].real, expect, atol=1e-14)

    def test_zero_forcing(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
            CoeffTensor(2, 2, np.array([[[[1.0 + 0j]]]])),
        ))
        a0 = solve_a0(p, 10)
        assert np.abs(a0).max() == 0.0

    def test_agrees_with_z_solver_at_zero(self, riccati):
        a0 = solve_a0(riccati, 20)
        sol = solve_coeffs_z(riccati, 0.0, 20)
        np.testing.assert_allclose(a0[:, 1:].T, sol.coeffs, atol=1e-12)

    def test_overflow_is_a_typed_error(self, riccati):
        # the a_0 coefficients grow like 4^k: order 800 passes the double range
        with pytest.raises(GevreyKitError, match="a_0 overflows") as exc:
            solve_a0(riccati, 800)
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("run, L", [
        (lambda p: solve_a0(p, 10), 11),
        (lambda p: solve_eps_expansion(p, 3, 20), 21),
        (lambda p: eps_values_at(p, 0.05, 3), 4),   # not the Newton start series
    ])
    def test_wrong_jet_fails_its_relation(self, riccati, monkeypatch, run, L):
        # an a_0 jet of length L whose last h-coefficient misses
        # F(0, z, a_0) = 0 by 1e-6 relative is caught like a wrong a_i
        perturb_a0_jet(monkeypatch, L, L - 1, 1e-6)
        with pytest.raises(GevreyKitError, match="defining relation for a_0 left residual"):
            run(riccati)

    def test_wrong_low_coefficient_fails_its_relation(self, riccati, monkeypatch):
        # the h^1 coefficient is checked against its own terms, not against
        # those of h^20, which are 1e12 times larger
        perturb_a0_jet(monkeypatch, 21, 1, 1e-3)
        with pytest.raises(GevreyKitError, match="defining relation for a_0 left residual"):
            solve_eps_expansion(riccati, 3, 20)

    @pytest.mark.parametrize("s", [1e8, 1e-11, 1e-15])
    def test_scaled_blocks_pass_their_relation(self, riccati, s):
        # every block times s multiplies F(0, z, a_0), and the rounding of
        # its terms, by s: a_0 stays, a_i becomes a_i / s^i, and no check
        # may read the rounding of the larger terms as a wrong a_0, nor a
        # small linear block as a singular one
        scaled = ProblemSpec(nu=1, rho=riccati.rho, rho1=riccati.rho1, tensors=tuple(
            CoeffTensor(t.n, t.m, t.entries * s) for t in riccati.tensors))
        np.testing.assert_allclose(solve_a0(scaled, 40), solve_a0(riccati, 40), rtol=1e-12)
        got, want = solve_eps_expansion(scaled, 3, 20), solve_eps_expansion(riccati, 3, 20)
        for i in range(4):
            np.testing.assert_allclose(got[i] * s**i, want[i], rtol=1e-10)
        np.testing.assert_allclose(eps_values_at(scaled, 0.05, 3) * s ** np.arange(4)[:, None],
                                   eps_values_at(riccati, 0.05, 3), rtol=1e-10)


class TestT0:
    def test_riccati_is_minus_sqrt(self, riccati):
        K = 12
        a0 = solve_a0(riccati, K)
        t0 = build_T0(riccati, a0, K)
        t0_inv = mat_series_inverse(t0)
        for k in range(K + 1):
            assert t0.coeffs[0, 0, k].real == pytest.approx(
                -sqrt1p4z_coeff(k), abs=1e-10 * 4**k)
            assert t0_inv.coeffs[0, 0, k].real == pytest.approx(
                -inv_sqrt1p4z_coeff(k), abs=1e-10 * 4**k)
        # independent identity: T0^2 = 1 + 4z
        sq = t0.matmul(t0).coeffs[0, 0].real
        expect = np.zeros(K + 1)
        expect[0], expect[1] = 1.0, 4.0
        np.testing.assert_allclose(sq, expect, atol=1e-9)

    def test_linear_block_only(self, linear_problem):
        a0 = solve_a0(linear_problem, 6)
        t0 = build_T0(linear_problem, a0, 6)
        np.testing.assert_allclose(t0.coeffs[0, 0].real, [-1, 0, 0, 0, 0, 0, 0],
                                   atol=1e-14)
        np.testing.assert_allclose(mat_series_inverse(t0).coeffs[0, 0].real,
                                   [-1, 0, 0, 0, 0, 0, 0], atol=1e-14)

    def test_zero_a0_reduces_to_B01(self, riccati):
        zero = np.zeros((1, 7), dtype=complex)
        t0 = build_T0(riccati, zero, 6)
        np.testing.assert_allclose(t0.coeffs[0, 0].real, [-1, -2, 0, 0, 0, 0, 0],
                                   atol=1e-14)
        # -1/(1 + 2z)
        np.testing.assert_allclose(mat_series_inverse(t0).coeffs[0, 0].real,
                                   [-(-2.0) ** k for k in range(7)], atol=1e-12)


class TestAi:
    def test_riccati_a1_closed_form(self, riccati):
        # a1 = -2z / ((1+4z) (1+sqrt(1+4z))^2); series oracle with fractions
        K = 10
        a = solve_eps_expansion(riccati, 1, K + 1)
        a1 = a[1][0].real

        # oracle built from exact binomials: numerator -2z, denominator
        # (1+4z)*(1+sqrt(1+4z))^2 inverted term by term with fractions
        sq = [half_binomial(k) * Fraction(4) ** k for k in range(K + 2)]
        one_plus = [Fraction(1) + sq[0]] + sq[1:]
        dsq = np.convolve([float(x) for x in one_plus],
                          [float(x) for x in one_plus])[: K + 2]
        den = np.convolve(dsq, [1.0, 4.0])[: K + 2]
        num = np.zeros(K + 2)
        num[1] = -2.0
        # invert den (den[0] = 4) and multiply
        inv = np.zeros(K + 2)
        inv[0] = 1.0 / den[0]
        for k in range(1, K + 2):
            inv[k] = -sum(den[j] * inv[k - j] for j in range(1, k + 1)) / den[0]
        expect = np.convolve(num, inv)[: K + 1]
        np.testing.assert_allclose(a1[: K + 1], expect, rtol=1e-9, atol=1e-12)
        assert a1[1] == pytest.approx(-0.5)

    def test_a1_matches_eps_derivative_of_f1(self, riccati):
        # d/deps [1/(2(1+eps))] at 0 = -1/2 = [z^1] a_1
        a = solve_eps_expansion(riccati, 1, 8)
        assert a[1][0, 1].real == pytest.approx(-0.5)

    def test_linear_problem_alternating(self, linear_problem):
        # f = z/(1+eps): a_i = (-1)^i z exactly
        a = solve_eps_expansion(linear_problem, 6, 14)
        for i, ai in enumerate(a):
            expect = np.zeros(ai.shape[1])
            expect[1] = (-1.0) ** i
            np.testing.assert_allclose(ai[0].real, expect, atol=1e-12)

    def test_nonlinear_cross_terms_present(self, riccati):
        # [z^3] a_2 = 59 = [eps^2] f_3; off by the quadratic block's
        # (1,1)-composition (one half here) if that cross term is dropped
        a = solve_eps_expansion(riccati, 2, 10)
        assert a[2][0, 3].real == pytest.approx(59.0)

    def test_delivered_orders(self, riccati):
        K = 12
        a = solve_eps_expansion(riccati, 4, K)
        for i, ai in enumerate(a):
            assert ai.shape == (1, (K if i == 0 else K - i) + 1)

    def test_insufficient_order(self, riccati):
        with pytest.raises(InsufficientOrderError):
            solve_eps_expansion(riccati, 12, 12)
        a0 = solve_a0(riccati, 5)
        with pytest.raises(InsufficientOrderError):
            solve_ai(riccati, [a0] + [None] * 4, 5, 5)

    def test_residuals_verified(self, riccati):
        # every order passes its check against the whole eps^i coefficient,
        # which raises otherwise
        solve_eps_expansion(riccati, 8, 30)

    def test_overflow_is_a_typed_error(self, riccati):
        # the a_i grow factorially in i and geometrically in z-order; by
        # i = 100 at K_z = 230 they pass the double range
        with pytest.raises(GevreyKitError, match="overflows") as exc:
            solve_eps_expansion(riccati, 100, 230)
        assert not isinstance(exc.value, ValueError)

    def test_zero_problem_stays_zero(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),))
        a = solve_eps_expansion(p, 5, 12)
        for ai in a:
            assert np.abs(ai).max() == 0.0


class TestContractionEstimate:
    def test_riccati_small_disc(self, riccati):
        from oracles import contraction_estimate

        a0 = solve_a0(riccati, 30)
        b = contraction_estimate(riccati, a0, kappa=0.05, c=1.5)
        assert 0.0 < b < 1.0  # the linearized factor stays a contraction

    def test_grows_with_radius(self, riccati):
        from oracles import contraction_estimate

        a0 = solve_a0(riccati, 40)
        b_small = contraction_estimate(riccati, a0, kappa=0.02, c=1.5)
        b_large = contraction_estimate(riccati, a0, kappa=0.1, c=1.5)
        assert b_small < b_large


class TestTwoDimensional:
    def test_diagonal_system_matches_scalars(self):
        # decoupled pair of linear problems solved as one 2d system
        a01 = np.zeros((2, 2, 1), dtype=complex)
        a01[0, 0, 0], a01[1, 1, 0] = -1.0, -2.0
        frc = np.zeros((2, 1), dtype=complex)
        frc[0, 0], frc[1, 0] = 1.0, 3.0
        p = ProblemSpec(nu=2, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, a01), CoeffTensor(1, 0, frc)))
        a = solve_eps_expansion(p, 4, 10)
        # component closed forms: z/(1+eps) and (3/2) z/(1+eps/2)
        for i, ai in enumerate(a):
            assert ai[0, 1].real == pytest.approx((-1.0) ** i)
            assert ai[1, 1].real == pytest.approx(1.5 * (-0.5) ** i)
        zsol = solve_coeffs_z(p, 0.3, 6)
        assert zsol.coeffs[0, 0] == pytest.approx(1.0 / 1.3)
        assert zsol.coeffs[0, 1] == pytest.approx(3.0 / 2.3)


def coupled_problem():
    """nu = 2, non-symmetric blocks of arity 0..3, eps-dependent linear
    block and forcing: every branch of the order-i relation is exercised."""
    rng = np.random.default_rng(3)

    def draw(shape, scale):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    a01 = draw((2, 2, 2), 0.1)
    a01[0, 0, 0] += -1.0
    a01[1, 1, 0] += -1.5
    return ProblemSpec(nu=2, rho=1.0, rho1=4.0, tensors=(
        CoeffTensor(0, 1, a01),
        CoeffTensor(1, 0, draw((2, 2), 0.5)),
        CoeffTensor(1, 1, draw((2, 2, 1), 0.3)),
        CoeffTensor(0, 2, draw((2, 2, 2, 2), 0.3)),
        CoeffTensor(1, 2, draw((2, 2, 2, 1), 0.3)),
        CoeffTensor(0, 3, draw((2, 2, 2, 2, 1), 0.2)),
    ))


class TestPointValues:
    def test_riccati_matches_z_series_at_low_order(self, riccati):
        # i <= 12 is where summing the z-series at 0 is still accurate
        jets = eps_values_at(riccati, 0.05, 12)
        series = np.stack([_horner(a.T, 0.05) for a in solve_eps_expansion(riccati, 12, 60)])
        np.testing.assert_allclose(jets, series, rtol=1e-11, atol=1e-11)

    def test_coupled_problem_matches_z_series(self):
        p = coupled_problem()
        jets = eps_values_at(p, 0.02, 8)
        series = np.stack([_horner(a.T, 0.02) for a in solve_eps_expansion(p, 8, 40)])
        np.testing.assert_allclose(jets, series, rtol=1e-11, atol=1e-11)

    def test_staggered_problem_matches_z_series(self, staggered):
        # the cubic arity enters only at eps^1 and the (1,1) block ends in
        # a zero eps-coefficient; recentring keeps both
        jets = eps_values_at(staggered, 0.02, 8)
        series = np.stack([_horner(a.T, 0.02) for a in solve_eps_expansion(staggered, 8, 40)])
        np.testing.assert_allclose(jets, series, rtol=1e-11, atol=1e-11)

    def test_double_against_50_digits(self, riccati):
        mpmath = pytest.importorskip("mpmath")
        jets = eps_values_at(riccati, 0.05, 40)
        with mpmath.workdps(50):
            exact = eps_values_at(riccati, mpmath.mpf(0.05), 40)
            z = mpmath.mpf(0.05)
            a0 = 0.5 - 1 / (1 + mpmath.sqrt(1 + 4 * z))   # phi0(z) + 1/2
            assert abs(exact[0, 0] - a0) < 1e-40
        assert exact.dtype == object
        np.testing.assert_allclose(jets, exact.astype(complex), rtol=1e-8)

    @pytest.fixture(scope="class")
    def oracle_values(self):
        # a_0..a_60; those through a_40 are what a call with I = 40 gives
        pytest.importorskip("mpmath")
        return riccati_eps_values(0.05, 60)

    def test_double_against_mpmath_oracle(self, riccati, oracle_values):
        jets = eps_values_at(riccati, 0.05, 40)
        np.testing.assert_allclose(jets[:, 0], [complex(v) for v in oracle_values[:41]],
                                   rtol=1e-8)

    def test_double_against_mpmath_oracle_to_order_60(self, riccati, oracle_values):
        # the relative error grows with i, to 6.0e-7 at i = 52
        jets = eps_values_at(riccati, 0.05, 60)
        np.testing.assert_allclose(jets[:, 0], [complex(v) for v in oracle_values],
                                   rtol=1e-5)

    def test_50_digits_against_mpmath_oracle(self, riccati, oracle_values):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = eps_values_at(riccati, mpmath.mpf(0.05), 40)
            for i, v in enumerate(oracle_values[:41]):
                assert abs(exact[i, 0] - v) <= 1e-40 * abs(v), i

    @pytest.fixture(scope="class")
    def conjugate(self):
        # drawn as the benchmark's conj8 is: eight rescaled Riccati problems
        # behind a dense P (condition number 2.2) and a non-symmetric
        # quadratic block
        rng = np.random.default_rng(8)
        nu = 8
        lam = np.geomspace(0.5, 2.0, nu)
        c = rng.uniform(0.5, 1.5, nu) * rng.choice([-1.0, 1.0], nu)
        P = np.eye(nu) + 0.3 * (rng.standard_normal((nu, nu))
                                + 1j * rng.standard_normal((nu, nu))) / np.sqrt(2 * nu)
        skew = 0.1 * rng.standard_normal((nu, nu, nu))
        return conjugate_riccati_problem(P, c, lam, skew), (P, c, lam)

    @pytest.mark.parametrize("I, rtol", [(12, 1e-11), (30, 1e-8)])
    @pytest.mark.parametrize("z", [0.02, 0.05, 0.1])
    def test_conjugate_against_mpmath_oracle(self, conjugate, z, I, rtol):
        # every block couples all eight components; the worst errors on this
        # draw are 1.6e-13 at I = 12 and 2.3e-10 at I = 30
        pytest.importorskip("mpmath")
        p, (P, c, lam) = conjugate
        want = conjugate_riccati_eps_values(P, c, lam, z, I)
        got = eps_values_at(p, z, I)
        assert np.all(np.linalg.norm(got - want, axis=1)
                      <= rtol * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("z", [0.22, 0.24])
    def test_start_near_the_a0_radius(self, riccati, z):
        # the a_0 series (radius 1/4) needs order 80 at z = 0.22 and 160 at
        # z = 0.24 before its value agrees with the Newton root
        mpmath = pytest.importorskip("mpmath")
        jets = eps_values_at(riccati, z, 12)
        with mpmath.workdps(30):
            exact = eps_values_at(riccati, mpmath.mpf(z), 12)
            a0 = 0.5 - 1 / (1 + mpmath.sqrt(1 + 4 * mpmath.mpf(z)))
            assert abs(exact[0, 0] - a0) < 1e-25
        np.testing.assert_allclose(jets, exact.astype(complex), rtol=1e-10)

    @pytest.mark.parametrize("z", [0.01, 0.22, 0.24])
    def test_low_order_against_mpmath_oracle(self, riccati, z):
        mpmath = pytest.importorskip("mpmath")
        oracle = riccati_eps_values(z, 12, 30)
        np.testing.assert_allclose(eps_values_at(riccati, z, 12)[:, 0],
                                   [complex(v) for v in oracle], rtol=1e-10)
        with mpmath.workdps(30):
            exact = eps_values_at(riccati, mpmath.mpf(z), 12)
            for i, v in enumerate(oracle):
                assert abs(exact[i, 0] - v) <= 1e-25 * abs(v), i

    def test_start_outside_a0_disc_is_refused(self, riccati):
        # a_0 = 1/2 - 1/(1 + sqrt(1 + 4z)) has its only branch point at z = -1/4,
        # so its series (radius 1/4) cannot start Newton at z = 2
        with pytest.raises(GevreyKitError):
            eps_values_at(riccati, 2.0, 4)

    @pytest.mark.parametrize("z", [-0.3, 1e10])
    def test_unresolved_a0_is_refused(self, riccati, z):
        # past the branch point, at z = -0.3, both roots of the limit
        # equation are complex, and Newton from the real a_0 series never
        # settles; at z = 1e10 the a_0 series itself overflows
        with pytest.raises(GevreyKitError, match="does not resolve a_0"):
            eps_values_at(riccati, z, 4)

    def test_overflowing_a0_series_is_refused(self):
        # beta = 100 shrinks the radius of a_0 to about 1/400: its series
        # overflows double precision before order 160, which must end the
        # search for a start with a typed error and no warning
        with pytest.raises(GevreyKitError):
            eps_values_at(builtin_riccati((100.0,)), 0.5, 4)

    def test_overflowing_order_is_a_typed_error(self):
        # beta = 10 makes the a_i(0.01) grow fast enough to pass the double
        # range well before order 200; the order that does is named
        with pytest.raises(GevreyKitError, match=r"a_\d+ overflows double precision at z") \
                as exc:
            eps_values_at(builtin_riccati((10.0,)), 0.01, 200)
        assert not isinstance(exc.value, ValueError)

    def test_overflowing_a0_jet_is_a_typed_error(self):
        # with beta = 10 the h-jet of a_0 at 0.01 passes the double range
        # before h-order 260: that is named, and nothing is warned about
        with pytest.raises(GevreyKitError, match="a_0 overflows double precision at z") \
                as exc:
            eps_values_at(builtin_riccati((10.0,)), 0.01, 260)
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("z", [math.inf, math.nan, complex(0.05, math.inf)])
    def test_non_finite_centre_is_refused(self, riccati, z):
        with pytest.raises(ValueError, match="not finite"):
            eps_values_at(riccati, z, 4)

    def test_non_finite_mpmath_centre_is_refused(self, riccati):
        mpmath = pytest.importorskip("mpmath")
        with pytest.raises(ValueError, match="not finite"):
            eps_values_at(riccati, mpmath.mpf("inf"), 4)

    def test_overflowing_recentred_blocks_are_named(self, riccati, staggered):
        # at 1e308 the z-linear riccati blocks overflow when multiplied out,
        # and at 1e200 the square of z in the staggered cubic block does
        for p, z in ((riccati, 1e308), (staggered, 1e200)):
            with pytest.raises(GevreyKitError, match="recentred at z .* overflow") as exc:
                eps_values_at(p, z, 4)
            assert not isinstance(exc.value, ValueError)

    def test_every_order_is_checked(self, riccati, monkeypatch):
        # a wrong a_i no longer satisfies the eps^i equation, and the point
        # values and the single order refuse it as the z-series at 0 do
        from gevrey_kit import epssolver

        divide = epssolver._divide
        monkeypatch.setattr(epssolver, "_divide", lambda *args: divide(*args) * (1 + 1e-6))
        with pytest.raises(GevreyKitError, match="defining relation for a_1"):
            eps_values_at(riccati, 0.05, 12)
        with pytest.raises(GevreyKitError, match="defining relation for a_1"):
            solve_eps_expansion(riccati, 12, 40)
        with pytest.raises(GevreyKitError, match="defining relation for a_1"):
            solve_ai(riccati, [solve_a0(riccati, 40)], 1, 40)


def composition_coeff(blocks, jets, i, L):
    """Coefficient eps^i of F(eps, z, sum_l a_l eps^l) by the composition
    sum: every split of i - j into m eps-indices below len(jets), with
    e[..., j, :] the eps^j coefficient of the arity-m array e."""
    nu = jets[0].shape[0]
    return sum((_jet_apply(e[..., j, :], [jets[l] for l in comp], L)
                for m, e in blocks.items() for j in range(min(i + 1, e.shape[-2]))
                for comp in compositions(i - j, m, 0) if max(comp, default=0) < len(jets)),
               np.zeros((nu, L), dtype=jets[0].dtype))


class TestEpsStepper:
    @pytest.mark.parametrize("dtype, seed", [("complex", s) for s in range(12)]
                             + [("mpmath", s) for s in range(4)])
    def test_matches_composition_sum(self, seed, dtype):
        # per-arity arrays of non-symmetric blocks of arity 0..3, with
        # eps-axes of length 1..3 in which some eps-powers vanish, and jets
        # of decreasing length, as the eps recursion carries them; object
        # arrays of mpmath numbers are slow, so those cases stay small
        rng = np.random.default_rng(seed)
        small = dtype == "mpmath"
        nu, I = int(rng.integers(1, 3 if small else 4)), int(rng.integers(1, 5 if small else 7))
        L0 = I + int(rng.integers(1, 5))

        def draw(shape, scale=1.0):
            return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        blocks = {}
        for m in range(4):
            if m == 1 or rng.uniform() < 0.75:
                e = draw((nu,) * (m + 1) + (int(rng.integers(1, 4)),
                                            int(rng.integers(1, L0 + 3))), 0.5)
                e[..., rng.uniform(size=e.shape[-2]) < 0.3, :] = 0.0
                blocks[m] = e
        jets = [draw((nu, L0 - l), 0.5) for l in range(I + 1)]
        precision, tol = contextlib.nullcontext(), 1e-12
        if dtype == "mpmath":
            mpmath = pytest.importorskip("mpmath")
            precision, tol = mpmath.workdps(30), 1e-25

        def close(got, want):
            err = np.abs(got - want).astype(float).max()
            assert err <= tol * max(1.0, np.abs(want).astype(float).max())

        with precision:
            if dtype == "mpmath":
                work = np.frompyfunc(mpmath.mpc, 1, 1)
                blocks = {m: work(e) for m, e in blocks.items()}
                jets = [work(a) for a in jets]
            solved = []

            def solve(i, c):
                # coefficient eps^i with a_i = 0, which is R_i
                close(c, composition_coeff(blocks, jets[:i], i, L0 - i))
                solved.append(i)
                return jets[i]

            a = np.zeros((nu, I + 1, L0), dtype=jets[0].dtype)
            a[:, 0] = jets[0]
            whole = solve_triangular([(m, e[..., : I + 1, :]) for m, e in blocks.items()],
                                     a, solve)
            assert solved == list(range(1, I + 1))
            close(whole[:, 0], composition_coeff(blocks, jets[:1], 0, L0))
            for i in range(1, I + 1):
                L = L0 - i
                close(whole[:, i, :L], composition_coeff(blocks, jets[: i + 1], i, L))


def count_contractions(monkeypatch):
    """Record, for every call of the kernel's contraction `series._cauchy`,
    its multiply-adds."""
    calls = []
    orig = series._cauchy

    def counting(s, x, L):
        calls.append(s.size // s.shape[-1] * min(s.shape[-1], L) * L)
        return orig(s, x, L)

    monkeypatch.setattr(series, "_cauchy", counting)
    return calls


class TestOrderCost:
    """Each new order costs a fixed number of contractions per block; a
    recursion that recontracts a whole jet or sums over compositions of the
    order fails these counts."""

    def test_z_step_cost(self, monkeypatch):
        p = coupled_problem()
        calls = count_contractions(monkeypatch)
        counts, work = [], []
        for K in (40, 80):
            calls.clear()
            solve_coeffs_z(p, 0.1, K)
            counts.append(len(calls))
            work.append(sum(calls))
        # calls per step do not grow, and their work grows linearly in k
        assert counts[0] > 0
        assert counts[1] - counts[0] <= counts[0]
        assert work[1] <= 4.5 * work[0]

    def test_z_batch_shares_the_steps(self, monkeypatch):
        # the eps of a batch share every contraction: a solve at 8 eps makes
        # the calls of a solve at one
        p = coupled_problem()
        calls = count_contractions(monkeypatch)
        counts = []
        for eps in (0.1, [0.1], [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 1.0]):
            calls.clear()
            solve_coeffs_z(p, eps, 40)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1] == counts[2]

    @pytest.mark.parametrize("run, sizes, message", [
        # riccati at eps = 0.1 overflows at k = 876: the z-recursion stops soon after
        (lambda p, n: solve_coeffs_z(p, 0.1, n), (1000, 2000),
         "linear solve at k = 876 left residual nan"),
        # ... also when a later eps of the batch stays finite, as eps = 2 does
        (lambda p, n: solve_coeffs_z(p, [0.1, 2.0], n), (1000, 2000),
         "linear solve at k = 876 left residual nan"),
        # the a_0 jet at z = 0.05 overflows long before h-order 2000
        (lambda p, n: eps_values_at(p, 0.05, n), (2000, 4000),
         "a_0 overflows double precision at z = (0.05+0j)"),
    ], ids=["z-steps", "z-batch", "a0-jet"])
    def test_no_steps_after_overflow(self, monkeypatch, run, sizes, message):
        # the steps after every coefficient has overflowed are not taken, and
        # the error is that of the whole run
        p = builtin_riccati()
        calls = count_contractions(monkeypatch)
        counts = []
        for n in sizes:
            calls.clear()
            with pytest.raises(GevreyKitError) as exc:
                run(p, n)
            assert str(exc.value) == message
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1]

    def test_eps_order_cost(self, monkeypatch):
        p = coupled_problem()
        calls = count_contractions(monkeypatch)
        counts = []
        for I in (0, 10, 20):
            calls.clear()
            solve_eps_expansion(p, I, 30)
            counts.append(len(calls))
        assert counts[1] > counts[0]
        assert counts[2] - counts[1] <= counts[1] - counts[0]


@pytest.mark.parametrize("run, message", [
    (lambda p: solve_a0(p, 0), "K_z must be >= 1"),
    (lambda p: solve_eps_expansion(p, -1, 10), "I must be >= 0"),
    (lambda p: solve_ai(p, [], 1, 10), r"a_0\.\.a_\{i-1\}"),
    (lambda p: eps_values_at(p, 0.05, -1), "I must be >= 0"),
], ids=["solve_a0", "solve_eps_expansion", "solve_ai", "eps_values_at"])
def test_order_guards(riccati, run, message):
    with pytest.raises(ValueError, match=message):
        run(riccati)
