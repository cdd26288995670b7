import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from gevrey_kit import (
    BorelData,
    borel,
    borel_transform,
    eps_values_at,
    laplace_sum,
    optimal_truncation_sum,
    pade_continue,
    shifted_reference,
)
from gevrey_kit.errors import GevreyKitError, PoleObstructionError


def euler_coeffs(I):
    """a_i = i! (-1)^i, the alternating factorial model series."""
    return np.array([math.gamma(i + 1) * (-1.0) ** i for i in range(I + 1)])


def stieltjes_value(eps):
    """Independent oracle: int_0^inf e^(-s) / (1 + eps s) ds."""
    val, err = quad(lambda s: math.exp(-s) / (1.0 + eps * s), 0.0, np.inf,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


class TestTransform:
    def test_factorial_coeffs(self):
        b = borel_transform(np.array([math.gamma(i + 1) for i in range(8)]))
        np.testing.assert_allclose(b.b_coeffs[:, 0].real, np.arange(1, 8))

    def test_zero_tail(self):
        a = np.zeros(9)
        a[0] = 2.5
        b = borel_transform(a)
        assert np.abs(b.b_coeffs).max() == 0.0
        assert b.a0_value[0] == 2.5

    def test_inverse_factorial(self):
        a = np.array([1.0 / math.gamma(i + 1) for i in range(7)])
        b = borel_transform(a)
        for i in range(6):
            assert b.b_coeffs[i, 0].real == pytest.approx(
                1.0 / (math.gamma(i + 1) * math.gamma(i + 2)))

    def test_too_short(self):
        with pytest.raises(ValueError):
            borel_transform(np.ones(4))

    def test_beyond_the_double_factorial(self):
        # 171! overflows a double; 1/i! must not
        b = borel_transform(np.ones((200, 1)))
        assert np.all(np.isfinite(b.b_coeffs))
        assert b.b_coeffs[5, 0].real == pytest.approx(1.0 / 120)
        assert b.b_coeffs[-1, 0] == 0.0  # 1/198! underflows

    def test_non_finite_coefficients_raise(self):
        a = np.ones(8)
        a[5] = np.inf
        with pytest.raises(GevreyKitError):
            borel_transform(a)


class TestPade:
    def test_exact_rational(self):
        # b_i = i+1 are the Taylor coefficients of 1/(1-t)^2
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.arange(1.0, 9.0)[:, None].astype(complex))
        pade = pade_continue(b, 1, 2)
        np.testing.assert_allclose(pade.denominators[0].real, [1.0, -2.0, 1.0],
                                   atol=1e-10)
        np.testing.assert_allclose(pade.numerators[0].real, [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(sorted(p.real for p in pade.poles[0]), [1.0, 1.0],
                                   atol=1e-6)
        t = 0.3
        assert pade.eval(t)[0].real == pytest.approx(1.0 / (1.0 - t) ** 2, rel=1e-12)

    def test_constant_sequence(self):
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.array([[1.0]] + [[0.0]] * 7, dtype=complex))
        pade = pade_continue(b, 2, 3)
        assert pade.orders[0][1] == 0  # reduced to the Taylor polynomial
        assert pade.poles[0].size == 0

    def test_excess_denominator_reduces(self):
        # exactly rational input with far too large requested M
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.arange(1.0, 31.0)[:, None].astype(complex))
        pade = pade_continue(b, 14, 15)
        assert pade.orders[0][1] <= 3
        t = 0.5
        assert pade.eval(t)[0].real == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("kind", ["generic", "rational", "polynomial"])
    def test_toeplitz_blocks_match_the_entrywise_systems(self, kind):
        # each reduction step solves the leading block of one M x M Toeplitz
        # matrix: the same numbers, to the bit, as the system built entry by
        # entry for that degree
        from gevrey_kit.borel import _RCOND, _pade_component

        rng = np.random.default_rng(7)
        c = {"generic": rng.standard_normal(24) + 1j * rng.standard_normal(24),
             "rational": (0.5 ** np.arange(1, 25) - 0.25 ** np.arange(1, 25)) * (1 + 0.5j),
             "polynomial": np.r_[1.0, -2.0, 0.5, np.zeros(21)].astype(complex)}[kind]
        L, M = 9, 12
        for m_eff in range(M, -1, -1):
            rows = np.array([[c[L + s - j] if L + s - j >= 0 else 0.0
                              for j in range(1, m_eff + 1)] for s in range(1, m_eff + 1)],
                            dtype=complex).reshape(m_eff, m_eff)
            svals = np.linalg.svd(rows, compute_uv=False)
            if m_eff == 0 or svals[-1] > _RCOND * max(1.0, float(svals[0])):
                break
        assert (m_eff == M) == (kind == "generic")
        num, den, got = _pade_component(c, L, M)
        assert got == m_eff
        if m_eff:
            q = np.linalg.solve(rows, -c[L + 1: L + m_eff + 1])
            np.testing.assert_array_equal(den, np.concatenate([[1.0], q]))
        np.testing.assert_array_equal(num, np.convolve(c[: L + m_eff + 1], den)[: L + 1])

    def test_needs_enough_coefficients(self):
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.ones((6, 1), dtype=complex))
        with pytest.raises(ValueError):
            pade_continue(b, 4, 4)

    def test_negative_order_is_named(self):
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.ones((30, 1), dtype=complex))
        with pytest.raises(ValueError, match=r"\[100/-71\]"):
            pade_continue(b, 100, -71)


class TestLaplace:
    def test_gauss_rule_is_numpys(self):
        x, w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(borel._GAUSS_X, x)
        assert np.array_equal(borel._GAUSS_W, w)

    def test_zero_transform_returns_constant(self):
        b = BorelData(a0_value=np.array([1.25 + 0j]),
                      b_coeffs=np.zeros((8, 1), dtype=complex))
        pade = pade_continue(b, 3, 3)
        rep = laplace_sum(b, pade, 0.1)
        assert rep.value[0] == pytest.approx(1.25, abs=1e-13)

    def test_pole_on_ray_obstructs(self):
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.arange(1.0, 9.0)[:, None].astype(complex))
        pade = pade_continue(b, 1, 2)  # double pole at t = 1
        with pytest.raises(PoleObstructionError):
            laplace_sum(b, pade, 0.1)

    def test_kernel_direction_guard(self):
        b = BorelData(a0_value=np.zeros(1, complex),
                      b_coeffs=np.zeros((8, 1), dtype=complex))
        pade = pade_continue(b, 3, 3)
        with pytest.raises(ValueError):
            laplace_sum(b, pade, -0.1)

    def test_euler_series_vs_stieltjes(self):
        b = borel_transform(euler_coeffs(30))
        pade = pade_continue(b, 14, 15)
        rep = laplace_sum(b, pade, 0.1)
        assert rep.value[0].real == pytest.approx(stieltjes_value(0.1), abs=1e-8)
        assert rep.quadrature_error_estimate < 1e-8

    def test_direction_sensitivity(self):
        # rotating the ray toward the pole at t = -1 shrinks the clearance
        b = borel_transform(euler_coeffs(20))
        pade = pade_continue(b, 9, 10)
        thetas = [0.0, 1.0, 1.8, 2.4, 2.9]
        eps = 0.1
        clearances = []
        for th in thetas:
            try:
                rep = laplace_sum(b, pade, eps * np.exp(1j * th), theta=th)
                clearances.append(rep.pole_clearance)
            except PoleObstructionError as exc:
                clearances.append(exc.clearance)
        assert all(a >= b_ - 1e-12 for a, b_ in zip(clearances, clearances[1:])), \
            clearances
        assert clearances[-1] < 0.5 < clearances[0]


class TestOptimalTruncation:
    def test_factorial_minimizer(self):
        rep = optimal_truncation_sum(euler_coeffs(30), 0.1)
        assert 9 <= rep.I_star <= 11

    def test_zero_tail_full_sum(self):
        a = np.zeros(9)
        a[0] = 2.0
        rep = optimal_truncation_sum(a, 0.1)
        assert rep.value[0] == pytest.approx(2.0)

    def test_index_nondecreasing_as_eps_shrinks(self):
        coeffs = euler_coeffs(40)
        stars = [optimal_truncation_sum(coeffs, e).I_star for e in (0.2, 0.1, 0.05)]
        assert stars[0] <= stars[1] <= stars[2]

    @pytest.mark.parametrize("call", [borel_transform, lambda a: optimal_truncation_sum(a, 0.1)],
                             ids=["borel_transform", "optimal_truncation_sum"])
    def test_three_axes_refused(self, call):
        # a_0..a_I stack vectors; a third axis is refused before numpy sees it
        with pytest.raises(ValueError, match=r"need coefficients a_0\.\.a_I"):
            call(np.zeros((6, 2, 2)))


class TestEpsOutOfRange:
    """eps = 0 has no Laplace sum, and a huge eps overflows the cutoff, the
    Laplace value or the truncated sum: each raises a typed error, with no
    RuntimeWarning first."""

    def test_laplace_eps_zero(self):
        b = borel_transform(euler_coeffs(12))
        with pytest.raises(ValueError, match="eps != 0"):
            laplace_sum(b, pade_continue(b, 5, 6), 0.0)

    @pytest.mark.parametrize("eps, what", [(1e308, "cutoff"), (1e200, "sum"), (1e100, "sum")])
    def test_laplace_overflow(self, eps, what):
        b = borel_transform(euler_coeffs(12))
        with pytest.raises(GevreyKitError, match=re.escape(f"Laplace {what} at eps = {eps:.0e}+0j")):
            laplace_sum(b, pade_continue(b, 5, 6), eps)

    def test_truncation_keeps_the_first_term(self):
        # |eps|^i overflows for every i >= 2: the smallest term is a_0 eps^0
        rep = optimal_truncation_sum(euler_coeffs(12), 1e308)
        assert rep.I_star == 0 and rep.value[0] == 0.0
        assert rep.quadrature_error_estimate == 1.0

    def test_truncation_zero_terms_at_huge_eps(self):
        # |eps|^4 overflows, but a zero a_i is a zero term, the smallest
        rep = optimal_truncation_sum(np.array([1.0, 1.0, 0.0, 0.0, 0.0]), 1e100)
        assert rep.I_star == 2 and rep.value[0] == 1.0 + 1e100
        assert rep.quadrature_error_estimate == 0.0

    def test_truncation_overflow(self):
        # the smallest term is the third (1e-100), but a_1 eps = 1e350
        a = np.array([1e300, 1e250, 1e-300, 1e-250, 1e-300])
        with pytest.raises(GevreyKitError, match=r"truncated sum at eps = 1e\+100"):
            optimal_truncation_sum(a, 1e100)


@pytest.fixture(scope="module")
def riccati_data(riccati):
    # the a_i(0.05) that `resum` hands to Borel
    return eps_values_at(riccati, 0.05, 30)


class TestRiccatiSummation:

    def test_reproduces_reference(self, riccati_data):
        b = borel_transform(riccati_data)
        pade = pade_continue(b, 14, 15)
        rep = laplace_sum(b, pade, 0.1)
        assert abs(rep.value[0] - shifted_reference(0.1, 0.05)) <= 1e-6

    def test_convergence_in_I(self, riccati):
        ref = shifted_reference(0.1, 0.05)
        errs = []
        for I in (10, 20, 30):
            b = borel_transform(eps_values_at(riccati, 0.05, I))
            L = (I - 1) // 2
            pade = pade_continue(b, L, I - 1 - L)
            errs.append(abs(laplace_sum(b, pade, 0.1).value[0] - ref))
        # nonincreasing within a factor-3 band
        assert errs[1] <= 3.0 * errs[0]
        assert errs[2] <= 3.0 * errs[1]
        assert errs[2] <= errs[0]

    def test_beats_optimal_truncation(self, riccati_data):
        b = borel_transform(riccati_data)
        pade = pade_continue(b, 14, 15)
        for eps in (0.05, 0.1, 0.2):
            ref = shifted_reference(eps, 0.05)
            be = abs(laplace_sum(b, pade, eps).value[0] - ref)
            oe = abs(optimal_truncation_sum(riccati_data, eps).value[0] - ref)
            assert be <= oe, (eps, be, oe)

    def test_poles_clear_of_positive_axis(self, riccati_data):
        b = borel_transform(riccati_data)
        pade = pade_continue(b, 14, 15)
        for pole in np.concatenate(pade.poles):
            assert not (abs(pole.imag) < 1e-3 and pole.real > 0), pole
