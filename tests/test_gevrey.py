import math
import re

import numpy as np
import pytest

from gevrey_kit import (
    CoeffTensor,
    ProblemSpec,
    gevrey_fit,
    remainder_profile,
    shifted_reference,
    solve_eps_expansion,
    sup_norm_disc,
)
from gevrey_kit.errors import GevreyKitError
from oracles import nagumo_norm, nagumo_property_suite


def monomial(n, order=None):
    order = n if order is None else order
    c = np.zeros((1, order + 1), dtype=complex)
    c[0, n] = 1.0
    return c


def monomial_norm(n, k, kappa):
    """Closed form sup (kappa-r)^k r^n = kappa^(n+k) n^n k^k / (n+k)^(n+k)."""
    if n + k == 0:
        return 1.0
    log_v = (n + k) * math.log(kappa) - (n + k) * math.log(n + k)
    if n:
        log_v += n * math.log(n)
    if k:
        log_v += k * math.log(k)
    return math.exp(log_v)


def random_poly(rng, deg):
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return c[None, :]


class TestNagumoNorm:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n,k", [(0, 0), (0, 3), (1, 1), (5, 2), (12, 9)])
    def test_monomial_closed_form(self, kappa, n, k):
        got = nagumo_norm(monomial(n), k, kappa)
        assert got.value == pytest.approx(monomial_norm(n, k, kappa), rel=1e-10)
        if n and k:
            assert got.maximizer == pytest.approx(n * kappa / (n + k), rel=1e-4)

    def test_monomial_against_grid_scan(self):
        # independent oracle: dense scan of (kappa-r)^k r^n
        kappa, n, k = 1.3, 7, 4
        rs = np.linspace(0, kappa, 200001)
        brute = ((kappa - rs) ** k * rs**n).max()
        assert nagumo_norm(monomial(n), k, kappa).value == pytest.approx(brute, rel=1e-8)

    def test_weightless_is_majorant_at_radius(self):
        f = np.array([[1.0, -2.0, 0.5]], dtype=complex)
        assert nagumo_norm(f, 0, 2.0).value == pytest.approx(1 + 2 * 2 + 0.5 * 4)

    def test_constant(self):
        f = np.array([[3.0 + 4.0j]])
        for k in (0, 1, 5):
            assert nagumo_norm(f, k, 0.7).value == pytest.approx(5.0 * 0.7**k, rel=1e-12)
        assert nagumo_norm(f, 3, 0.7).maximizer == 0.0

    def test_zero(self):
        f = np.zeros((1, 4), dtype=complex)
        assert nagumo_norm(f, 2, 1.0).value == 0.0


class TestNagumoProperties:
    def test_trivial_equality_case(self):
        one = np.array([[1.0 + 0j]])
        out = nagumo_property_suite(one, one, 0, 0, 1.0)
        assert all(out.values())

    def test_monomial_radius_property_closed_form(self):
        # ||z^n||_k <= kappa ||z^n||_{k-1} via the closed forms
        kappa = 1.4
        for n in range(1, 21):
            for k in range(1, 21):
                assert monomial_norm(n, k, kappa) <= kappa * monomial_norm(
                    n, k - 1, kappa) * (1 + 1e-12)

    def test_monomial_derivative_property_closed_form(self):
        # ||(z^n)'||_{k+1} = n ||z^(n-1)||_{k+1} <= e (k+1) ||z^n||_k
        kappa = 0.9
        for n in range(1, 21):
            for k in range(0, 21):
                lhs = n * monomial_norm(n - 1, k + 1, kappa)
                rhs = math.e * (k + 1) * monomial_norm(n, k, kappa)
                assert lhs <= rhs * (1 + 1e-12), (n, k)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        k, l = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        f = random_poly(rng, int(rng.integers(0, 26)))
        g = random_poly(rng, int(rng.integers(0, 26)))
        out = nagumo_property_suite(f, g, k, l, kappa)
        assert all(out.values()), out


class TestSupNorm:
    def test_monomial(self):
        assert sup_norm_disc(monomial(1), 0.3) == pytest.approx(0.3)

    def test_geometric(self):
        c = (0.5 ** np.arange(60))[None, :].astype(complex)
        assert sup_norm_disc(c, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero(self):
        assert sup_norm_disc(np.zeros((2, 5), dtype=complex), 1.0) == 0.0

    def test_overflow_names_sigma(self):
        # sigma^2 overflows: an error, not a RuntimeWarning or an inf
        with pytest.raises(GevreyKitError, match=r"sigma = 1e\+300 overflows"):
            sup_norm_disc(monomial(1, order=2), 1e300)

    def test_coefficients_whose_squares_overflow(self, riccati):
        # every block times 1e-11 divides a_i by 1e-11^i: the coefficient
        # norms of a_11 square past the double range, its sup on the disc
        # does not
        p = ProblemSpec(nu=1, rho=riccati.rho, rho1=riccati.rho1, tensors=tuple(
            CoeffTensor(t.n, t.m, t.entries * 1e-11) for t in riccati.tensors))
        got = sup_norm_disc(solve_eps_expansion(p, 12, 40)[11], 0.05)
        want = sup_norm_disc(solve_eps_expansion(riccati, 12, 40)[11], 0.05) * 1e121
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(1.006e126, rel=1e-3)


class TestGevreyFit:
    def test_exact_recovery(self):
        norms = [3.0 * math.factorial(i) * 0.5**i for i in range(25)]
        fit = gevrey_fit(norms)
        assert fit.mu == pytest.approx(0.5, rel=1e-10)
        assert fit.C == pytest.approx(3.0, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_pure_factorial(self):
        norms = [float(math.factorial(i)) for i in range(20)]
        fit = gevrey_fit(norms)
        assert fit.mu == pytest.approx(1.0, rel=1e-10)
        assert fit.C == pytest.approx(1.0, rel=1e-10)

    def test_bound_holds_everywhere(self):
        rng = np.random.default_rng(3)
        norms = [math.factorial(i) * 0.7**i * float(rng.uniform(0.2, 5.0))
                 for i in range(28)]
        fit = gevrey_fit(norms)
        for i, n in enumerate(norms):
            assert n <= fit.C * math.factorial(i) * fit.mu**i * (1 + 1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            gevrey_fit([1.0, 2.0, -1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        with pytest.raises(ValueError):
            gevrey_fit([1.0, 2.0, math.nan, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        with pytest.raises(ValueError):
            gevrey_fit([1.0] * 5)  # too few fitted indices

    def test_constant_norms(self):
        # the log norms have no variance to explain, and the fitted line
        # misses them: R^2 is 0
        assert gevrey_fit([1.0] * 12).r2 == 0.0

    def test_vanishing_terms_drop_out(self):
        # a zero norm is a term that vanishes identically: it meets every
        # bound and leaves the fit of the others as it is
        norms = [3.0 * math.factorial(i) * 0.5**i for i in range(25)]
        with_zeros = list(norms)
        with_zeros[0] = with_zeros[7] = 0.0
        fit = gevrey_fit(with_zeros)
        assert fit.mu == pytest.approx(0.5, rel=1e-10)
        assert fit.C == pytest.approx(3.0, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_too_many_vanishing_terms(self):
        norms = [0.0] * 5 + [1.0] * 5
        with pytest.raises(GevreyKitError, match="found 5: 5 of the 10 terms a_i vanish"):
            gevrey_fit(norms)

    def test_riccati_norms(self, riccati):
        a = solve_eps_expansion(riccati, 30, 90)
        norms = [sup_norm_disc(ai, 0.05) for ai in a]
        fit = gevrey_fit(norms)
        assert 0.0 < fit.mu < 2.0
        assert fit.r2 > 0.99
        for i, n in enumerate(norms):
            assert n <= fit.C * math.factorial(i) * fit.mu**i * (1 + 1e-12)


def mp_reference(mpmath):
    """phi_eps(z) + 1/2 from `mpmath.besseli` at the current precision."""
    def reference(eps, z):
        e, zz = mpmath.mpf(eps), mpmath.mpf(z)
        s = mpmath.sqrt(zz)
        x = 2 * s / e
        return [0.5 - mpmath.besseli(1 / e, x) / mpmath.besseli(1 / e - 1, x) / (2 * s)]
    return reference


@pytest.fixture(scope="module")
def riccati_profiles(riccati):
    ref = lambda eps, z: np.array([shifted_reference(eps, z)])
    return remainder_profile(riccati, 0.05, [0.05, 0.1, 0.2], 40, reference=ref)


class TestRemainderProfile:

    def test_empty_sum_convention(self, riccati_profiles):
        prof = riccati_profiles[1]
        assert prof.abs_r[0] == pytest.approx(
            abs(shifted_reference(0.1, 0.05)), rel=1e-12)

    def test_down_up_shape_where_resolvable(self, riccati_profiles):
        # at eps = 0.2 the optimum is far above the noise floor
        prof = riccati_profiles[2]
        assert 5 <= prof.I_star <= 30
        assert prof.abs_r_eps[prof.I_star + 5] > prof.abs_r_eps[prof.I_star]
        assert prof.abs_r_eps[0] > prof.abs_r_eps[prof.I_star]

    def test_scaling_at_resolvable_pair(self, riccati):
        # the optimal index scales like 1/eps while the genuine minimum of
        # |r_I eps^I| stays above the double-precision floor (eps 0.4 -> 0.2)
        ref = lambda eps, z: np.array([shifted_reference(eps, z)])
        profs = remainder_profile(riccati, 0.05, [0.2, 0.4], 40, reference=ref)
        ratio = profs[0].I_star / profs[1].I_star
        assert 1.5 <= ratio <= 2.5

    def test_floor_flag(self, riccati, riccati_profiles):
        # at eps = 0.05 the true minimum (2.6e-29 at I = 38) lies far below
        # the double-precision table's floor, but well above a 50-digit one
        mpmath = pytest.importorskip("mpmath")
        prof = riccati_profiles[0]
        assert prof.I_star_on_floor
        assert prof.abs_r_eps[prof.I_star] <= prof.floor < 1e-15
        with mpmath.workdps(50):
            (exact,) = remainder_profile(riccati, 0.05, [0.05], 40,
                                         reference=mp_reference(mpmath))
        assert not exact.I_star_on_floor
        assert exact.floor < 1e-45
        assert exact.I_star == 38

    def test_eps_zero_is_refused(self, riccati):
        with pytest.raises(ValueError, match="eps != 0"):
            remainder_profile(riccati, 0.05, [0.1, 0.0], 9)

    @pytest.mark.parametrize("eps", [1e200, 1e-200])
    def test_table_out_of_range(self, riccati, eps):
        # eps**I overflows, or |eps|**I underflows to 0 under r_I: a typed
        # error, with no RuntimeWarning first
        with pytest.raises(GevreyKitError, match=re.escape(f"eps = {eps:.0e}+0j leaves the double range")):
            remainder_profile(riccati, 0.05, [0.1, eps], 9)

    def test_divergence_beyond_optimum(self, riccati_profiles):
        for prof in riccati_profiles:
            i5 = min(prof.I_star + 5, len(prof.abs_r_eps) - 1)
            assert prof.abs_r_eps[i5] >= prof.abs_r_eps[prof.I_star]


@pytest.mark.parametrize("run, message", [
    (lambda p: sup_norm_disc(np.ones((1, 3)), -0.1), "sigma must be nonnegative"),
    (lambda p: remainder_profile(p, 0.05, [0.1], 0), "I_max must be >= 1"),
], ids=["sigma", "I_max"])
def test_argument_guards(riccati, run, message):
    with pytest.raises(ValueError, match=message):
        run(riccati)
