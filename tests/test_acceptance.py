"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and asserting its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is property- or oracle-based at desk scale; the oracles
(exact binomials, a symbolic expansion, direct quadrature of the Stieltjes
integral, closed-form extremum formulas, a 50-digit Bessel closed form) are
computed inside the tests, independent of the code paths they check.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import gevrey_kit as gk
import oracles


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(n, label, ok, timer, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{status}] {label} "
          f"({timer.elapsed:.2f}s{'; ' + detail if detail else ''})")
    assert ok, f"criterion {n}: {label}: {detail}"
    assert timer.elapsed < timer.budget, \
        f"criterion {n} exceeded its {timer.budget}s budget ({timer.elapsed:.2f}s)"


def test_criterion_01_convolution_taming():
    with Timer(1.0) as t:
        assert abs(oracles.CONV_TAMING_A - 0.5 / (1 + math.pi**2 / 3)) < 1e-15
        worst = 0.0
        for lam in (0.0, 1.0, 2.0):
            for c0 in (False, True):
                rep = oracles.lemma_conv_bound(lam, c0, 500)
                worst = max(worst, rep.max_ratio)
                if not rep.passed:
                    break
    report(1, "factorially weighted convolution inequality to m=500",
           worst <= 1.0 + 1e-12, t, f"max ratio {worst:.6f}")


def test_criterion_02_a0_closed_form():
    with Timer(1.0) as t:
        p = gk.builtin_riccati()
        a0 = gk.solve_a0(p, 25)
        worst = 0.0
        for k in range(1, 26):
            b = Fraction(1)
            for j in range(k + 1):
                b = b * (Fraction(1, 2) - j) / (j + 1)
            exact = float(-b * Fraction(4) ** k)
            got = a0.coeff_vec(k)[0].real
            worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    report(2, "limit-equation series vs exact binomial expansion (order 25)",
           worst <= 1e-12, t, f"worst rel {worst:.2e}")


def test_criterion_03_double_series_consistency():
    with Timer(10.0) as t:
        p = gk.builtin_riccati()
        rep = oracles.cross_consistency(p, 10, 10, radius=1e-2)
        spot = rep.eps_taylor[2, 1, 0].real
        ok = rep.max_scaled_discrepancy <= 1e-8 and abs(spot + 7.0) <= 7.0 * 1e-8
    report(3, "eps-Taylor of f_k equals z-coefficients of a_i (i,k <= 10)",
           ok, t, f"scaled discrepancy {rep.max_scaled_discrepancy:.2e}, "
                  f"spot(2,2) {spot:.9f}")


def test_criterion_04_closed_form_validation():
    with Timer(5.0) as t:
        p = gk.builtin_riccati()
        sol = gk.solve_coeffs_z(p, 0.1, 60)
        got = gk.evaluate_f(sol, 0.05).value[0]
        ref = gk.shifted_reference(0.1, 0.05)
        err = abs(got - ref)
        grid = [0.01, 0.02, 0.05, 0.05j, 0.03 + 0.04j, -0.05]
        resid = gk.ode_residual_z(p, sol, grid)
        ok = err <= 1e-8 and resid <= 1e-9
    report(4, "series solution matches the Bessel-ratio reference",
           ok, t, f"|diff| {err:.2e}, residual {resid:.2e}")


def test_criterion_05_gevrey_certification():
    with Timer(10.0) as t:
        p = gk.builtin_riccati()
        sol = gk.solve_eps_expansion(p, 30, 90)
        norms = [gk.sup_norm_disc(ai, 0.05) for ai in sol.a]
        fit = gk.gevrey_fit(norms)
        bound_ok = all(
            n <= fit.C * math.factorial(i) * fit.mu**i * (1 + 1e-12)
            for i, n in enumerate(norms))
        ok = math.isfinite(fit.mu) and fit.mu > 0 and fit.r2 > 0.99 and bound_ok
    report(5, "factorial growth certification of the eps-coefficients",
           ok, t, f"C {fit.C:.3e}, mu {fit.mu:.4f}, r2 {fit.r2:.6f}")


def test_criterion_06_one_summation():
    with Timer(30.0) as t:
        p = gk.builtin_riccati()
        sol = gk.solve_eps_expansion(p, 30, 90)
        a_vals = sol.values_at(0.05)
        b = gk.borel_transform(a_vals)
        pade = gk.pade_continue(b, 14, 15)
        ref = gk.shifted_reference(0.1, 0.05)
        err30 = abs(gk.laplace_sum(b, pade, 0.1).value[0] - ref)

        sol10 = gk.solve_eps_expansion(p, 10, 50)
        b10 = gk.borel_transform(sol10.values_at(0.05))
        err10 = abs(gk.laplace_sum(b10, gk.pade_continue(b10, 4, 5), 0.1).value[0]
                    - ref)

        beats = True
        for eps in (0.05, 0.1, 0.2):
            refe = gk.shifted_reference(eps, 0.05)
            be = abs(gk.laplace_sum(b, pade, eps).value[0] - refe)
            oe = abs(gk.optimal_truncation_sum(a_vals, eps).value[0] - refe)
            beats &= be <= oe
        ok = err30 <= 1e-6 and err30 <= err10 and beats
    report(6, "Borel-Pade-Laplace reproduces the reference and beats truncation",
           ok, t, f"err(I=30) {err30:.2e}, err(I=10) {err10:.2e}")


def test_criterion_07_euler_series_oracle():
    from scipy.integrate import quad

    with Timer(5.0) as t:
        a = np.array([math.gamma(i + 1) * (-1.0) ** i for i in range(31)])
        b = gk.borel_transform(a)
        pade = gk.pade_continue(b, 14, 15)
        got = gk.laplace_sum(b, pade, 0.1).value[0].real
        oracle, quad_err = quad(lambda s: math.exp(-s) / (1.0 + 0.1 * s),
                                0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
        err = abs(got - oracle)
        ok = err <= 1e-8 and quad_err < 1e-10
    report(7, "alternating factorial model vs direct Stieltjes quadrature",
           ok, t, f"|diff| {err:.2e}")


def test_criterion_08_nagumo_suite():
    from gevrey_kit.series import VecSeries

    with Timer(10.0) as t:
        worst = 0.0
        for kappa in (0.5, 1.0, 2.0):
            for n in range(0, 31):
                for k in range(0, 31):
                    c = np.zeros((1, n + 1), dtype=complex)
                    c[0, n] = 1.0
                    got = oracles.nagumo_norm(VecSeries(c, "z"), k, kappa).value
                    if n + k == 0:
                        exact = 1.0
                    else:
                        log_v = (n + k) * (math.log(kappa) - math.log(n + k))
                        log_v += n * math.log(n) if n else 0.0
                        log_v += k * math.log(k) if k else 0.0
                        exact = math.exp(log_v)
                    worst = max(worst, abs(got - exact) / exact)
        monomials_ok = worst <= 1e-10

        rng = np.random.default_rng(20250810)
        props_ok = True
        for trial in range(500):
            kappa = float(rng.choice([0.5, 1.0, 2.0]))
            k, l = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            deg_f, deg_g = rng.integers(0, 26, size=2)
            f = VecSeries((rng.standard_normal(deg_f + 1)
                           + 1j * rng.standard_normal(deg_f + 1))[None, :], "z")
            g = VecSeries((rng.standard_normal(deg_g + 1)
                           + 1j * rng.standard_normal(deg_g + 1))[None, :], "z")
            out = oracles.nagumo_property_suite(f, g, k, l, kappa, slack=1e-9)
            props_ok &= all(out.values())
        ok = monomials_ok and props_ok
    report(8, "weighted-norm calculus: closed forms and 500 random pairs",
           ok, t, f"monomial worst rel {worst:.2e}")


def test_criterion_09_sector_verdicts():
    with Timer(1.0) as t:
        p = gk.builtin_riccati()
        eigs = gk.spectrum(p.a01(0.0))
        at0 = gk.gamma_max(eigs, 0.0)
        atpi = gk.gamma_max(eigs, math.pi)
        verdicts_ok = (abs(at0.gamma_max - 2 * math.pi) < 1e-12 and at0.summable
                       and not atpi.summable)

        rng = np.random.default_rng(7)
        mono_ok = True
        count = 0
        while count < 100:
            n = int(rng.integers(1, 6))
            eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            eigs = eigs[np.abs(eigs) > 1e-3]
            if eigs.size == 0:
                continue
            count += 1
            theta = float(rng.uniform(-math.pi, math.pi))
            gmax = gk.gamma_max(eigs, theta).gamma_max
            flags = [gk.check_siegel(eigs, theta, g).ok
                     for g in np.linspace(0.05, 2 * math.pi, 12)]
            # true at some gamma implies true at every smaller gamma
            mono_ok &= all(a or not b for a, b in zip(flags, flags[1:]))
            mono_ok &= all(
                f == (g < gmax)
                for f, g in zip(flags, np.linspace(0.05, 2 * math.pi, 12)))
        ok = verdicts_ok and mono_ok
    report(9, "ray-condition verdicts and monotonicity on random spectra",
           ok, t, f"gamma_max(0) = {at0.gamma_max:.6f}")


def test_criterion_10_remainder_profile():
    """Optimal-truncation profile of the Taylor remainder at z = 0.05.

    The eps-series is 1-summable, so the optimal truncation index grows
    like 1/eps and the remainder there is exponentially small: over
    I <= 40 the exact argmins are I* = 38, 21, 16 at eps = 0.05, 0.1, 0.2
    (ratio 1.81), with minima 2.6e-29 and 4.7e-17 at the first two; the
    global argmins over I <= 130 are 60, 48, 16.  Such a table cannot be
    formed in double precision, where |f| is about 0.022, so the reference
    is the closed form phi_eps(z) + 1/2 through `mpmath.besseli` at 50
    digits, and the profile is evaluated at the same precision.
    """
    mpmath = pytest.importorskip("mpmath")

    def reference(eps, z):
        e, zz = mpmath.mpf(eps), mpmath.mpf(z)
        s = mpmath.sqrt(zz)
        x = 2 * s / e
        ratio = mpmath.besseli(1 / e, x) / mpmath.besseli(1 / e - 1, x)
        return [0.5 - ratio / (2 * s)]

    with Timer(10.0) as t:
        p = gk.builtin_riccati()
        with mpmath.workdps(50):
            profs = gk.remainder_profile(p, 0.05, [0.05, 0.1, 0.2], 40,
                                         reference=reference)
        stars = {pr.eps.real: pr.I_star for pr in profs}
        finite_ok = all(0 < pr.I_star < 40 for pr in profs)
        ratio = stars[0.05] / stars[0.1]
        ok = finite_ok and 1.5 <= ratio <= 2.5
    report(10, "remainder minimizers and the pinned 0.05/0.1 index ratio",
           ok, t, f"I* = {stars}, ratio {ratio:.3f}")
