import math

import numpy as np
import pytest

from gevrey_kit import (
    CoeffTensor,
    ProblemSpec,
    evaluate_f,
    ode_residual_z,
    radius_estimates,
    resolvent_bound,
    shifted_reference,
    solve_coeffs_z,
)
from gevrey_kit.sector import SectorSpec
from gevrey_kit.errors import GevreyKitError, ResonanceError


@pytest.fixture(scope="module")
def riccati_symbolic_coeffs():
    """Oracle: expand eps*z*f' = -(1+2z)f + z/2 + 2zf^2 symbolically to z^3."""
    import sympy as sp

    e, z = sp.symbols("e z")
    f1, f2, f3 = sp.symbols("f1 f2 f3")
    f = f1 * z + f2 * z**2 + f3 * z**3
    lhs = e * z * sp.diff(f, z)
    rhs = -(1 + 2 * z) * f + z / 2 + 2 * z * f**2
    eqs = sp.Poly(sp.expand(lhs - rhs), z).all_coeffs()[::-1][1:4]
    sol = sp.solve(eqs, [f1, f2, f3], dict=True)[0]
    return [sp.lambdify(e, sp.simplify(sol[v])) for v in (f1, f2, f3)]


class TestRecursion:
    def test_first_two_closed_forms(self, riccati):
        for eps in (0.3, 0.05, -0.07 + 0.2j):
            sol = solve_coeffs_z(riccati, eps, 3)
            assert sol.coeffs[0, 0] == pytest.approx(1.0 / (2.0 * (1.0 + eps)))
            assert sol.coeffs[1, 0] == pytest.approx(
                -1.0 / ((1.0 + eps) * (1.0 + 2.0 * eps)))

    def test_against_symbolic_oracle(self, riccati, riccati_symbolic_coeffs):
        for eps in (0.3, -0.07 + 0.2j, 0.011):
            sol = solve_coeffs_z(riccati, eps, 3)
            for k, fk in enumerate(riccati_symbolic_coeffs):
                assert sol.coeffs[k, 0] == pytest.approx(complex(fk(eps)), rel=1e-12)

    def test_eps_zero_gives_limit_coeffs(self, riccati):
        sol = solve_coeffs_z(riccati, 0.0, 3)
        assert sol.coeffs[0, 0] == pytest.approx(0.5)
        assert sol.coeffs[1, 0] == pytest.approx(-1.0)
        assert sol.coeffs[2, 0] == pytest.approx(2.5)

    def test_resonance_detected(self, riccati):
        with pytest.raises(ResonanceError) as exc:
            solve_coeffs_z(riccati, -0.5, 5)
        assert exc.value.k == 2

    def test_recursion_residuals(self, riccati):
        for eps in (0.2, 0.1 + 0.3j):
            sol = solve_coeffs_z(riccati, eps, 40)
            assert sol.residuals.max() <= 1e-10

    def test_residuals_finite_near_the_double_range(self, riccati):
        # the coefficients reach 5e279 by K = 800; a 2-norm of them overflows
        sol = solve_coeffs_z(riccati, 0.1, 800)
        assert np.all(np.isfinite(sol.residuals))
        assert sol.residuals.max() <= 1e-10

    def test_overflow_raises(self, riccati):
        # past the double range the residual is NaN, which must fail the check
        with pytest.raises(GevreyKitError):
            solve_coeffs_z(riccati, 0.1, 1000)

    def test_zero_problem(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),))
        sol = solve_coeffs_z(p, 0.1, 10)
        assert np.abs(sol.coeffs).max() == 0.0
        assert ode_residual_z(p, sol, [0.0, 0.05, 0.2]) == 0.0

    def test_forcing_scaling_covariance(self):
        # scaling only the z-forcing scales f_1 by the same factor
        def prob(lam):
            return ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
                CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
                CoeffTensor(1, 0, np.array([[lam + 0j]])),
                CoeffTensor(1, 2, np.array([[[[2.0 + 0j]]]])),
            ))

        s1 = solve_coeffs_z(prob(1.0), 0.17, 1)
        s3 = solve_coeffs_z(prob(3.0), 0.17, 1)
        assert s3.coeffs[0, 0] == pytest.approx(3.0 * s1.coeffs[0, 0])


class TestEvaluate:
    def test_zero_point(self, riccati):
        sol = solve_coeffs_z(riccati, 0.1, 10)
        res = evaluate_f(sol, 0.0)
        np.testing.assert_array_equal(res.value, [0.0])

    def test_matches_reference(self, riccati):
        sol = solve_coeffs_z(riccati, 0.1, 60)
        got = evaluate_f(sol, 0.05).value[0]
        assert abs(got - shifted_reference(0.1, 0.05)) <= 1e-8

    def test_tail_bound_void_without_radii(self, riccati):
        sol = solve_coeffs_z(riccati, 0.1, 10)
        res = evaluate_f(sol, 0.02)
        assert not res.tail_valid and res.tail_bound is None

    def test_tail_bound_with_radii(self, perturbative):
        c = resolvent_bound(perturbative,
                            SectorSpec(0.0, 3 * math.pi / 2, 0.1), k_max=30).c
        radii = radius_estimates(perturbative, c)
        sol30 = solve_coeffs_z(perturbative, 0.05, 30, radii=radii)
        sol80 = solve_coeffs_z(perturbative, 0.05, 80)
        z = 0.3
        r30 = evaluate_f(sol30, z)
        r80 = evaluate_f(sol80, z)
        assert r30.tail_valid
        # the actual tail is controlled by the reported bound
        assert abs(r80.value[0] - r30.value[0]) <= r30.tail_bound + 1e-15
        # outside the majorant disc the bound is void
        res = evaluate_f(sol30, radii.kappa * 1.01)
        assert not res.tail_valid

    def test_majorant_conformance(self, perturbative):
        c = resolvent_bound(perturbative,
                            SectorSpec(0.0, 3 * math.pi / 2, 0.1), k_max=30).c
        radii = radius_estimates(perturbative, c)
        bound_ok = True
        for eps in (0.05, 0.08 * np.exp(0.6j), 0.02 * np.exp(-2.0j)):
            sol = solve_coeffs_z(perturbative, eps, 30)
            for k in range(1, 31):
                lhs = np.linalg.norm(sol.coeffs[k - 1])
                rhs = radii.alpha * radii.A / k**2 / radii.kappa**k
                bound_ok &= lhs <= rhs * (1 + 1e-6)
        assert bound_ok


class TestOdeResidual:
    def test_riccati_small_disc(self, riccati):
        sol = solve_coeffs_z(riccati, 0.1, 60)
        grid = [0.01, 0.03, 0.05, 0.05j, 0.03 - 0.02j]
        assert ode_residual_z(riccati, sol, grid) <= 1e-9

    def test_truncation_slope(self, riccati):
        sol = solve_coeffs_z(riccati, 0.1, 1)
        r_hi = ode_residual_z(riccati, sol, [1e-3])
        r_lo = ode_residual_z(riccati, sol, [1e-4])
        slope = math.log10(r_hi / r_lo)
        assert slope >= 1.8  # residual decays at least quadratically at 0
