import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_kit import (
    CoeffTensor,
    ProblemSpec,
    ZSolution,
    evaluate_f,
    ode_residual_z,
    shifted_reference,
    solve_coeffs_z,
)
from gevrey_kit.errors import GevreyKitError, ResonanceError
from oracles import SectorSpec, majorant_tail_bound, radius_estimates, resolvent_bound


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
        with pytest.raises(ResonanceError, match="at k = 2$"):
            solve_coeffs_z(riccati, -0.5, 5)

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
        # past the double range the residual is NaN, which must fail the
        # check, at the first step that overflows
        with pytest.raises(GevreyKitError, match="k = 876 "):
            solve_coeffs_z(riccati, 0.1, 1000)

    def test_near_resonance_is_solved(self, riccati):
        # the linear block is -1, so eps*k*I - A01 = 1 + eps*k, which is
        # 4e-8 at k = 4: close to resonance, not resonant
        near = solve_coeffs_z(riccati, -0.25000001, 6)
        assert near.residuals.max() <= 1e-10

    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_small_linear_block_is_not_resonant(self, riccati, eps):
        # every block times 1e-11: A01 = -1e-11, far from eps*k relative to
        # either; at eps = 0 the series is that of riccati
        sol = solve_coeffs_z(scaled(riccati, 1e-11), eps, 10)
        assert sol.residuals.max() <= 1e-10
        if not eps:
            np.testing.assert_allclose(sol.coeffs, solve_coeffs_z(riccati, 0.0, 10).coeffs,
                                       rtol=1e-12)

    def test_small_linear_block_resonates_on_its_eigenvalue(self, riccati):
        # eps*k = -1e-11 = A01 at k = 2, not at k = 1
        with pytest.raises(ResonanceError, match=r"eps\*k = -1e-11\+0j .* at k = 2$"):
            solve_coeffs_z(scaled(riccati, 1e-11), -5e-12, 10)

    @pytest.mark.parametrize("eps", [-0.5, -1.0, [0.1, -0.5]])
    def test_exactly_singular_step_is_a_resonance(self, eps):
        # A01 = [[0, 1], [-1, -2]] is a Jordan block at -1, whose computed
        # eigenvalues miss -1 by 3e-8; eps*k = -1 leaves a matrix that is
        # singular in floating point
        p = ProblemSpec(nu=2, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[0, 1], [-1, -2]], dtype=complex)[..., None]),
            CoeffTensor(1, 0, np.array([[1.0 + 0j], [0.5]]))))
        with pytest.raises(ResonanceError, match="exactly singular"):
            solve_coeffs_z(p, eps, 3)

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

    def test_tail_bound_with_radii(self, perturbative):
        c = resolvent_bound(perturbative,
                            SectorSpec(0.0, 3 * math.pi / 2, 0.1), k_max=30).c
        radii = radius_estimates(perturbative, c)
        sol30 = solve_coeffs_z(perturbative, 0.05, 30)
        sol80 = solve_coeffs_z(perturbative, 0.05, 80)
        z = 0.3
        bound = majorant_tail_bound(radii, sol30.K, z)
        assert bound is not None
        # the actual tail is controlled by the majorant bound
        r30 = evaluate_f(sol30, z).value[0]
        r80 = evaluate_f(sol80, z).value[0]
        assert abs(r80 - r30) <= bound + 1e-15
        # outside the majorant disc the bound is void
        assert majorant_tail_bound(radii, sol30.K, radii.kappa * 1.01) is None

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

    def test_overflowing_partial_sum_is_not_small(self, riccati):
        # far outside the disc of convergence F(eps, z, f) overflows, and
        # the NaN residual there must not vanish in the max over the grid
        sol = solve_coeffs_z(riccati, 0.1, 60)
        assert not ode_residual_z(riccati, sol, [0.05, 1e4]) <= sys.float_info.max


class TestNonFiniteEps:
    @pytest.mark.parametrize("eps", [math.nan, [0.1, math.inf]])
    def test_refused(self, riccati, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            solve_coeffs_z(riccati, eps, 10)

    def test_overflowing_matrices(self, riccati):
        # eps*k*I - A01 overflows at k = 2: a typed error, with no
        # RuntimeWarning first
        with pytest.raises(GevreyKitError, match=r"eps = 1e\+308\+0j, k = 2$"):
            solve_coeffs_z(riccati, 1e308, 60)

    @pytest.mark.parametrize("eps_list", [
        [0.3, 1e308, 1e307], [1e307, 1e308], [-0.5, 1e308], [0.1, 1e308],
    ])
    def test_first_error_of_the_loop(self, riccati, eps_list):
        # 1e307*k overflows at k = 18, -0.5 resonates at k = 2 and 0.1
        # overflows at k = 876: the batch raises what the per-eps loop
        # raises first
        want = one_by_one(riccati, eps_list, 1000)
        assert not isinstance(want, list)
        assert first_error(lambda: solve_coeffs_z(riccati, eps_list, 1000)) == want

    @pytest.mark.parametrize("eps_list", [[-1e307], [0.1, -1e307], [-1e307, -0.5]])
    def test_overflow_before_resonance_of_the_same_eps(self, eps_list):
        # A01 = -1e308: eps = -1e307 resonates at k = 10 and overflows at
        # k = 18; the overflow, found before the recursion, is raised
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1e308]]])), CoeffTensor(1, 0, np.array([[1.0]])),
            CoeffTensor(1, 2, np.array([[[[2.0]]]]))))
        with pytest.raises(ResonanceError, match="at k = 10$"):
            solve_coeffs_z(p, -1e307, 17)
        with pytest.raises(GevreyKitError) as exc:
            solve_coeffs_z(p, eps_list, 30)
        assert str(exc.value) == ("eps*k*I - A01 overflows double precision at "
                                  "eps = -1e+307+0j, k = 18")


def scaled(p, s):
    """`p` with every block times s."""
    return ProblemSpec(nu=p.nu, rho=p.rho, rho1=p.rho1,
                       tensors=tuple(CoeffTensor(t.n, t.m, t.entries * s) for t in p.tensors))


def first_error(call):
    """(type, message) of the error a call raises, or None."""
    try:
        call()
    except GevreyKitError as e:
        return type(e), str(e)
    return None


def one_by_one(p, eps_list, K):
    """The per-eps loop that a batch replaces: the solutions, or the first
    error it raises."""
    sols = []
    for eps in eps_list:
        err = first_error(lambda: sols.append(solve_coeffs_z(p, eps, K)))
        if err:
            return err
    return sols


def random_problem(rng):
    """nu <= 3, non-symmetric blocks of arity 0..3 with eps-polynomial
    entries, and a linear block near -1."""
    nu = int(rng.integers(1, 4))

    def draw(shape, scale):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    a01 = draw((nu, nu, 2), 0.1)
    a01[..., 0] -= np.eye(nu)
    tensors = {(0, 1): CoeffTensor(0, 1, a01)}
    for _ in range(int(rng.integers(1, 5))):
        n, m = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        if (n, m) not in ((0, 0), (0, 1)):
            tensors[n, m] = CoeffTensor(n, m, draw((nu,) * (m + 1) + (int(rng.integers(1, 3)),), 0.3))
    return ProblemSpec(nu=nu, rho=1.0, rho1=4.0, tensors=tuple(tensors.values()))


class TestBatch:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_one_by_one(self, seed):
        # bit for bit, or the same first error
        rng = np.random.default_rng(seed)
        p = random_problem(rng)
        K = int(rng.integers(1, 25))
        n = int(rng.integers(1, 6))
        eps_list = list(0.3 * (rng.standard_normal(n)
                               + 1j * rng.standard_normal(n) * rng.integers(0, 2)))
        want = one_by_one(p, eps_list, K)
        got = []
        err = first_error(lambda: got.extend(solve_coeffs_z(p, eps_list, K)))
        if not isinstance(want, list):
            assert err == want
            return
        assert err is None and len(got) == len(eps_list)
        for g, w in zip(got, want):
            assert g.eps == w.eps
            for field in ("coeffs", "residuals"):
                a, b = getattr(g, field), getattr(w, field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("eps_list", [
        [0.1, -0.5], [-0.5, 0.1], [0.3, -0.5, 0.1], [0.3, 0.1, -0.5], [0.1, 0.1],
        [-0.25, -0.5],
    ])
    def test_first_error_of_the_loop(self, riccati, eps_list):
        # riccati: eps = 0.1 overflows at k = 876 of K = 1000, -0.5 and
        # -0.25 resonate at k = 2 and 4; the batch raises what the per-eps
        # loop raises first
        want = one_by_one(riccati, eps_list, 1000)
        assert not isinstance(want, list)
        assert first_error(lambda: solve_coeffs_z(riccati, eps_list, 1000)) == want

    def test_shapes(self, riccati):
        one = solve_coeffs_z(riccati, 0.1, 7)
        assert isinstance(one, ZSolution) and one.coeffs.shape == (7, 1)
        for eps in ([0.1], (0.1, 0.2), np.array([0.1, 0.2, 0.3])):
            sols = solve_coeffs_z(riccati, eps, 7)
            assert [s.eps for s in sols] == [complex(e) for e in eps]
            assert all(s.coeffs.shape == (7, 1) and s.residuals.shape == (7,) for s in sols)
        assert solve_coeffs_z(riccati, [], 7) == []
        with pytest.raises(ValueError, match="sequence of numbers"):
            solve_coeffs_z(riccati, [[0.1]], 7)

    def test_points_match_one_by_one(self, riccati):
        sol = solve_coeffs_z(riccati, 0.1 + 0.05j, 60)
        grid = [0.01, 0.05, 0.03 - 0.02j, 0.0]
        for got, z in zip(evaluate_f(sol, grid), grid):
            want = evaluate_f(sol, z)
            assert got.value.tobytes() == want.value.tobytes()
        assert ode_residual_z(riccati, sol, grid) == max(
            ode_residual_z(riccati, sol, [z]) for z in grid)
        assert evaluate_f(sol, []) == []
