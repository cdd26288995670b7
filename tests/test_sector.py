import dataclasses
import math

import numpy as np
import pytest

from gevrey_kit import (
    CoeffTensor,
    ProblemSpec,
    check_siegel,
    gamma_max,
    spectrum,
)
from gevrey_kit.errors import DegenerateSpectrumError
from oracles import RadiiInfeasibleError, SectorSpec, radius_estimates, resolvent_bound


class TestSpectrum:
    def test_riccati_scalar(self, riccati):
        np.testing.assert_allclose(spectrum(riccati.a01(0.0)), [-1.0])

    def test_diagonal(self):
        eigs = spectrum(np.diag([1.0, 1j]))
        assert sorted(eigs, key=lambda v: v.real) == pytest.approx([1j, 1.0])

    def test_rotation_block(self):
        eigs = spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        eigs = eigs[np.argsort(eigs.imag)]
        np.testing.assert_allclose(eigs, [-1j, 1j], atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            spectrum(np.eye(9))

    def test_non_square_refused(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            spectrum(np.ones((2, 3)))


class TestSiegel:
    def test_riccati_wide_sector(self):
        assert check_siegel(np.array([-1.0]), 0.0, 3 * math.pi / 2).ok

    def test_on_ray(self):
        assert not check_siegel(np.array([1.0]), 0.0, 0.1).ok

    def test_imaginary_pair_boundary(self):
        eigs = np.array([1j, -1j])
        assert check_siegel(eigs, 0.0, math.pi - 0.1).ok
        assert not check_siegel(eigs, 0.0, math.pi + 0.1).ok

    def test_zero_eigenvalue(self):
        with pytest.raises(DegenerateSpectrumError):
            check_siegel(np.array([0.0, 1.0]), 0.0, 1.0)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 2 * math.pi + 1e-12, 7.0, math.nan])
    def test_opening_outside_range(self, gamma):
        with pytest.raises(ValueError, match="gamma must lie in"):
            check_siegel(np.array([-1.0]), 0.0, gamma)

    def test_full_opening(self):
        # the whole plane but the ray of -1 itself, which the closed sector meets
        assert not check_siegel(np.array([-1.0]), 0.0, 2 * math.pi).ok
        assert check_siegel(np.array([-1.0]), 0.0, 2 * math.pi - 1e-9).ok

    def test_gamma_max_values(self):
        assert gamma_max(np.array([-1.0]), 0.0).gamma_max == pytest.approx(2 * math.pi)
        assert gamma_max(np.array([-1.0]), 0.0).summable
        rep = gamma_max(np.array([1.0]), 0.0)
        assert rep.gamma_max == pytest.approx(0.0) and not rep.summable
        rep = gamma_max(np.array([np.exp(1j * math.pi / 3)]), 0.0)
        assert rep.gamma_max == pytest.approx(2 * math.pi / 3)

    def test_riccati_direction_flip(self):
        assert gamma_max(np.array([-1.0]), 0.0).summable
        assert not gamma_max(np.array([-1.0]), math.pi).summable

    @pytest.mark.parametrize("seed", range(20))
    def test_scale_invariance_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        eigs = eigs[np.abs(eigs) > 1e-3]
        if eigs.size == 0:
            return
        theta = float(rng.uniform(-math.pi, math.pi))
        rep = gamma_max(eigs, theta)
        rep_scaled = gamma_max(3.7 * eigs, theta)
        assert rep.gamma_max == pytest.approx(rep_scaled.gamma_max)
        # siegel_ok(gamma) is exactly gamma < gamma_max, hence monotone
        for gamma in np.linspace(0.05, 2 * math.pi, 9):
            ok = check_siegel(eigs, theta, gamma).ok
            assert ok == (gamma < rep.gamma_max)


class TestResolventBound:
    def test_riccati_estimate(self, riccati):
        rep = resolvent_bound(riccati, SectorSpec(0.0, 3 * math.pi / 2, 0.2),
                              k_max=50, samples=120)
        # scalar resolvent 1/|eps k + 1| peaks at sqrt(2) on the 3pi/4 edges
        assert rep.c < 10.0
        assert rep.c == pytest.approx(math.sqrt(2.0), abs=0.05)

    def test_eigenvalue_on_ray(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[1.0 + 0j]]])),))
        for gamma in (0.3, 1.0, 3.0):
            with pytest.raises(ValueError):
                resolvent_bound(p, SectorSpec(0.0, gamma, 0.2))

    def test_small_radius_limit(self, riccati):
        rep = resolvent_bound(riccati, SectorSpec(0.0, math.pi / 2, 1e-6), k_max=1)
        assert rep.c == pytest.approx(1.0, abs=1e-5)  # ||A01(0)^{-1}|| = 1


class TestRadiusEstimates:
    def test_perturbative_feasible(self):
        delta = 1e-3
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
            CoeffTensor(1, 0, np.array([[delta + 0j]])),
        ))
        rep = radius_estimates(p, c=1.5)
        assert 0.0 < rep.sigma < rep.kappa < p.rho
        assert rep.alpha == pytest.approx(1.5 * delta / rep.A, rel=1e-12)
        # alpha scales linearly in the forcing size
        p2 = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
            CoeffTensor(1, 0, np.array([[2 * delta + 0j]])),
        ))
        rep2 = radius_estimates(p2, c=1.5)
        assert rep2.alpha == pytest.approx(2 * rep.alpha, rel=1e-12)
        assert rep2.kappa < p.rho

    def test_majorant_identity(self, perturbative):
        rep = radius_estimates(perturbative, c=1.4143)
        lhs = rep.alpha * rep.A * rep.kappa / (rep.kappa - rep.sigma)
        assert abs(lhs - perturbative.rho) <= 1e-12

    def test_riccati_infeasible_at_small_rho(self):
        # the (1,0) forcing block forces alpha >= c*0.5*rho/A > rho/2 for any
        # c >= 1, so no admissible majorant scale exists at these radii
        from gevrey_kit import builtin_riccati

        p = dataclasses.replace(builtin_riccati(), rho=0.125)
        with pytest.raises(RadiiInfeasibleError, match=r"block \(1, 0\)"):
            radius_estimates(p, c=2.0)

    def test_invalid_c(self, perturbative):
        with pytest.raises(ValueError):
            radius_estimates(perturbative, c=0.0)
