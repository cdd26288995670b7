import math

import numpy as np
import pytest
from scipy.special import iv

from gevrey_kit import bessel_ratio_cf, ode_residual, phi_eps, shifted_reference
from gevrey_kit.errors import EvaluationError
from oracles import phi0

EPS_GRID = (0.05, 0.1, 0.2, 0.5)
Z_GRID = (0.01, 0.05, 0.1, 0.5, 1.0)


class TestPhi0:
    def test_values(self):
        assert phi0(0.0) == pytest.approx(-0.5)
        assert phi0(2.0) == pytest.approx(-0.25)
        assert phi0(-3.0 / 16.0) == pytest.approx(-2.0 / 3.0)

    def test_branch_cut(self):
        with pytest.raises(ValueError):
            phi0(-0.3)
        with pytest.raises(ValueError):
            phi0(-0.25)
        # points just off the cut are fine
        assert np.isfinite(phi0(-0.3 + 1e-6j))


class TestContinuedFraction:
    @pytest.mark.parametrize("eps", (0.1, 0.2, 0.5))
    @pytest.mark.parametrize("z", (0.05, 0.5, 1.0))
    def test_against_scipy(self, eps, z):
        kappa = 1.0 / eps
        x = 2.0 * math.sqrt(z) / eps
        got = bessel_ratio_cf(kappa, x)
        expect = iv(kappa, x) / iv(kappa - 1, x)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_depth_cap(self, monkeypatch):
        monkeypatch.setattr("gevrey_kit.riccati._CF_MAX_DEPTH", 2)
        with pytest.raises(EvaluationError):
            bessel_ratio_cf(10.0, 5.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_ratio_cf(-1.0, 1.0)


class TestPhiEps:
    def test_ode_residual_grid(self):
        worst = max(ode_residual(e, z) for e in EPS_GRID for z in Z_GRID)
        assert worst <= 1e-9

    def test_monotone_limit(self):
        for z in Z_GRID:
            target = phi0(z).real
            diffs = [abs(phi_eps(e, z) - target) for e in (0.5, 0.2, 0.1, 0.05, 0.02)]
            assert all(a > b for a, b in zip(diffs, diffs[1:])), (z, diffs)

    def test_limit_value_at_one(self):
        assert phi0(1.0).real == pytest.approx(-1.0 / (1.0 + math.sqrt(5.0)))
        assert abs(phi_eps(0.01, 1.0) - phi0(1.0).real) < abs(
            phi_eps(0.1, 1.0) - phi0(1.0).real)

    def test_sign_and_range(self):
        for e in EPS_GRID:
            for z in Z_GRID:
                v = phi_eps(e, z)
                assert -0.5 < v < 0.0, (e, z, v)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            phi_eps(0.0, 0.1)
        with pytest.raises(ValueError):
            phi_eps(2.5, 0.1)
        with pytest.raises(ValueError):
            phi_eps(0.1, 0.0)
        with pytest.raises(ValueError):
            phi_eps(0.1, 5.0)


class TestShiftedReference:
    def test_vanishes_at_origin(self):
        for e in (0.1, 0.5):
            assert abs(shifted_reference(e, 1e-12)) < 1e-6

    def test_small_z_slope_matches_f1(self):
        # (phi_eps(z) + 1/2) / z -> 1/(2(1+eps)) as z -> 0+
        for e in (0.1, 0.3):
            z = 1e-6
            slope = shifted_reference(e, z) / z
            assert slope == pytest.approx(1.0 / (2.0 * (1.0 + e)), abs=1e-4)

    def test_limit_is_a0(self):
        z = 0.05
        target = phi0(z).real + 0.5
        assert shifted_reference(0.005, z) == pytest.approx(target, abs=1e-2)
