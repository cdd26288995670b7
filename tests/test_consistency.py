import pytest

from oracles import cross_consistency, limit_to_a0


class TestCrossConsistency:
    def test_riccati_small(self, riccati):
        rep = cross_consistency(riccati, 6, 6, radius=1e-2)
        assert rep.max_scaled_discrepancy <= 1e-8

    def test_spot_values(self, riccati):
        rep = cross_consistency(riccati, 3, 3, radius=1e-2)
        # eps-Taylor of f_k vs z-coefficients of a_i, raw values at small order
        assert rep.eps_taylor[0, 0, 0].real == pytest.approx(0.5, abs=1e-10)
        assert rep.eps_taylor[2, 1, 0].real == pytest.approx(-7.0, rel=1e-8)
        assert rep.eps_taylor[1, 1, 0].real == pytest.approx(3.0, rel=1e-8)
        assert rep.eps_taylor[2, 2, 0].real == pytest.approx(59.0, rel=1e-7)

    def test_linear_problem_exact(self, linear_problem):
        # closed form f = z/(1+eps): both routes are exactly representable
        rep = cross_consistency(linear_problem, 6, 4, radius=1e-2)
        assert rep.max_scaled_discrepancy <= 1e-12

    def test_staggered_eps_degrees(self, staggered):
        # the cubic arity enters only at eps^1, so the eps-recursion reads
        # it from order 1 on, and the z-recursion at every eps
        rep = cross_consistency(staggered, 4, 8, radius=1e-2)
        assert rep.max_scaled_discrepancy <= 1e-8

    def test_table_shapes(self, riccati):
        rep = cross_consistency(riccati, 4, 5)
        assert rep.table.shape == (5, 5)
        assert rep.raw.shape == (5, 5)
        assert rep.eps_taylor.shape == (5, 5, 1)


class TestLimitToA0:
    def test_monotone_decrease(self, riccati):
        eps_seq = [2.0**-j for j in range(1, 13)]
        table = limit_to_a0(riccati, eps_seq, 0.05)
        diffs = [d for _, d in table]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_final_threshold_small_z(self, riccati):
        eps_seq = [2.0**-j for j in range(1, 13)]
        table = limit_to_a0(riccati, eps_seq, 0.005)
        assert table[-1][1] < 1e-6

    def test_zero_point(self, riccati):
        table = limit_to_a0(riccati, [0.1, 0.05], 0.0)
        assert all(d == 0.0 for _, d in table)
