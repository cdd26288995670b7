import json

import numpy as np
import pytest

from gevrey_kit import (
    CoeffTensor,
    ProblemSpec,
    assemble_B,
    builtin_riccati,
    normalize_shift,
    parse_problem,
    problem_to_json,
    shift_problem,
)
from gevrey_kit.errors import NormalizationError, SchemaError, SingularMatrixError
from gevrey_kit.series import _horner


def block_value(p, n, m):
    t = p.blocks.get((n, m))
    assert t is not None, f"missing block ({n}, {m})"
    return t.entries


class TestBuiltinRiccati:
    def test_blocks_beta_one(self, riccati):
        assert set(riccati.blocks) == {(0, 1), (1, 0), (1, 1), (1, 2)}
        np.testing.assert_allclose(block_value(riccati, 0, 1).ravel(), [-1.0])
        np.testing.assert_allclose(block_value(riccati, 1, 1).ravel(), [-2.0])
        np.testing.assert_allclose(block_value(riccati, 1, 0).ravel(), [0.5])
        np.testing.assert_allclose(block_value(riccati, 1, 2).ravel(), [2.0])

    def test_linear_eigenvalue(self, riccati):
        assert np.linalg.eigvals(riccati.a01(0.0))[0] == pytest.approx(-1.0)

    def test_beta_zero_rejected(self):
        with pytest.raises(NormalizationError):
            builtin_riccati(beta=(0.0,))
        with pytest.raises(NormalizationError):
            builtin_riccati(beta=(0.0, 1.0))

    def test_polynomial_beta(self):
        p = builtin_riccati(beta=(1.0, 0.5))
        np.testing.assert_allclose(block_value(p, 1, 1).ravel(), [-2.0, -1.0])
        np.testing.assert_allclose(block_value(p, 1, 0).ravel(), [0.5, 0.5, 0.125])
        np.testing.assert_allclose(block_value(p, 0, 1).ravel(), [-1.0])

    def test_defaults(self, riccati):
        assert riccati.rho == 1.0 and riccati.rho1 == 4.0
        assert riccati.is_normalized

    def test_shifted_limit_solution_annihilates_rhs(self, riccati):
        # a0 = phi0 + 1/2 as an exact binomial series satisfies F(0, z, a0) = 0
        from fractions import Fraction

        K = 20
        a0 = np.zeros(K + 1)
        for k in range(1, K + 1):
            b = Fraction(1)
            for j in range(k + 1):
                b = b * (Fraction(1, 2) - j) / (j + 1)
            a0[k] = float(-b * Fraction(4) ** k)
        # assemble sum_{n,m} A_{n,m} z^n a0(z)^m coefficient-wise through K-2
        total = np.zeros(K + 1)
        for (n, m), t in riccati.blocks.items():
            coef = t.at_eps(0.0).ravel()[0].real
            term = np.zeros(K + 1)
            term[0] = 1.0
            for _ in range(m):
                term = np.convolve(term, a0)[: K + 1]
            shifted = np.zeros(K + 1)
            shifted[n:] = term[: K + 1 - n]
            total += coef * shifted
        assert np.abs(total[: K - 1]).max() < 1e-12


class TestParseSerialize:
    def test_round_trip_bit_exact(self, riccati):
        text = problem_to_json(riccati)
        p2 = parse_problem(text)
        assert problem_to_json(p2) == text
        for key, t in riccati.blocks.items():
            np.testing.assert_array_equal(p2.blocks[key].entries, t.entries)

    def test_parse_from_file(self, riccati, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(problem_to_json(riccati), encoding="utf-8")
        p2 = parse_problem(path)
        assert set(p2.blocks) == set(riccati.blocks)

    def test_unreadable_file_is_a_schema_error(self, tmp_path):
        # bytes that are not UTF-8 fail before the JSON parser sees them
        path = tmp_path / "prob.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(SchemaError, match="cannot read"):
            parse_problem(path)
        with pytest.raises(SchemaError, match="cannot read"):
            parse_problem(tmp_path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(SchemaError, match=r"^problem file not found: .*missing\.json$"):
            parse_problem(path)

    def test_text_is_never_a_file_name(self, riccati, tmp_path, monkeypatch):
        # a str is JSON text even where a file of that name exists
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prob.json").write_text(problem_to_json(riccati), encoding="utf-8")
        with pytest.raises(SchemaError, match="^invalid JSON: "):
            parse_problem("prob.json")

    @pytest.mark.parametrize("text, message", [
        ("{", "^invalid JSON: "),
        ("[1]", "^problem document must be a JSON object$"),
    ])
    def test_text_that_is_no_problem_object(self, text, message):
        with pytest.raises(SchemaError, match=message):
            parse_problem(text)

    def test_non_invertible_linear_block(self):
        doc = {"nu": 1, "rho": 1.0, "rho1": 4.0,
               "tensors": [{"n": 0, "m": 1, "entries": [[[0.0, 0.0]]]}]}
        with pytest.raises(SingularMatrixError):
            parse_problem(doc)

    def test_ill_conditioned_linear_block(self):
        # diag(1e12, 1e-3): singular values 1e-15 apart, which no double
        # solve resolves, however far both lie from 0
        doc = {"nu": 2, "rho": 1.0, "rho1": 4.0, "tensors": [
            {"n": 0, "m": 1, "entries": [[[1e12, 0]], [[0, 0]], [[0, 0]], [[1e-3, 0]]]},
            {"n": 1, "m": 0, "entries": [[[1.0, 0]], [[1.0, 0]]]}]}
        with pytest.raises(SingularMatrixError) as exc:
            parse_problem(doc)
        assert str(exc.value) == ("linear block at eps = 0 is numerically singular "
                                  "(smallest singular value 1.000e-03)")

    def test_missing_linear_block(self):
        doc = {"nu": 1, "rho": 1.0, "rho1": 4.0,
               "tensors": [{"n": 1, "m": 0, "entries": [[[1.0, 0.0]]]}]}
        with pytest.raises(SingularMatrixError):
            parse_problem(doc)

    def test_empty_tensors(self):
        with pytest.raises(SchemaError):
            parse_problem({"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": []})

    def test_duplicate_blocks(self):
        t = {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]]}
        with pytest.raises(SchemaError, match=r"^duplicate block \(0, 1\)$"):
            parse_problem({"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": [t, dict(t)]})

    def test_wrong_entry_count(self):
        doc = {"nu": 2, "rho": 1.0, "rho1": 4.0,
               "tensors": [{"n": 0, "m": 1, "entries": [[[1.0, 0.0]]]}]}
        with pytest.raises(SchemaError):
            parse_problem(doc)

    def test_ragged_degrees_rejected(self):
        doc = {"nu": 1, "rho": 1.0, "rho1": 4.0,
               "tensors": [{"n": 0, "m": 1,
                            "entries": [[[1.0, 0.0]]]},
                           {"n": 1, "m": 1,
                            "entries": [[[1.0, 0.0], [2.0, 0.0]]]}]}
        parse_problem(doc)  # different blocks may differ
        bad = {"nu": 2, "rho": 1.0, "rho1": 4.0,
               "tensors": [{"n": 0, "m": 1,
                            "entries": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                                        [[0.0, 0.0]], [[1.0, 0.0]]]}]}
        with pytest.raises(SchemaError):
            parse_problem(bad)

    def test_bad_radii(self):
        doc = {"nu": 1, "rho": 4.0, "rho1": 1.0,
               "tensors": [{"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]]}]}
        with pytest.raises(SchemaError, match=r"^radii must satisfy 0 < rho < rho1$"):
            parse_problem(doc)

    def test_extra_keys_rejected(self):
        doc = {"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": [
            {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]]}], "extra": 1}
        with pytest.raises(SchemaError):
            parse_problem(doc)

    def test_validates_against_shipped_schema(self, riccati):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("gevrey_kit.schemas").joinpath("problem.schema.json")
            .read_text())
        jsonschema.validate(json.loads(problem_to_json(riccati)), schema)

    def test_schema_bounds_match_the_parser(self):
        from importlib import resources

        from gevrey_kit.problem import _MAX_AXES, _MAX_Z_POWER, MAX_DIMENSION

        schema = json.loads(
            resources.files("gevrey_kit.schemas").joinpath("problem.schema.json")
            .read_text())
        block = schema["properties"]["tensors"]["items"]["properties"]
        assert block["n"]["maximum"] == _MAX_Z_POWER
        assert block["m"]["maximum"] == _MAX_AXES - 2
        assert schema["properties"]["nu"]["maximum"] == MAX_DIMENSION


class TestNormalizeShift:
    def test_eps_minus_f(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 0, np.array([[0.0, 1.0]], dtype=complex)),
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
        ))
        s, shifted = normalize_shift(p, 8)
        np.testing.assert_allclose(s[0, :2], [0.0, 1.0], atol=1e-14)
        assert set(shifted.blocks) == {(0, 1)}
        np.testing.assert_allclose(shifted.a01(0.0), [[-1.0]])

    def test_already_normalized_identity(self, riccati):
        s, shifted = normalize_shift(riccati, 6)
        assert np.abs(s).max() < 1e-14
        for key, t in riccati.blocks.items():
            got = shifted.blocks[key].entries
            np.testing.assert_allclose(got.ravel(), t.entries.ravel(), atol=1e-14)

    def test_nonzero_constant_rejected(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 0, np.array([[1.0]], dtype=complex)),
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
        ))
        with pytest.raises(NormalizationError):
            normalize_shift(p, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_problems_shift_kills_constant(self, seed):
        rng = np.random.default_rng(seed)
        nu = int(rng.integers(1, 4))
        deg = 2
        a01 = np.eye(nu) + 0.3 * rng.standard_normal((nu, nu))
        tensors = [CoeffTensor(0, 1, np.concatenate(
            [a01[:, :, None], 0.2 * rng.standard_normal((nu, nu, deg))], axis=2)
            .astype(complex))]
        c00 = np.concatenate([np.zeros((nu, 1)), 0.2 * rng.standard_normal((nu, deg))],
                             axis=1)
        tensors.append(CoeffTensor(0, 0, c00.astype(complex)))
        tensors.append(CoeffTensor(0, 2, (0.1 * rng.standard_normal((nu, nu, nu, 1)))
                                   .astype(complex)))
        tensors.append(CoeffTensor(1, 1, (rng.standard_normal((nu, nu, 1)))
                                   .astype(complex)))
        p = ProblemSpec(nu=nu, rho=1.0, rho1=4.0, tensors=tuple(tensors))
        k_eps = 8
        s, shifted = normalize_shift(p, k_eps)
        assert shifted.is_normalized
        # independent check: plug s back into the eps-constant part of F
        from gevrey_kit.series import multilinear_apply
        from oracles import compositions
        for j in range(k_eps + 1):
            acc = np.zeros(nu, dtype=complex)
            for t in p.tensors:
                if t.n != 0:
                    continue
                for d in range(min(j, t.degree) + 1):
                    for comp in compositions(j - d, t.m, 0):
                        acc += multilinear_apply(
                            t.entries[..., d], [s[:, l] for l in comp])
            assert np.abs(acc).max() < 1e-12


    @pytest.mark.parametrize("seed", [*range(8), 61, 133, 166])
    def test_shifted_rhs_matches_rhs_at_shift(self, seed):
        # F_shifted(eps, z, g) = F(eps, z, s(eps) + g) + O(eps^(k_eps + 1)) on
        # non-symmetric blocks whose shifted eps-coefficients run far beyond
        # k_eps (the cubic ones to degree 32); the small z-power-1 block must
        # survive the truncation to k_eps.  Seeds 61, 133 and 166 have shifts
        # with coefficients up to 9e7, whose root residual exceeds 1e-10
        rng = np.random.default_rng(seed)
        nu = int(rng.integers(1, 4))

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        c00 = 0.5 * draw(nu, 3)
        c00[:, 0] = 0.0
        a01 = np.concatenate([(-np.eye(nu) + 0.2 * draw(nu, nu))[..., None],
                              0.3 / nu * draw(nu, nu, 1)], axis=-1)
        p = ProblemSpec(nu=nu, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 0, c00), CoeffTensor(0, 1, a01),
            CoeffTensor(0, 2, 0.5 / nu * draw(nu, nu, nu, 2)),
            CoeffTensor(0, 3, 0.5 / nu * draw(nu, nu, nu, nu, 2)),
            CoeffTensor(1, 3, 1e-3 * draw(nu, nu, nu, nu, 1))))
        s, shifted = normalize_shift(p, 10)
        eps = 0.01 * np.exp(2j * np.pi * rng.uniform())
        z = complex(*rng.uniform(-0.5, 0.5, 2))
        g = 0.1 * draw(nu)
        want = p.eval_F(eps, z, _horner(s.T, eps) + g)
        got = shifted.eval_F(eps, z, g)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_block_the_shift_cancels_is_dropped(self):
        # eps z f' = eps - f + z f - eps z: the shift s = eps turns the
        # (1,0) block -eps z into -eps z + z s = 0
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 0, np.array([[0.0, 1.0]], dtype=complex)),
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
            CoeffTensor(1, 1, np.array([[[1.0 + 0j]]])),
            CoeffTensor(1, 0, np.array([[0.0, -1.0]], dtype=complex)),
        ))
        s, shifted = normalize_shift(p, 4)
        np.testing.assert_allclose(s[0], [0, 1, 0, 0, 0], atol=1e-14)
        assert set(shifted.blocks) == {(0, 1), (1, 1)}


LINEAR = CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]]))


@pytest.mark.parametrize("build, message", [
    (lambda: CoeffTensor(-1, 0, np.ones((1, 1))), "nonnegative"),
    (lambda: CoeffTensor(0, 1, np.ones((1, 1))), "arity 1 need 3 axes"),
    (lambda: CoeffTensor(0, 1, np.ones((1, 2, 1))), "share the dimension nu"),
    (lambda: CoeffTensor(0, 0, np.ones((1, 0))), "at least the constant"),
    (lambda: ProblemSpec(nu=9, rho=1.0, rho1=4.0, tensors=(LINEAR,)), r"nu must be in \[1, 8\]"),
    (lambda: ProblemSpec(nu=2, rho=1.0, rho1=4.0, tensors=(LINEAR,)),
     "tensor dimension does not match"),
    (lambda: shift_problem(builtin_riccati(), np.zeros((2, 2))), "shift dimension mismatch"),
    (lambda: normalize_shift(builtin_riccati(), 0), "k_eps must be >= 1"),
    (lambda: builtin_riccati([[1.0]]), "coefficient sequence"),
], ids=["power", "axes", "nu-axes", "eps-axis", "nu", "block-nu", "shift-nu",
        "k_eps", "beta"])
def test_shape_and_order_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestAssembleB:
    def test_riccati_blocks(self, riccati):
        # B[m][..., j, n] is the eps^j z^n coefficient of block (n, m)
        b = assemble_B(riccati)
        assert set(b) == {0, 1, 2}
        assert [e.shape for e in b.values()] == [(1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 1, 2)]
        np.testing.assert_allclose(b[1][0, 0, 0], [-1.0, -2.0])
        np.testing.assert_allclose(b[2][0, 0, 0, 0], [0.0, 2.0])
        np.testing.assert_allclose(b[0][0, 0], [0.0, 0.5])
        assert not any(e.flags.writeable for e in b.values())

    def test_eps_linear_block(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0, 1.0]]], dtype=complex)),))
        b = assemble_B(p)
        assert b[1].shape == (1, 1, 2, 1)
        np.testing.assert_allclose(b[1][0, 0, :, 0], [-1.0, 1.0])

    def test_no_spurious_eps_blocks(self, riccati):
        # an eps-axis ends at the last nonzero coefficient of its arity, and
        # an arity whose blocks all vanish is left out
        assert all(e.shape[-2] == 1 for e in assemble_B(riccati).values())
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[-1.0, 0.5, 0.0, 0.0]]], dtype=complex)),
            CoeffTensor(1, 1, np.zeros((1, 1, 3), dtype=complex)),
            CoeffTensor(3, 2, np.zeros((1, 1, 1, 2), dtype=complex))))
        b = assemble_B(p)
        assert set(b) == {1}
        np.testing.assert_array_equal(b[1][0, 0], [[-1.0, 0.0], [0.5, 0.0]])

    def test_round_trip_to_A(self, staggered):
        # A_{n,m}[..., j] == B[m][..., j, n], with zeros elsewhere; the
        # cubic arity has only eps^1, the (1,1) block a zero eps^2
        b = assemble_B(staggered)
        assert set(b) == {0, 1, 2, 3}
        assert b[1].shape == (2, 2, 2, 2) and b[3].shape == (2,) * 4 + (2, 3)
        for (n, m), t in staggered.blocks.items():
            for j in range(t.degree + 1):
                got = b[m][..., j, n] if j < b[m].shape[-2] else 0.0
                np.testing.assert_array_equal(got, t.entries[..., j])
        for m, e in b.items():
            for n in range(e.shape[-1]):
                t = staggered.blocks.get((n, m))
                assert not e[..., 0 if t is None else t.degree + 1:, n].any()


class TestEvalF:
    def test_riccati_pointwise(self, riccati):
        # -(1+2z) f + z/2 + 2 z f^2 at (eps, z, f) = (0, 0.1, 0.2)
        z, f = 0.1, 0.2
        expect = -(1 + 2 * z) * f + z / 2 + 2 * z * f * f
        got = riccati.eval_F(0.0, z, np.array([f]))
        assert got[0] == pytest.approx(expect, abs=1e-15)

    def test_require_normalized(self):
        p = ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
            CoeffTensor(0, 0, np.array([[0.0, 1.0]], dtype=complex)),
            CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
        ))
        with pytest.raises(NormalizationError):
            p.require_normalized()
