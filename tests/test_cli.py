import json
import math
import warnings
from importlib import resources

import jsonschema
import pytest

from gevrey_kit import CoeffTensor, ProblemSpec, builtin_riccati, problem_to_json
from gevrey_kit.cli import main
from oracles import phi0


@pytest.fixture(scope="module")
def report_schema():
    return json.loads(
        resources.files("gevrey_kit.schemas").joinpath("report.schema.json")
        .read_text())


#: eps*z*f' = -f + eps*z + 2*z*f^2: a_0 vanishes identically
VANISHING_A0 = {"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": [
    {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]]},
    {"n": 1, "m": 0, "entries": [[[0.0, 0.0], [1.0, 0.0]]]},
    {"n": 1, "m": 2, "entries": [[[2.0, 0.0]]]}]}
#: eps*z*f' = -f: every a_i vanishes identically
ONE_BLOCK = {"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": VANISHING_A0["tensors"][:1]}


def write_doc(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def scaled_riccati(tmp_path, s, c):
    """The built-in problem with F times s and f times c, written to a file:
    block (n, m) times s * c**(1 - m)."""
    r = builtin_riccati()
    path = tmp_path / f"riccati_F{s:g}_f{c:g}.json"
    path.write_text(problem_to_json(ProblemSpec(nu=1, rho=r.rho, rho1=r.rho1, tensors=tuple(
        CoeffTensor(t.n, t.m, t.entries * (s * c ** (1 - t.m))) for t in r.tensors))),
        encoding="utf-8")
    return str(path)


class TestCheckSector:
    def test_riccati_summable(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["check-sector", "--builtin", "riccati",
                                        "--theta", "0"])
        assert code == 0
        jsonschema.validate(rep, report_schema)
        assert rep["verdict"] == "summable"
        assert rep["data"]["gamma_max"] == pytest.approx(2 * math.pi)

    def test_opposite_direction(self, tmp_path):
        code, rep = run_json(tmp_path, ["check-sector", "--builtin", "riccati",
                                        "--theta", "3.14159"])
        assert code == 2
        assert rep["verdict"] == "not-summable"

    def test_options_are_the_ones_it_reads(self, tmp_path):
        code, rep = run_json(tmp_path, ["check-sector", "--builtin", "riccati"])
        assert code == 0
        assert rep["meta"]["options"] == {"builtin": "riccati", "theta": 0.0}

    def test_missing_problem_file(self, tmp_path, capsys, monkeypatch):
        code = main(["check-sector", "--problem", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err
        # a relative path is named as it was given
        monkeypatch.chdir(tmp_path)
        code, rep = run_json(tmp_path, ["solve", "--problem", "missing.json"])
        assert (code, rep) == (1, None)
        assert capsys.readouterr().err == ("gevrey-kit: error: "
                                           "problem file not found: missing.json\n")

    @pytest.mark.parametrize("gamma", ["-1", "0", "7"])
    def test_opening_outside_range_is_refused(self, tmp_path, capsys, gamma):
        # an empty or over-full sector has no ray condition to check
        code, rep = run_json(tmp_path, ["check-sector", "--builtin", "riccati",
                                        f"--gamma={gamma}"])
        assert (code, rep) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("gevrey-kit: error: the opening gamma must lie in (0, 2*pi]")
        assert err.count("\n") == 1

    def test_full_opening_is_accepted(self, tmp_path):
        code, rep = run_json(tmp_path, ["check-sector", "--builtin", "riccati",
                                        "--gamma", repr(2 * math.pi)])
        assert code == 0
        assert rep["data"]["gamma"] == 2 * math.pi

    @pytest.mark.parametrize("diagonal", [[-1e200, -2e200], [-1e40 * j for j in range(1, 9)]],
                             ids=["nu2-1e200", "nu8-1e40"])
    def test_large_linear_block(self, tmp_path, diagonal):
        # ||A01||_2^nu leaves the double range; the eigenvalues do not
        nu = len(diagonal)
        doc = {"nu": nu, "rho": 1.0, "rho1": 4.0, "tensors": [
            {"n": 0, "m": 1, "entries": [[[x if i == j else 0.0, 0.0]]
                                         for i, x in enumerate(diagonal) for j in range(nu)]},
            {"n": 1, "m": 0, "entries": [[[1.0, 0.0]]] * nu}]}
        code, rep = run_json(tmp_path, ["check-sector", "--problem", write_doc(tmp_path, doc)])
        assert (code, rep["verdict"]) == (0, "summable")
        assert rep["data"]["gamma_max"] == pytest.approx(2 * math.pi)


#: eps*z*f' = diag(-1e12, -1) f + z (1, 1): a stiff but well-separated linear block
STIFF = {"nu": 2, "rho": 1.0, "rho1": 4.0, "tensors": [
    {"n": 0, "m": 1, "entries": [[[-1e12, 0]], [[0, 0]], [[0, 0]], [[-1.0, 0]]]},
    {"n": 1, "m": 0, "entries": [[[1.0, 0]], [[1.0, 0]]]}]}


class TestSolve:
    def test_stiff_linear_block_is_not_resonant(self, tmp_path):
        # eps*k - A01 has singular values 1e12 + 0.1 k and 1 + 0.1 k, a
        # condition number near 1e12, but eps*k = 0.1 k is far from both
        # eigenvalues: f = z / (eps - lambda) exactly
        code, rep = run_json(tmp_path, ["solve", "--problem", write_doc(tmp_path, STIFF),
                                        "--eps", "0.1", "--z", "0.05", "--K", "20"])
        assert (code, rep["verdict"]) == (0, "ok")
        value = rep["data"]["eps_blocks"][0]["points"][0]["value"]
        assert value[0] == [pytest.approx(0.05 / (1e12 + 0.1), rel=1e-14), 0.0]
        assert value[1] == [pytest.approx(0.05 / 1.1, rel=1e-14), 0.0]

    def test_values_match_reference(self, tmp_path, report_schema):
        from gevrey_kit import shifted_reference

        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati",
                                        "--eps", "0.1", "--z", "0.05", "--K", "60"])
        assert code == 0
        jsonschema.validate(rep, report_schema)
        block = rep["data"]["eps_blocks"][0]
        assert block["points"][0]["value"][0][0] == pytest.approx(
            shifted_reference(0.1, 0.05), abs=1e-9)
        assert block["max_ode_residual"] <= 1e-9

    def test_zero_point(self, tmp_path):
        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati",
                                        "--eps", "0.1", "--z", "0"])
        assert code == 0
        assert rep["data"]["eps_blocks"][0]["points"][0]["value"][0][0] == 0.0

    def test_eps_zero_gives_the_a0_series(self, tmp_path):
        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati", "--eps", "0"])
        assert (code, rep["verdict"]) == (0, "ok")
        value = rep["data"]["eps_blocks"][0]["points"][0]["value"][0]
        assert value[0] == pytest.approx(phi0(0.05) + 0.5, abs=1e-12)

    def test_resonance_error_report(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati",
                                        "--eps", "-0.5", "--z", "0.05"])
        assert code == 2
        jsonschema.validate(rep, report_schema)
        assert rep["error"]["code"] == "resonance"

    @pytest.mark.parametrize("eps, z", [
        ("-0.25000001", "0.05"),   # eps*4 next to the eigenvalue -1
        ("0.1", "0.5"),            # outside the disc of convergence
    ])
    def test_large_residual_is_not_ok(self, tmp_path, report_schema, eps, z):
        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati", f"--eps={eps}",
                                        "--z", z, "--K", "60"])
        assert code == 2
        jsonschema.validate(rep, report_schema)
        assert rep["verdict"] == "residual-too-large"
        block = rep["data"]["eps_blocks"][0]
        value = abs(complex(*block["points"][0]["value"][0]))
        assert block["max_ode_residual"] > 1e-8 * max(1.0, value)

    def test_overflowing_residual_norm_is_finite(self, tmp_path, report_schema):
        # at eps*4 next to the eigenvalue -1 the residual at z = 0.5 is about
        # 7.6e191: its squared entries overflow a double, its 2-norm does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati",
                                            "--eps=-0.25000001,0.1", "--z", "0.05,0.5"])
        assert code == 2
        jsonschema.validate(rep, report_schema)
        assert rep["verdict"] == "residual-too-large"
        resid = rep["data"]["eps_blocks"][0]["max_ode_residual"]
        assert resid is not None and 1e191 < resid < math.inf

    @pytest.mark.parametrize("z", ["1e4", "0.05,1e200"])
    def test_overflowing_partial_sum_is_not_ok(self, tmp_path, report_schema, z):
        # far outside the disc of convergence the residual is NaN, and at
        # 1e200 the value overflows too: the verdict says so, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati", "--z", z])
        assert code == 2
        jsonschema.validate(rep, report_schema)
        assert rep["verdict"] == "residual-too-large"
        assert rep["data"]["eps_blocks"][0]["max_ode_residual"] is None

    def test_order_above_limit_is_refused(self, tmp_path, capsys):
        # refused before the recursion allocates anything
        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati", "--K", "10001"])
        assert (code, rep) == (1, None)
        err = capsys.readouterr().err
        assert err == "gevrey-kit: error: --K must be at most 10000, got 10001\n"

    def test_overflow_exits_operational(self, tmp_path, capsys):
        code = main(["solve", "--builtin", "riccati", "--K", "1000"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_small_linear_block_at_eps_zero(self, tmp_path):
        # every block times 1e-11: -A01 = 1e-11 is solved exactly at eps = 0,
        # not called resonant
        path = scaled_riccati(tmp_path, 1e-11, 1.0)
        code, rep = run_json(tmp_path, ["solve", "--problem", path, "--eps", "0", "--z", "0.05"])
        assert (code, rep["verdict"]) == (0, "ok")

    def test_problem_file_round_trip(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(problem_to_json(builtin_riccati()), encoding="utf-8")
        code, rep = run_json(tmp_path, ["solve", "--problem", str(path),
                                        "--eps", "0.1", "--z", "0.05"])
        assert code == 0


class TestResum:
    def test_reference_error_small(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["resum", "--builtin", "riccati",
                                        "--eps", "0.1", "--z", "0.05", "--I", "30"])
        assert code == 0
        jsonschema.validate(rep, report_schema)
        point = rep["data"]["points"][0]
        assert point["reference_error"] <= 1e-6
        assert rep["data"]["L"] == 14 and rep["data"]["M"] == 15

    @pytest.mark.parametrize("z", [0.1, 0.2])
    def test_reference_error_away_from_the_origin(self, tmp_path, z):
        # the z-series of a_i summed at 0 has no digit left here at i = 30;
        # the values come from Taylor jets at z
        from gevrey_kit import shifted_reference

        code, rep = run_json(tmp_path, ["resum", "--builtin", "riccati", "--I", "30",
                                        "--eps", "0.05,0.1,0.2,0.5", "--z", str(z)])
        assert code == 0
        for point in rep["data"]["points"]:
            ref = shifted_reference(point["eps"], z)
            assert point["reference_error"] <= 1e-3 * abs(ref), point["eps"]

    def test_low_order_still_finite(self, tmp_path):
        code, rep = run_json(tmp_path, ["resum", "--builtin", "riccati",
                                        "--eps", "0.1", "--z", "0.05", "--I", "6"])
        assert code == 0
        assert rep["data"]["points"][0]["reference_error"] < 1e-2

    def test_negative_derived_order_is_named(self, tmp_path, capsys):
        # at the default I = 30, --L 100 leaves M = I - 1 - L = -71
        code, rep = run_json(tmp_path, ["resum", "--builtin", "riccati", "--L", "100"])
        assert (code, rep) == (1, None)
        assert "[100/-71]" in capsys.readouterr().err

    def test_pole_obstruction_exit(self, tmp_path):
        # eps*z*f' = f - z has f = z/(1-eps); its transform z*e^t is
        # approximated by rationals with genuine positive-axis poles
        import numpy as np

        from gevrey_kit import CoeffTensor, ProblemSpec

        p = ProblemSpec(nu=1, rho=0.5, rho1=4.0, tensors=(
            CoeffTensor(0, 1, np.array([[[1.0 + 0j]]])),
            CoeffTensor(1, 0, np.array([[-1.0 + 0j]])),
        ))
        path = tmp_path / "growing.json"
        path.write_text(problem_to_json(p), encoding="utf-8")
        code, rep = run_json(tmp_path, ["resum", "--problem", str(path),
                                        "--eps", "0.2", "--z", "0.05",
                                        "--I", "20"])
        assert code == 2
        assert rep["error"]["code"] == "pole-obstruction"

    def test_strict_json_without_poles(self, tmp_path, report_schema):
        # every a_i vanishes, the Pade denominator has no root and the pole
        # clearance is infinite: the report writes null, not Infinity
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        out = tmp_path / "out.json"
        code = main(["resum", "--problem", write_doc(tmp_path, ONE_BLOCK),
                     "--eps", "0.1", "--z", "0.05", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text(), parse_constant=refuse)
        jsonschema.validate(rep, report_schema)
        assert rep["data"]["points"][0]["pole_clearance"] is None


class TestDiagnose:
    def test_vanishing_a0(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["diagnose", "--problem",
                                        write_doc(tmp_path, VANISHING_A0)])
        assert code == 0
        jsonschema.validate(rep, report_schema)
        # a zero norm has no log: null, as every other non-finite number
        assert rep["data"]["norms"][0] == {"i": 0, "norm": 0.0,
                                           "log_norm_minus_log_factorial": None}
        fit = rep["data"]["fit"]
        assert all(math.isfinite(fit[k]) and fit[k] > 0 for k in ("C", "mu"))
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--problem", write_doc(tmp_path, VANISHING_A0),
                     "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "0,0.0,"

    def test_every_term_vanishes(self, tmp_path, capsys):
        code = main(["diagnose", "--problem", write_doc(tmp_path, ONE_BLOCK)])
        assert code == 1
        assert "31 of the 31 terms a_i vanish identically" in capsys.readouterr().err

    def test_json_report(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["diagnose", "--builtin", "riccati",
                                        "--I", "30", "--eps", "0.1",
                                        "--z", "0.05"])
        assert code == 0
        jsonschema.validate(rep, report_schema)
        assert rep["data"]["fit"]["r2"] > 0.99
        assert rep["data"]["fit"]["mu"] > 0
        assert len(rep["data"]["norms"]) == 31

    def test_csv_tables(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "--builtin", "riccati", "--I", "12",
                     "--eps", "0.1", "--z", "0.05",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,norm,log_norm_minus_log_factorial"
        assert len(lines) == 14
        side = tmp_path / "diag_remainder.csv"
        rem = side.read_text().splitlines()
        assert rem[0] == "eps,I,abs_rI"

    def test_insufficient_depth(self, tmp_path, capsys):
        code = main(["diagnose", "--builtin", "riccati", "--I", "3"])
        assert code == 1

    @pytest.mark.parametrize("z", ["0.05,0.1", ""])
    def test_one_remainder_point(self, tmp_path, capsys, z):
        # the remainder table is evaluated at one z; a second one was echoed
        # in meta but never reported
        code, rep = run_json(tmp_path, ["diagnose", "--builtin", "riccati", "--I", "9",
                                        f"--z={z}"])
        assert (code, rep) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("gevrey-kit: error: ") and "--z" in err

    @pytest.mark.parametrize("sigma, message", [
        # a disc of radius 0 is the one point z = 0, where every a_i vanishes
        ("0", "--sigma must be positive, got 0.0"),
        ("-0.1", "--sigma must be positive, got -0.1"),
        ("1e300", "the sup norm on the disc of radius sigma = 1e+300 overflows"),
    ])
    def test_sigma_out_of_range(self, tmp_path, capsys, sigma, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(tmp_path, ["diagnose", "--builtin", "riccati", "--I", "12",
                                            "--sigma", sigma])
        assert (code, rep) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith(f"gevrey-kit: error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("name, sidecar", [("diag.txt", "diag_remainder.txt"),
                                               ("diag", "diag_remainder.csv")])
    def test_sidecar_extension(self, tmp_path, name, sidecar):
        code = main(["diagnose", "--builtin", "riccati", "--I", "9", "--format", "csv",
                     "--out", str(tmp_path / name)])
        assert code == 0
        assert (tmp_path / name).read_text().startswith("i,norm,")
        assert (tmp_path / sidecar).read_text().startswith("eps,I,abs_rI\n")


@pytest.mark.parametrize("args, option", [
    (["check-sector", "--theta", "nan"], "--theta"),
    (["check-sector", "--gamma", "inf"], "--gamma"),
    (["solve", "--z", "nan"], "--z"),
    (["solve", "--eps", "0.1,-inf"], "--eps"),
    (["resum", "--eps", "nan"], "--eps"),
    (["resum", "--z", "inf"], "--z"),
    (["diagnose", "--sigma", "nan"], "--sigma"),
])
def test_non_finite_option_is_refused(tmp_path, capsys, args, option):
    # float() takes nan and inf; no layer may run on them
    code, rep = run_json(tmp_path, args + ["--builtin", "riccati"])
    assert (code, rep) == (1, None)
    assert f"gevrey-kit: error: {option} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("args, option", [
    (["solve", "--eps="], "--eps"),
    (["solve", "--eps=,"], "--eps"),
    (["solve", "--z="], "--z"),
    (["resum", "--z="], "--z"),
    (["diagnose", "--eps="], "--eps"),
])
def test_empty_list_is_refused(tmp_path, capsys, args, option):
    # an empty list would run no job and still report its verdict
    code, rep = run_json(tmp_path, args + ["--builtin", "riccati"])
    assert (code, rep) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith(f"gevrey-kit: error: argument {option}: ") and err.count("\n") == 1


def test_bad_number_in_list_is_refused(tmp_path, capsys):
    code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati", "--eps", "0.1,x"])
    assert (code, rep) == (1, None)
    assert capsys.readouterr().err == ("gevrey-kit: error: argument --eps: "
                                       "bad numeric list '0.1,x'\n")


@pytest.mark.parametrize("command", ["resum", "diagnose"])
def test_eps_order_above_limit_is_refused(tmp_path, capsys, command):
    # refused before any layer allocates its O(I^2) jets
    code, rep = run_json(tmp_path, [command, "--builtin", "riccati", "--I", "101"])
    assert (code, rep) == (1, None)
    err = capsys.readouterr().err
    assert err == "gevrey-kit: error: --I must be at most 100, got 101\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 298. GiB for an array"),
     "Unable to allocate 298. GiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_failed_allocation_exits_operational(tmp_path, capsys, monkeypatch, error, line):
    # one error line, no traceback
    from gevrey_kit import epssolver

    def fail(*args):
        raise error

    monkeypatch.setattr(epssolver, "eps_values_at", fail)
    code, rep = run_json(tmp_path, ["resum", "--builtin", "riccati"])
    assert (code, rep) == (1, None)
    assert capsys.readouterr().err == f"gevrey-kit: error: {line}\n"


@pytest.mark.parametrize("args, message", [
    (["resum", "--eps", "0", "--I", "12"], "the Laplace sum needs eps != 0"),
    (["diagnose", "--eps", "0", "--I", "9"], "the remainder table needs eps != 0"),
    (["resum", "--eps", "1e308", "--I", "12"], "Laplace cutoff at eps = 1e+308+0j"),
    (["diagnose", "--eps", "1e200", "--I", "9"], "remainder table at eps = 1e+200+0j"),
    (["solve", "--eps", "1e308"], "at eps = 1e+308+0j, k = 2"),
    (["diagnose", "--eps", "1e308", "--I", "9"], "at eps = 1e+308+0j, k = 2"),
])
def test_eps_out_of_range_exits_operational(tmp_path, capsys, args, message):
    # eps = 0 has no Laplace sum or remainder table, and a huge eps
    # overflows: one error line, no report, no warning and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_json(tmp_path, args + ["--builtin", "riccati"])
    assert (code, rep) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("gevrey-kit: error: ") and message in err


@pytest.mark.parametrize("args", [
    [],
    ["solve"],
    ["solve", "--builtin", "riccati", "--K", "x"],
    ["solve", "--builtin", "riccati", "--bogus", "1"],
    ["check-sector", "--builtin", "riccati", "--format", "xml"],
    ["solve", "--builtin", "riccati", "--eps", "--z", "0.1"],
    ["solve", "--builtin", "riccati", "--out", "-K"],   # not a number: not a value
])
def test_usage_error_exits_operational(capsys, monkeypatch, tmp_path, args):
    # a usage error is an operational error: one line, exit 1
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert not any(tmp_path.iterdir())
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("gevrey-kit: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, option, value, code", [
    ("solve", "--eps", "-0.3,0.1", 0),
    ("solve", "--z", "-1e-3", 0),
    ("solve", "--eps", "-0.5,1e308", 2),   # eps*2 = -1 is resonant, met before the overflow
    ("check-sector", "--theta", "-1e-3", 0),
])
def test_negative_value_after_a_space(tmp_path, command, option, value, code):
    # a value that starts with '-' is read as the option's value, as with '='
    spaced = main([command, "--builtin", "riccati", option, value,
                   "--out", str(tmp_path / "spaced.json")])
    joined = main([command, "--builtin", "riccati", f"{option}={value}",
                   "--out", str(tmp_path / "joined.json")])
    assert spaced == joined == code
    rep = json.loads((tmp_path / "spaced.json").read_text())
    assert (tmp_path / "spaced.json").read_bytes() == (tmp_path / "joined.json").read_bytes()
    got = rep["meta"]["options"][option[2:]]
    assert (got if isinstance(got, list) else [got]) == [float(v) for v in value.split(",")]
    if code == 2:
        assert rep["error"]["code"] == "resonance"
    else:
        assert rep["verdict"] in ("ok", "summable")


@pytest.mark.parametrize("to_file", [True, False])
def test_math_error_report_stays_json_under_csv(tmp_path, capsys, to_file):
    out = tmp_path / "err.csv"
    code = main(["solve", "--builtin", "riccati", "--eps=-0.5", "--format", "csv",
                 *(["--out", str(out)] if to_file else [])])
    assert code == 2
    rep = json.loads(out.read_text() if to_file else capsys.readouterr().out)
    assert (rep["verdict"], rep["error"]["code"]) == ("error", "resonance")


@pytest.mark.parametrize("s, c", [(1e25, 1.0), (1.0, 1e-160), (1.0, 1e160)],
                         ids=["F*1e25", "f*1e-160", "f*1e160"])
def test_reports_scale_with_the_problem(tmp_path, s, c):
    # the built-in F does not depend on eps, so the scaled blocks give
    # eps z f' = s c F(z, f/c), solved by c times the built-in solution at
    # eps/s: the a_i are c s^-i times the built-in ones, the fit's C is c
    # times and its mu 1/s times the built-in fit, and at eps s every value
    # is c times the built-in value
    def run(path, command, *options):
        code, rep = run_json(tmp_path, [command, "--problem", path, "--z", "0.05", *options])
        assert code == 0
        return rep["data"]

    plain = scaled_riccati(tmp_path, 1.0, 1.0)
    scaled = scaled_riccati(tmp_path, s, c)
    want = run(plain, "diagnose", "--I", "12", "--eps", "0.1")
    got = run(scaled, "diagnose", "--I", "12", "--eps", repr(0.1 * s))
    assert got["fit"]["C"] == pytest.approx(c * want["fit"]["C"], rel=1e-12)
    assert got["fit"]["mu"] == pytest.approx(want["fit"]["mu"] / s, rel=1e-12)
    assert [n["norm"] for n in got["norms"]] == pytest.approx(
        [c * n["norm"] / s ** n["i"] for n in want["norms"]], rel=1e-12)
    if s == 1.0:
        # optimal truncation at eps s counts a_i(z) that underflow as
        # vanished terms, so only the f-scalings compare it
        want, got = (run(path, "resum", "--I", "20", "--eps", "0.1")["points"][0]
                     ["optimal_truncation"] for path in (plain, scaled))
        assert got["I_star"] == want["I_star"]
        assert complex(*got["value"][0]) == pytest.approx(c * complex(*want["value"][0]),
                                                          rel=1e-12)


class TestValidateRiccati:
    def test_passes(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["validate-riccati"])
        assert code == 0
        jsonschema.validate(rep, report_schema)
        assert rep["verdict"] == "pass"
        assert all(c["pass"] for c in rep["data"]["checks"])

    def test_csv_form(self, tmp_path):
        out = tmp_path / "val.csv"
        code = main(["validate-riccati", "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().splitlines()[0] == "name,worst,pass"

    def test_wrong_shift_fails(self, tmp_path, monkeypatch):
        # the (1,1) block with the sign the substitution f = ftilde - 1/2
        # does not give must fail the exact identity of the shift
        r = builtin_riccati()
        flipped = ProblemSpec(nu=1, rho=r.rho, rho1=r.rho1, tensors=tuple(
            CoeffTensor(t.n, t.m, -t.entries if (t.n, t.m) == (1, 1) else t.entries)
            for t in r.tensors))
        monkeypatch.setattr("gevrey_kit.problem.builtin_riccati", lambda: flipped)
        code, rep = run_json(tmp_path, ["validate-riccati"])
        assert code == 2
        assert rep["verdict"] == "fail"
        checks = {c["name"]: c for c in rep["data"]["checks"]}
        assert checks["shifted_rhs_identity"]["pass"] is False


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["check-sector", "--builtin", "riccati", "--theta", "0"],
        ["solve", "--builtin", "riccati", "--eps", "0.1,0.2", "--z", "0.01,0.05"],
        ["resum", "--builtin", "riccati", "--eps", "0.1", "--z", "0.05",
         "--I", "12"],
    ])
    def test_byte_identical_reruns(self, tmp_path, args):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_determinism(self, tmp_path):
        args = ["solve", "--builtin", "riccati", "--eps", "0.1", "--z", "0.05",
                "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "eps,z,component,re,im"

    def test_resum_csv_header(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["resum", "--builtin", "riccati", "--eps", "0.1", "--z", "0.05",
              "--I", "10", "--out", str(out), "--format", "csv"])
        assert out.read_text().splitlines()[0] == (
            "eps,z,re,im,quadrature_error_estimate,pole_clearance,reference_error")
