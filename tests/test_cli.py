import json
import math
from importlib import resources

import jsonschema
import pytest

from gevrey_kit import builtin_riccati, problem_to_json
from gevrey_kit.cli import main


@pytest.fixture(scope="module")
def report_schema():
    return json.loads(
        resources.files("gevrey_kit.schemas").joinpath("report.schema.json")
        .read_text())


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


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

    def test_missing_problem_file(self, tmp_path, capsys):
        code = main(["check-sector", "--problem", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSolve:
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

    def test_resonance_error_report(self, tmp_path, report_schema):
        code, rep = run_json(tmp_path, ["solve", "--builtin", "riccati",
                                        "--eps", "-0.5", "--z", "0.05"])
        assert code == 2
        jsonschema.validate(rep, report_schema)
        assert rep["error"]["code"] == "resonance"

    def test_overflow_exits_operational(self, tmp_path, capsys):
        code = main(["solve", "--builtin", "riccati", "--K", "1000"])
        assert code == 1
        assert "error" in capsys.readouterr().err

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


class TestDiagnose:
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
        assert a.read_text().splitlines()[0] == "eps,z,component,re,im,tail_bound"

    def test_resum_csv_header(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["resum", "--builtin", "riccati", "--eps", "0.1", "--z", "0.05",
              "--I", "10", "--out", str(out), "--format", "csv"])
        assert out.read_text().splitlines()[0] == (
            "eps,z,re,im,quadrature_error_estimate,pole_clearance,reference_error")
