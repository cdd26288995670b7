"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gevrey_kit.cli import main as cli_main  # noqa: E402
from gevrey_kit.zsolver import evaluate_f, solve_coeffs_z  # noqa: E402

import problems  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, Outcome, check_report  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("make", [
    lambda s: problems.cubic3(s, workloads.CUBIC3_EPS, 40),
    lambda s: problems.conj8(s, workloads.CONJ8_SOLVE_EPS, 100).problem,
])
def test_generators_are_deterministic_per_seed(make):
    first, again, other = (problems.to_problem_json(make(s)) for s in (4, 4, 5))
    assert first == again
    assert first != other


@pytest.mark.parametrize("seed", [2, 3])
def test_conj8_oracle_matches_the_z_solver(seed):
    c = problems.conj8(seed, workloads.CONJ8_SOLVE_EPS, 100)
    for eps in (0.05, 0.3, 1.0):
        sol = solve_coeffs_z(c.problem, eps, 100)
        for z in workloads.CONJ8_Z:
            exact = c.exact(eps, z)
            err = np.linalg.norm(evaluate_f(sol, z).value - exact) / np.linalg.norm(exact)
            assert err <= 1e-12


def test_cubic3_oracle_matches_the_z_solver():
    p = problems.cubic3(1, workloads.CUBIC3_EPS, 40)
    coeffs = problems.series_oracle(p, 0.1, 40)
    sol = solve_coeffs_z(p, 0.1, 40)
    scale = np.abs(coeffs).max()
    assert np.abs(sol.coeffs.T - coeffs[:, 1:]).max() <= 1e-12 * scale


def _solve_report(tmp_path, inst, argv):
    out = tmp_path / "rep.json"
    code = cli_main([*argv, *inst.source, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_perturbed_report_value_is_flagged(tmp_path):
    inst = workloads.conj8(2, tmp_path)
    Path(inst.source[1]).write_text(inst.problem_json)
    job = Job("solve", "solve", ("solve", "--K", "60", "--eps", "0.1", "--z", "0.02,0.05"))
    code, rep = _solve_report(tmp_path, inst, job.argv)
    assert check_report(inst, job, code, rep).ok

    bad = copy.deepcopy(rep)
    bad["data"]["eps_blocks"][0]["points"][1]["value"][3][0] *= 1 + 1e-9
    outcome = check_report(inst, job, code, bad)
    assert not outcome.ok
    assert "relative error" in outcome.reason and "z=0.05" in outcome.reason


def test_error_report_and_exit_code_are_failures(tmp_path):
    inst = workloads.riccati(1, tmp_path)
    job = next(j for j in inst.jobs if j.label == "resum z=0.02")
    report = {"meta": {}, "verdict": "error", "data": {},
              "error": {"code": "pole-obstruction", "message": ""}}
    outcome = check_report(inst, job, 2, report)
    assert outcome.reason == "exit 2, error pole-obstruction"
    assert inst.known_defect(outcome) is None
    assert not check_report(inst, job, 1, None).ok


def test_known_defects_match_job_and_reason(tmp_path):
    riccati = workloads.riccati(1, tmp_path)
    z01 = next(j for j in riccati.jobs if j.label == "resum z=0.1")
    assert riccati.known_defect(Outcome(z01, False, "exit 2, error pole-obstruction"))

    conj8 = workloads.conj8(2, tmp_path)
    resum, solve = conj8.jobs[1], conj8.jobs[0]
    assert conj8.known_defect(Outcome(resum, False, "exit 2, error pole-obstruction"))
    assert conj8.known_defect(Outcome(resum, False, "relative error 1e-3 > 1e-05")) is None
    assert conj8.known_defect(Outcome(solve, False, "exit 2, error pole-obstruction")) is None


def test_benchmark_file_follows_its_format():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert set(w["name"] for w in BENCH["workloads"]) <= set(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def _tiny_riccati(seed, workdir):
    """The riccati workload with small orders, so a run takes seconds."""
    inst = workloads.riccati(seed, workdir)
    grid = ("--eps", "0.05,0.1", "--z", "0.05")
    inst.jobs = [Job("resum", "resum z=0.05", ("resum", "--I", "10", *grid)),
                 Job("diagnose", "diagnose", ("diagnose", "--I", "9")),
                 Job("solve", "solve", ("solve", "--K", "20", *grid))]
    return inst


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(monkeypatch, capsys, trace, section):
    monkeypatch.setitem(workloads.WORKLOADS, "riccati", _tiny_riccati)
    assert run.main(["--workload", "riccati", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
