"""The benchmark workloads: job lists, oracles and report checks.

A workload turns a seed into a problem (a file, or ``--builtin riccati``),
an oracle f(eps, z) and a list of CLI jobs.  `check_report` decides whether
one job's report passed: nonzero exit, an error report, or any point whose
relative distance from the oracle exceeds the workload's tolerance fails
it.  A failure that matches one of the instance's `known_defects` is a
known defect of the program: it is reported with its reason and lowers the
pass fraction, but does not make the run incorrect.  See WORKLOADS.md for why each workload exists.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gevrey_kit.riccati import shifted_reference

import problems

#: relative error floor, so that an exact match reads as 17 digits
ERR_FLOOR = 1e-17


def fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


@dataclass(frozen=True)
class Job:
    kind: str            # solve | resum | diagnose
    label: str
    argv: tuple[str, ...]


@dataclass
class Instance:
    """One seeded workload: what the CLI receives and what it is checked
    against."""

    source: tuple[str, ...]          # --builtin riccati or --problem FILE
    problem_json: str | None         # written to FILE during set-up
    oracle: Callable[[float, float], np.ndarray]
    jobs: list[Job]
    tol: dict[str, float]
    #: (job label or kind, substring of the failure reason, description)
    known_defects: list[tuple[str, str, str]] = field(default_factory=list)

    def known_defect(self, outcome: "Outcome") -> str | None:
        """Description of the known defect a failed outcome shows, if any."""
        for job, reason, description in self.known_defects:
            if job in (outcome.job.label, outcome.job.kind) and reason in outcome.reason:
                return description
        return None


@dataclass
class Outcome:
    job: Job
    ok: bool
    reason: str
    max_rel_err: float = 0.0


def _vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _rel(value: np.ndarray, exact: np.ndarray) -> float:
    return max(float(np.linalg.norm(value - exact) / np.linalg.norm(exact)), ERR_FLOOR)


def check_report(inst: Instance, job: Job, code: int, report: dict | None) -> Outcome:
    """Compare one report with the instance's oracle."""
    if report is not None and "error" in report:
        return Outcome(job, False, f"exit {code}, error {report['error']['code']}")
    if code != 0 or report is None:
        return Outcome(job, False, f"exit {code}, no report")
    tol = inst.tol[job.kind]
    data = report["data"]
    errs = []   # (rel error, eps, z)
    if job.kind == "solve":
        for block in data["eps_blocks"]:
            if not block["max_ode_residual"] <= inst.tol["ode_residual"]:
                return Outcome(job, False, f"max_ode_residual {block['max_ode_residual']:.3e}"
                                           f" at eps={block['eps']}")
            for pt in block["points"]:
                exact = inst.oracle(block["eps"], pt["z"])
                errs.append((_rel(_vec(pt["value"]), exact), block["eps"], pt["z"]))
    elif job.kind == "resum":
        for pt in data["points"]:
            exact = inst.oracle(pt["eps"], pt["z"])
            errs.append((_rel(_vec(pt["value"]), exact), pt["eps"], pt["z"]))
    elif job.kind == "diagnose":
        fit = data["fit"]
        if not all(math.isfinite(fit[k]) and fit[k] > 0 for k in ("C", "mu")):
            return Outcome(job, False, f"growth fit not positive: {fit}")
        for prof in data["remainder"]:
            # |r_0| is the norm of the solution itself
            exact = float(np.linalg.norm(inst.oracle(prof["eps"], prof["z"])))
            err = max(abs(prof["abs_rI"][0] - exact) / exact, ERR_FLOOR)
            errs.append((err, prof["eps"], prof["z"]))
    worst = max(errs)
    if worst[0] > tol:
        return Outcome(job, False, f"relative error {worst[0]:.3e} > {tol:.0e} "
                                   f"at eps={worst[1]}, z={worst[2]}", worst[0])
    return Outcome(job, True, "ok", worst[0])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

#: a Froissart doublet of the Pade continuation next to the ray; about one
#: resum job in 80 of the seeded workloads meets one
SPURIOUS_POLE = ("resum", "error pole-obstruction",
                 "spurious Pade pole next to the theta=0 ray (pole-obstruction, exit 2)")

RICCATI_EPS = (0.05, 0.1, 0.2, 0.5)
RICCATI_Z = (0.02, 0.05, 0.1, 0.2)


def riccati(seed: int, workdir: Path) -> Instance:
    """Built-in Riccati problem; the seed fixes the order of the jobs."""
    jobs = [Job("resum", f"resum z={z}",
                ("resum", "--I", "30", "--eps", fmt(RICCATI_EPS), "--z", fmt([z])))
            for z in RICCATI_Z]
    jobs.append(Job("diagnose", "diagnose", ("diagnose", "--I", "30")))
    jobs.append(Job("solve", "solve", ("solve", "--K", "60", "--eps", fmt(RICCATI_EPS),
                                       "--z", fmt(RICCATI_Z))))
    order = np.random.default_rng([seed, 1]).permutation(len(jobs))
    return Instance(
        source=("--builtin", "riccati"), problem_json=None,
        oracle=lambda eps, z: np.array([shifted_reference(eps, z)]),
        jobs=[jobs[i] for i in order],
        tol={"solve": 1e-10, "resum": 1e-3, "diagnose": 1e-10, "ode_residual": 1e-10},
        known_defects=[
            ("resum z=0.1", "", "spurious Pade pole on the theta=0 ray (pole-obstruction, exit 2)"),
            ("resum z=0.2", "", "exit 0 with verdict ok, Borel-Laplace value far off the reference"),
        ])


CUBIC3_EPS = (0.05, 0.1, 0.2)
CUBIC3_Z = (0.02, 0.05, 0.1)
#: z-order of the independent series oracle for cubic3
CUBIC3_ORACLE_K = 120


def cubic3(seed: int, workdir: Path) -> Instance:
    p = problems.cubic3(seed, CUBIC3_EPS, 40)

    @functools.cache
    def coeffs(eps):
        return problems.series_oracle(p, eps, CUBIC3_ORACLE_K)

    src = ("--problem", str(workdir / "cubic3.json"))
    jobs = [Job("solve", "solve", ("solve", "--K", "40", "--eps", fmt(CUBIC3_EPS),
                                   "--z", fmt(CUBIC3_Z)))]
    jobs += [Job("resum", f"resum z={z}",
                 ("resum", "--I", "12", "--eps", fmt(CUBIC3_EPS), "--z", fmt([z])))
             for z in CUBIC3_Z]
    jobs.append(Job("diagnose", "diagnose",
                    ("diagnose", "--I", "9", "--eps", "0.1", "--z", "0.05")))
    return Instance(
        source=src, problem_json=problems.to_problem_json(p),
        oracle=lambda eps, z: problems.series_value(coeffs(eps), z),
        jobs=jobs,
        tol={"solve": 1e-10, "resum": 1e-5, "diagnose": 1e-10, "ode_residual": 1e-10},
        known_defects=[SPURIOUS_POLE])


CONJ8_SOLVE_EPS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85, 1.0)
CONJ8_RESUM_EPS = (0.05, 0.1, 0.2, 0.3)
CONJ8_Z = (0.02, 0.05, 0.1)


def conj8(seed: int, workdir: Path) -> Instance:
    c = problems.conj8(seed, CONJ8_SOLVE_EPS, 100)
    src = ("--problem", str(workdir / "conj8.json"))
    jobs = [Job("solve", "solve", ("solve", "--K", "100", "--eps", fmt(CONJ8_SOLVE_EPS),
                                   "--z", fmt(CONJ8_Z)))]
    jobs += [Job("resum", f"resum z={z}",
                 ("resum", "--I", "12", "--eps", fmt(CONJ8_RESUM_EPS), "--z", fmt([z])))
             for z in CONJ8_Z[:2]]
    jobs.append(Job("diagnose", "diagnose",
                    ("diagnose", "--I", "9", "--eps", "0.1", "--z", "0.05")))
    return Instance(
        source=src, problem_json=problems.to_problem_json(c.problem),
        oracle=c.exact, jobs=jobs,
        tol={"solve": 1e-12, "resum": 1e-5, "diagnose": 1e-10, "ode_residual": 1e-10},
        known_defects=[SPURIOUS_POLE])


WORKLOADS = {"riccati": riccati, "cubic3": cubic3, "conj8": conj8}
