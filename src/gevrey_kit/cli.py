"""Command-line front end.

Subcommands map onto the library layers: `check-sector` (ray condition and
summability verdict), `solve` (fixed-eps z-series values with residuals and
tail bounds), `resum` (Borel-Pade-Laplace against the optimal-truncation
baseline), `diagnose` (factorial growth fit and remainder profile), and
`validate-riccati` (closed-form oracle suite).  Reports are JSON by default
or CSV tables; identical inputs produce byte-identical files (no timestamps
anywhere), and output files are written atomically.

Exit codes: 0 success or positive verdict, 2 negative mathematical verdict
(not summable, resonance, pole obstruction, validation failure), 1
operational error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .borel import borel_transform, laplace_sum, optimal_truncation_sum, pade_continue
from .epssolver import eps_values_at, solve_a0, solve_eps_expansion
from .errors import (GevreyKitError, PoleObstructionError, ResonanceError,
                     SectorTooWideError)
from .gevrey import gevrey_fit, remainder_profile, sup_norm_disc
from .problem import builtin_riccati, parse_problem
from .riccati import ode_residual, shifted_reference
from .sector import check_siegel, gamma_max, spectrum
from .zsolver import evaluate_f, ode_residual_z, solve_coeffs_z

_MATH_ERRORS = (ResonanceError, PoleObstructionError, SectorTooWideError)


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from e


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gevrey-kit",
        description="solvers, growth certification and 1-summation for "
                    "eps*z*f' = F(eps, z, f)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, need_problem=True):
        if need_problem:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--problem", help="path to a problem JSON file")
            g.add_argument("--builtin", choices=["riccati"],
                           help="use a built-in problem")
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp = sub.add_parser("check-sector", help="ray condition and summability verdict")
    common(sp)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--E", type=float, default=0.1)

    sp = sub.add_parser("solve", help="fixed-eps z-series values and residuals")
    common(sp)
    sp.add_argument("--eps", type=_float_list, default=[0.1])
    sp.add_argument("--z", type=_float_list, default=[0.05])
    sp.add_argument("--K", type=int, default=60)

    sp = sub.add_parser("resum", help="Borel-Pade-Laplace summation")
    common(sp)
    sp.add_argument("--eps", type=_float_list, default=[0.1])
    sp.add_argument("--z", type=_float_list, default=[0.05])
    sp.add_argument("--I", type=int, default=30)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--L", type=int, default=None, help="Pade numerator degree")
    sp.add_argument("--M", type=int, default=None, help="Pade denominator degree")

    sp = sub.add_parser("diagnose", help="factorial growth fit and remainder profile")
    common(sp)
    sp.add_argument("--eps", type=_float_list, default=[0.1])
    sp.add_argument("--z", type=_float_list, default=[0.05],
                    help="first entry is the remainder evaluation point")
    sp.add_argument("--I", type=int, default=30)
    sp.add_argument("--sigma", type=float, default=0.05,
                    help="disc radius for the sup norms")

    sp = sub.add_parser("validate-riccati", help="closed-form oracle suite")
    common(sp, need_problem=False)

    return ap


def _load_problem(args):
    if getattr(args, "builtin", None):
        return builtin_riccati()
    return parse_problem(Path(args.problem))


def _atomic_write(path: str, data: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=".gk-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, str(target))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _meta(args) -> dict:
    skip = {"command", "out", "format"}
    options = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        options[key] = val
    return {"tool": "gevrey-kit", "version": __version__,
            "command": args.command, "options": options}


def _report(args, verdict, data, error=None) -> dict:
    rep = {"meta": _meta(args), "verdict": verdict, "data": data}
    if error is not None:
        rep["error"] = error
    return rep


def _pyify(obj):
    """Coerce numpy scalars inside a report to plain Python types."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _json_text(report: dict) -> str:
    return json.dumps(_pyify(report), indent=2, sort_keys=False) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check_sector(args) -> int:
    p = _load_problem(args)
    eigs = spectrum(p.a01(0.0))
    rep = gamma_max(eigs, args.theta)
    data = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in eigs],
        "args": [float(a) for a in rep.args],
        "theta": args.theta,
        "gamma_max": rep.gamma_max,
        "summable": rep.summable,
    }
    if args.gamma is not None:
        chk = check_siegel(eigs, args.theta, args.gamma)
        data["gamma"] = args.gamma
        data["siegel_ok"] = chk.ok
        data["margins"] = [float(m) for m in chk.margins]
    verdict = "summable" if rep.summable else "not-summable"
    if args.format == "csv":
        rows = [[i, float(v.real), float(v.imag), float(a)]
                for i, (v, a) in enumerate(zip(eigs, rep.args))]
        _emit(args, _csv_text(["index", "re", "im", "arg"], rows))
    else:
        _emit(args, _json_text(_report(args, verdict, data)))
    return 0 if rep.summable else 2


def _cmd_solve(args) -> int:
    p = _load_problem(args)
    rows = []
    blocks = []
    for eps in args.eps:
        sol = solve_coeffs_z(p, eps, args.K)
        resid = ode_residual_z(p, sol, [z for z in args.z if abs(z) > 0])
        points = []
        for z in args.z:
            res = evaluate_f(sol, z)
            for comp in range(p.nu):
                v = res.value[comp]
                rows.append([eps, z, comp, float(v.real), float(v.imag),
                             res.tail_bound if res.tail_valid else ""])
            points.append({
                "z": z,
                "value": [[float(v.real), float(v.imag)] for v in res.value],
                "tail_bound": res.tail_bound,
                "tail_valid": res.tail_valid,
            })
        blocks.append({"eps": eps, "max_ode_residual": resid, "points": points})
    data = {"K": args.K, "eps_blocks": blocks}
    if args.format == "csv":
        _emit(args, _csv_text(["eps", "z", "component", "re", "im", "tail_bound"], rows))
    else:
        _emit(args, _json_text(_report(args, "ok", data)))
    return 0


def _cmd_resum(args) -> int:
    p = _load_problem(args)
    L = args.L if args.L is not None else (args.I - 1) // 2
    M = args.M if args.M is not None else args.I - 1 - L
    rows, points = [], []
    for z in args.z:
        a_vals = eps_values_at(p, z, args.I)
        b = borel_transform(a_vals, z=z)
        pade = pade_continue(b, L, M)
        for eps in args.eps:
            rep = laplace_sum(b, pade, eps, theta=args.theta)
            base = optimal_truncation_sum(a_vals, eps)
            entry = {
                "eps": eps, "z": z,
                "value": [[float(v.real), float(v.imag)] for v in rep.value],
                "quadrature_error_estimate": rep.quadrature_error_estimate,
                "pole_clearance": rep.pole_clearance,
                "pade_orders": [list(o) for o in pade.orders],
                "optimal_truncation": {
                    "value": [[float(v.real), float(v.imag)] for v in base.value],
                    "I_star": base.I_star,
                },
            }
            if getattr(args, "builtin", None) == "riccati" and args.theta == 0.0 \
                    and z > 0 and 0 < eps <= 2:
                ref = shifted_reference(eps, z)
                entry["reference_error"] = float(abs(rep.value[0] - ref))
                entry["optimal_truncation"]["reference_error"] = float(
                    abs(base.value[0] - ref))
            points.append(entry)
            rows.append([eps, z, float(rep.value[0].real), float(rep.value[0].imag),
                         rep.quadrature_error_estimate, rep.pole_clearance,
                         entry.get("reference_error", "")])
    data = {"I": args.I, "L": L, "M": M, "theta": args.theta, "points": points}
    if args.format == "csv":
        _emit(args, _csv_text(
            ["eps", "z", "re", "im", "quadrature_error_estimate",
             "pole_clearance", "reference_error"], rows))
    else:
        _emit(args, _json_text(_report(args, "ok", data)))
    return 0


def _cmd_diagnose(args) -> int:
    p = _load_problem(args)
    if args.I < 9:
        raise ValueError("diagnose needs --I >= 9 for a meaningful fit")
    sol = solve_eps_expansion(p, args.I, 2 * args.I + 30)
    norms = [sup_norm_disc(ai, args.sigma) for ai in sol.a]
    fit = gevrey_fit(norms, i_start=0, fit_min=3)
    z0 = args.z[0]
    profiles = remainder_profile(p, z0, args.eps, args.I)

    norm_rows = [[i, norms[i],
                  math.log(norms[i]) - math.lgamma(i + 1.0) if norms[i] > 0 else ""]
                 for i in range(len(norms))]
    rem_rows = []
    for prof in profiles:
        for I, val in enumerate(prof.abs_r):
            rem_rows.append([float(prof.eps.real), I, val])

    data = {
        "sigma": args.sigma,
        "fit": {"C": fit.C, "mu": fit.mu, "r2": fit.r2},
        "norms": [{"i": r[0], "norm": r[1], "log_norm_minus_log_factorial": r[2]}
                  for r in norm_rows],
        "remainder": [{
            "eps": float(prof.eps.real), "z": z0,
            "I_star": prof.I_star,
            "floor": prof.floor,
            "I_star_on_floor": prof.I_star_on_floor,
            "abs_rI": [float(v) for v in prof.abs_r],
        } for prof in profiles],
    }
    if args.format == "csv":
        _emit(args, _csv_text(["i", "norm", "log_norm_minus_log_factorial"], norm_rows))
        if args.out:
            stem = Path(args.out)
            side = stem.with_name(stem.stem + "_remainder" + (stem.suffix or ".csv"))
            _atomic_write(str(side), _csv_text(["eps", "I", "abs_rI"], rem_rows))
        else:
            sys.stdout.write(_csv_text(["eps", "I", "abs_rI"], rem_rows))
    else:
        _emit(args, _json_text(_report(args, "ok", data)))
    return 0


def _cmd_validate_riccati(args) -> int:
    p = builtin_riccati()
    checks = []

    # expansion of the eps -> 0 limit against the closed form
    a0 = solve_a0(p, 25)
    worst = 0.0
    for k in range(1, 26):
        binom = math.prod((0.5 - j) / (j + 1.0) for j in range(k + 1))
        exact = -binom * 4.0**k
        got = a0.coeff_vec(k)[0].real
        worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    checks.append({"name": "a0_closed_form_25", "worst": worst, "pass": worst <= 1e-12})

    # fixed-eps series against the continued-fraction reference
    sol = solve_coeffs_z(p, 0.1, 60)
    got = evaluate_f(sol, 0.05).value[0]
    ref = shifted_reference(0.1, 0.05)
    err = abs(got - ref)
    checks.append({"name": "series_vs_reference", "worst": err, "pass": err <= 1e-8})

    # reference self-check: the defining equation
    worst = max(ode_residual(e, zz) for e in (0.05, 0.1, 0.2, 0.5)
                for zz in (0.01, 0.05, 0.1, 0.5, 1.0))
    checks.append({"name": "reference_ode_residual", "worst": worst, "pass": worst <= 1e-9})

    # the shifted right-hand side accepts the shifted reference
    worst = 0.0
    for e in (0.1, 0.2):
        for zz in (0.02, 0.05):
            h = 1e-6
            fm = shifted_reference(e, zz - h)
            fp = shifted_reference(e, zz + h)
            fv = shifted_reference(e, zz)
            dphi = (fp - fm) / (2 * h)
            resid = abs(e * zz * dphi - p.eval_F(e, zz, np.array([fv]))[0])
            worst = max(worst, resid)
    checks.append({"name": "shifted_rhs_identity", "worst": worst, "pass": worst <= 1e-6})

    ok = all(c["pass"] for c in checks)
    data = {"checks": checks}
    if args.format == "csv":
        rows = [[c["name"], c["worst"], c["pass"]] for c in checks]
        _emit(args, _csv_text(["name", "worst", "pass"], rows))
    else:
        _emit(args, _json_text(_report(args, "pass" if ok else "fail", data)))
    return 0 if ok else 2


_DISPATCH = {
    "check-sector": _cmd_check_sector,
    "solve": _cmd_solve,
    "resum": _cmd_resum,
    "diagnose": _cmd_diagnose,
    "validate-riccati": _cmd_validate_riccati,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except _MATH_ERRORS as e:
        code = {
            ResonanceError: "resonance",
            PoleObstructionError: "pole-obstruction",
            SectorTooWideError: "sector-too-wide",
        }[type(e)]
        report = _report(args, "error", {}, error={"code": code, "message": str(e)})
        _emit(args, _json_text(report))
        return 2
    except (GevreyKitError, OSError, ValueError) as e:
        print(f"gevrey-kit: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
