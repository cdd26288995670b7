"""Command-line front end.

Subcommands map onto the library layers: `check-sector` (ray condition and
summability verdict), `solve` (fixed-eps z-series values and residuals,
without a tail bound), `resum`
(Borel-Pade-Laplace against the optimal-truncation baseline), `diagnose`
(factorial growth fit and remainder profile), and `validate-riccati`
(closed-form oracle suite).  Reports are JSON by default or CSV tables;
identical inputs produce byte-identical files (no timestamps anywhere), and
output files are written atomically.  Each subcommand returns its verdict,
its data and its CSV tables; `main` alone writes them, and a mathematical
obstruction is reported in JSON whatever the format.

Exit codes, from `_EXIT_CODES`: 0 success or positive verdict, 2 negative
mathematical verdict (not summable, resonance, pole obstruction, validation
failure, a `solve` series that does not satisfy the equation), 1
operational or usage error, with one `gevrey-kit: error:` line on stderr.
Every option takes one value, and a value may be a negative number
(`--eps -0.3,0.1`, `--z -1e-3`); any other value that starts with '-'
needs the '=' form.  A list option (`--eps`, `--z`) needs at least one
number.  `solve` takes `--K` up to `_MAX_K`, and `resum` and `diagnose`
take `--I` up to `_MAX_I`.  `diagnose` takes one `--z`, the point of its
remainder table, and a positive `--sigma`.  A failed allocation is an
operational error.

Start-up: importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS to 1 unless they are already set, before numpy is
imported.  The blocks have at most MAX_DIMENSION = 8 entries per slot, and
a second BLAS thread does not shorten a job; its idle worker only spins
on another core.  A process that imported numpy before this module keeps
its thread pool.  Each subcommand imports only the library layers it runs.
Run as `python -m gevrey_kit.cli`, the module also switches the cyclic
garbage collector off before numpy loads, and freezes every object
(`gc.freeze`) just before `sys.exit`, so that the collection at interpreter
teardown skips them; atexit handlers and stream flushes still run.  The
process runs one job, and the collector would only walk the ~22k
long-lived objects of numpy and the package, 31 times during the imports
and once at teardown: on a 2-vCPU x86_64 host that cost 35-56 ms of a
0.26-0.39 s benchmark job.  A job leaves the same 346 unreachable objects,
its argument parser's, whatever its K or I.  Importing this module, as the
tests and library users do, leaves the importing process's collector as
it was.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from . import __version__
from .errors import GevreyKitError, PoleObstructionError, ResonanceError

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if __name__ == "__main__":
    # a CLI process runs one job and exits: the collector would only walk the
    # long-lived objects of numpy and the package, again and again
    gc.disable()

import numpy as np  # noqa: E402  (OpenBLAS reads the thread count when numpy loads)

#: the errors that are a negative mathematical verdict, with their report codes
_MATH_ERRORS = {ResonanceError: "resonance", PoleObstructionError: "pole-obstruction"}
#: the exit code of each verdict; an operational or usage error exits 1
_EXIT_CODES = {"ok": 0, "summable": 0, "pass": 0, "not-summable": 2,
               "residual-too-large": 2, "fail": 2, "error": 2}
#: `solve` reports a block whose ODE residual exceeds this times
#: max(1, max|f|) as not solved: z outside the disc of convergence, or
#: eps*k near an eigenvalue so that the coefficients blow up
_SOLVE_RESIDUAL_RTOL = 1e-8
#: the largest `solve --K`: the z-recursion takes O(K^2) time, and a run of
#: one eps of a nu = 8 problem with a dense quadratic block that reaches
#: this K takes about 10-13 s and 82 MB (2-core x86_64)
_MAX_K = 10_000
#: the largest `resum` and `diagnose` `--I`: the eps-orders take O(I^3) time
#: and O(I^2) memory, and a `diagnose` on that problem that reaches this I
#: takes about 9-12 s and 300 MB
_MAX_I = 100


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}") from e
    if not values:
        raise argparse.ArgumentTypeError(f"no number in {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for `main` to report, and reads a token that
    starts with '-' and a digit or '.' as a value, so that `--eps -0.3,0.1`
    and `--z -1e-3` work as with '='."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token for a value, not an option, when its private
        # `_negative_number_matcher` matches and no option name looks like a
        # negative number; its own pattern knows only `-3` and `-.5`.
        # tests/test_cli.py pins this on every supported Python.
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
                    help="the one remainder evaluation point")
    sp.add_argument("--I", type=int, default=30)
    sp.add_argument("--sigma", type=float, default=0.05,
                    help="disc radius for the sup norms")

    sp = sub.add_parser("validate-riccati", help="closed-form oracle suite")
    common(sp, need_problem=False)

    return ap


def _load_problem(args):
    from .problem import builtin_riccati, parse_problem

    if getattr(args, "builtin", None):
        return builtin_riccati()
    return parse_problem(Path(args.problem))


def _atomic_write(path: str | Path, data: str) -> None:
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


def _meta(args) -> dict:
    skip = {"command", "out", "format"}
    options = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        options[key] = val
    return {"tool": "gevrey-kit", "version": __version__,
            "command": args.command, "options": options}


def _pyify(obj):
    """Coerce numpy scalars inside a report to plain Python types, and
    non-finite floats, which JSON cannot hold, to None (null)."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands: each returns (verdict, data, tables) and writes nothing;
# tables maps a sidecar suffix ("" for the main table) to (header, rows)
# ---------------------------------------------------------------------------

def _cmd_check_sector(args):
    from .sector import check_siegel, gamma_max, spectrum

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
    rows = [[i, *v, a] for i, (v, a) in enumerate(zip(data["eigenvalues"], data["args"]))]
    return ("summable" if rep.summable else "not-summable", data,
            {"": (["index", "re", "im", "arg"], rows)})


def _cmd_solve(args):
    from .zsolver import evaluate_f, ode_residual_z, solve_coeffs_z

    p = _load_problem(args)
    blocks = []
    verdict = "ok"
    for eps, sol in zip(args.eps, solve_coeffs_z(p, args.eps, args.K)):
        resid = ode_residual_z(p, sol, [z for z in args.z if abs(z) > 0])
        points = []
        f_max = 0.0
        for z, res in zip(args.z, evaluate_f(sol, args.z)):
            # np.max, unlike max, keeps a NaN
            f_max = float(np.max(np.abs(res.value), initial=f_max))
            points.append({
                "z": z,
                "value": [[float(v.real), float(v.imag)] for v in res.value],
            })
        blocks.append({"eps": eps, "max_ode_residual": resid, "points": points})
        # an overflowing value fails, and so does a NaN residual
        if not (math.isfinite(f_max) and resid <= _SOLVE_RESIDUAL_RTOL * max(1.0, f_max)):
            verdict = "residual-too-large"
    rows = [[b["eps"], pt["z"], comp, *v]
            for b in blocks for pt in b["points"] for comp, v in enumerate(pt["value"])]
    return (verdict, {"K": args.K, "eps_blocks": blocks},
            {"": (["eps", "z", "component", "re", "im"], rows)})


def _cmd_resum(args):
    from .borel import borel_transform, laplace_sum, optimal_truncation_sum, pade_continue
    from .epssolver import eps_values_at
    from .riccati import shifted_reference

    p = _load_problem(args)
    L = args.L if args.L is not None else (args.I - 1) // 2
    M = args.M if args.M is not None else args.I - 1 - L
    points = []
    for z in args.z:
        a_vals = eps_values_at(p, z, args.I)
        b = borel_transform(a_vals)
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
    rows = [[pt["eps"], pt["z"], *pt["value"][0], pt["quadrature_error_estimate"],
             pt["pole_clearance"], pt.get("reference_error", "")] for pt in points]
    return ("ok", {"I": args.I, "L": L, "M": M, "theta": args.theta, "points": points},
            {"": (["eps", "z", "re", "im", "quadrature_error_estimate",
                   "pole_clearance", "reference_error"], rows)})


def _cmd_diagnose(args):
    from .epssolver import solve_eps_expansion
    from .gevrey import gevrey_fit, remainder_profile, sup_norm_disc

    p = _load_problem(args)
    if args.I < 9:
        raise ValueError("diagnose needs --I >= 9 for a meaningful fit")
    if args.sigma <= 0:
        raise ValueError(f"--sigma must be positive, got {args.sigma}")
    if len(args.z) != 1:
        raise ValueError(f"diagnose takes one --z, the point of its remainder table, "
                         f"got {len(args.z)}")
    sol = solve_eps_expansion(p, args.I, 2 * args.I + 30)
    norms = [sup_norm_disc(ai, args.sigma) for ai in sol.a]
    fit = gevrey_fit(norms)
    (z0,) = args.z
    profiles = remainder_profile(p, z0, args.eps, args.I)

    data = {
        "sigma": args.sigma,
        "fit": {"C": fit.C, "mu": fit.mu, "r2": fit.r2},
        "norms": [{"i": i, "norm": norm, "log_norm_minus_log_factorial":
                   math.log(norm) - math.lgamma(i + 1.0) if norm > 0 else None}
                  for i, norm in enumerate(norms)],
        "remainder": [{
            "eps": float(prof.eps.real), "z": z0,
            "I_star": prof.I_star,
            "floor": prof.floor,
            "I_star_on_floor": prof.I_star_on_floor,
            "abs_rI": [float(v) for v in prof.abs_r],
        } for prof in profiles],
    }
    return "ok", data, {
        "": (["i", "norm", "log_norm_minus_log_factorial"],
             [list(n.values()) for n in data["norms"]]),
        "_remainder": (["eps", "I", "abs_rI"],
                       [[r["eps"], I, v] for r in data["remainder"]
                        for I, v in enumerate(r["abs_rI"])]),
    }


def _cmd_validate_riccati(args):
    from .epssolver import solve_a0
    from .problem import builtin_riccati
    from .riccati import ode_residual, phi_eps, shifted_reference
    from .zsolver import evaluate_f, solve_coeffs_z

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

    # the shifted right-hand side is the raw one, -1/2 - phi + 2 z phi**2,
    # moved by 1/2
    worst = 0.0
    for e in (0.1, 0.2):
        for zz in (0.02, 0.05):
            phi = phi_eps(e, zz)
            raw = 2 * zz * phi * phi - phi - 0.5
            worst = max(worst, abs(p.eval_F(e, zz, [phi + 0.5])[0] - raw))
    checks.append({"name": "shifted_rhs_identity", "worst": worst, "pass": worst <= 1e-12})

    ok = all(c["pass"] for c in checks)
    return ("pass" if ok else "fail", {"checks": checks},
            {"": (["name", "worst", "pass"], [list(c.values()) for c in checks])})


_DISPATCH = {
    "check-sector": _cmd_check_sector,
    "solve": _cmd_solve,
    "resum": _cmd_resum,
    "diagnose": _cmd_diagnose,
    "validate-riccati": _cmd_validate_riccati,
}


def _check_options(args) -> None:
    """Refuse a nan or inf, which float() takes, in a float option, and an
    order above its bound."""
    for name in ("eps", "z", "theta", "gamma", "sigma"):
        value = getattr(args, name, None)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not math.isfinite(v):
                raise ValueError(f"--{name} must be finite, got {v}")
    for name, bound in (("K", _MAX_K), ("I", _MAX_I)):
        value = getattr(args, name, None)
        if value is not None and value > bound:
            raise ValueError(f"--{name} must be at most {bound}, got {value}")


def main(argv=None) -> int:
    """Run one subcommand and write its report, JSON or under --format csv
    its tables, to --out or to stdout; a sidecar table goes beside --out as
    <stem><suffix><ext>, <ext> the extension of --out or .csv.  Returns the
    exit code of the verdict."""
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        error = {}
        try:
            verdict, data, tables = _DISPATCH[args.command](args)
        except tuple(_MATH_ERRORS) as e:
            verdict, data, tables = "error", {}, {}
            error = {"error": {"code": _MATH_ERRORS[type(e)], "message": str(e)}}
        report = {"meta": _meta(args), "verdict": verdict, "data": data, **error}
        # a mathematical obstruction has no tables: its report stays JSON
        if args.format == "csv" and tables:
            texts = {suffix: _csv_text(*table) for suffix, table in tables.items()}
        else:
            texts = {"": json.dumps(_pyify(report), indent=2, allow_nan=False) + "\n"}
        out = Path(args.out) if args.out else None
        for suffix, text in texts.items():
            if out is None:
                sys.stdout.write(text)
            else:
                _atomic_write(out.with_name(out.stem + suffix + (out.suffix or ".csv"))
                              if suffix else out, text)
        return _EXIT_CODES[verdict]
    except (GevreyKitError, OSError, ValueError, MemoryError) as e:
        # numpy's MemoryError names the array it could not allocate; a bare
        # one has no message
        print(f"gevrey-kit: error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    exit_code = main()
    # the permanent generation is left out of the collection at teardown
    gc.freeze()
    sys.exit(exit_code)
