"""End-to-end benchmark of the gevrey-kit CLI.

    python3 perfbench/run.py --workload riccati|cubic3|conj8 --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.

With ``--trace 0`` the workload's job list runs through the CLI as
subprocesses, one after another with one client (a closed loop), until
``--seconds`` have passed; every report is checked against the workload's
oracle and the end-to-end metrics are printed.  With ``--trace 1`` the same
job list runs in-process through ``gevrey_kit.cli.main``, alternately
untraced and traced, and the per-layer metrics are printed; the traced
reports must be byte-identical to the untraced ones.

Lines starting with ``#`` describe the environment and every job outcome;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
jobs that failed their check and are not known defects of the program;
known defects are run, checked and reported with their reasons, and show
in ``pass_frac``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

#: set-up repetitions whose median is setup_s
N_SETUP = 7
#: fresh-interpreter imports whose median is cli.import_s
N_IMPORT = 3
#: hard limit for one run; a run must end within 180 s
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: loop count of the speed probe
PROBE_LOOPS = 6000
#: probe time that defines the reference CPU speed of the reported times
PROBE_REF_S = 0.05

UNITS = {"setup_s": "s", "batch_s": "s", "solve_s": "s", "resum_s": "s",
         "diagnose_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "accuracy_digits": "digits", "pass_frac": "ratio"}


def say(text: str = "") -> None:
    for line in text.splitlines() or [""]:
        print(f"# {line}", flush=True)


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(extra: dict | None = None) -> dict:
    """The user's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra or {})
    return env


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "nproc": cpus, "machine": platform.machine(),
        "loadavg_start": os.getloadavg(), "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class Deadline:
    def __init__(self, limit: float):
        self.t0 = time.perf_counter()
        self.limit = limit

    def left(self) -> float:
        return self.limit - (time.perf_counter() - self.t0)


def probe() -> float:
    """Time a fixed loop of small numpy operations, like the ones the
    library runs, to sample the current speed of the CPU."""
    import numpy as np

    a = (np.arange(9.0).reshape(3, 3) + 1j) / 9.0
    v = np.ones(3, dtype=np.complex128)
    t0 = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        v = a @ v
        v = v / np.abs(v).max()
        np.convolve(v, v)
    return time.perf_counter() - t0


def run_cli(argv: list[str], out: Path, deadline: Deadline,
            env: dict | None = None) -> tuple[int, dict | None, float]:
    """One CLI subprocess; returns (exit code, parsed report, wall time)."""
    if out.exists():
        out.unlink()
    cmd = [sys.executable, "-m", "gevrey_kit.cli", *argv, "--out", str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env or child_env(), cwd=str(ROOT),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline.left()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = -9
    wall = time.perf_counter() - t0
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, wall


def run_inproc(argv: list[str], out: Path) -> tuple[int, bytes, float]:
    from gevrey_kit import cli

    if out.exists():
        out.unlink()
    t0 = time.perf_counter()
    try:
        code = cli.main([*argv, "--out", str(out)])
    except Exception:
        # an uncaught error is a failed job, as a traceback is in a subprocess
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t0
    return code, (out.read_bytes() if out.exists() else b""), wall


def set_up(name: str, seed: int, workdir: Path, deadline: Deadline, probes: list):
    """Generate the inputs, write the problem file, run the warm-up
    check-sector.  Repeated N_SETUP times, each after a speed probe;
    returns the instance and the median set-up time."""
    from workloads import WORKLOADS

    times = []
    for _ in range(N_SETUP):
        probes.append(probe())
        t0 = time.perf_counter()
        inst = WORKLOADS[name](seed, workdir)
        if inst.problem_json is not None:
            Path(inst.source[1]).write_text(inst.problem_json, encoding="utf-8")
        code, rep, _ = run_cli(["check-sector", *inst.source], workdir / "sector.json",
                               deadline)
        times.append(time.perf_counter() - t0)
        if code != 0 or rep is None or rep["verdict"] != "summable":
            fail_setup(f"warm-up check-sector failed (exit {code})")
    return inst, statistics.median(times)


def describe(inst, outcomes) -> tuple[int, int]:
    """Print one line per distinct job outcome; returns (unexpected
    failures, known-defect failures)."""
    unexpected = known = 0
    seen = set()
    for o in outcomes:
        defect = None if o.ok else inst.known_defect(o)
        if not o.ok:
            if defect:
                known += 1
            else:
                unexpected += 1
        key = (o.job.label, o.ok, o.reason)
        if key in seen:
            continue
        seen.add(key)
        status = "pass" if o.ok else ("FAIL (known defect: " + defect + ")" if defect
                                      else "FAIL")
        say(f"job {o.job.label:<14} {status}: {o.reason}"
            + (f", max rel err {o.max_rel_err:.2e}" if o.ok else ""))
    return unexpected, known


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(inst, setup_s: float, seconds: float, workdir: Path,
               deadline: Deadline, probes: list) -> dict:
    """Closed loop over the job list.

    Times are reported at a reference CPU speed: each is multiplied by
    PROBE_REF_S over the mean of the speed probes taken before every job.
    On a shared 2-vCPU x86_64 host the CPU speed was seen to flip between
    two levels 1.8x apart within seconds, in a mix that drifted by up to
    50% over half an hour; the scaling keeps such drift out of the
    comparison of two runs.  The raw times are printed on a '#' line."""
    from workloads import check_report

    outcomes, batches, cpu = [], [], []
    walls = {"solve": [], "resum": [], "diagnose": []}
    t_start = time.perf_counter()
    while True:
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        probe_s = 0.0
        for n, job in enumerate(inst.jobs):
            probes.append(probe())
            probe_s += probes[-1]
            code, rep, wall = run_cli([*job.argv, *inst.source],
                                      workdir / f"job{n}.json", deadline)
            walls[job.kind].append(wall)
            outcomes.append(check_report(inst, job, code, rep))
        batches.append(time.perf_counter() - t0 - probe_s)
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime)
        if time.perf_counter() - t_start >= seconds or deadline.left() < 2 * batches[-1]:
            break

    unexpected, known = describe(inst, outcomes)
    passed = [o for o in outcomes if o.ok]
    worst = max((o.max_rel_err for o in passed), default=1.0)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n_fail = unexpected + known
    say(f"batches {len(batches)}, jobs {len(outcomes)}, "
        f"failed_frac {n_fail}/{len(outcomes)} = {n_fail / len(outcomes):.4f} "
        f"({known} known defects, {unexpected} unexpected)")
    times = {
        "setup_s": setup_s,
        "batch_s": statistics.median(batches),
        "solve_s": statistics.median(walls["solve"]),
        "resum_s": statistics.median(walls["resum"]),
        "diagnose_s": statistics.median(walls["diagnose"]),
        "cpu_s": statistics.median(cpu),
    }
    probe_s = statistics.fmean(probes)
    scale = PROBE_REF_S / probe_s
    say(f"speed probe: mean {probe_s:.4f} s over {len(probes)} samples, "
        f"times scaled by {scale:.4f}")
    say("raw times: " + ", ".join(f"{k} {v:.4f}" for k, v in times.items()))
    metrics = {k: v * scale for k, v in times.items()}
    metrics.update({
        "peak_rss_mb": peak_kb / 1024.0,
        "accuracy_digits": -math.log10(worst),
        "pass_frac": len(passed) / len(outcomes),
    })
    return {"correct": unexpected == 0, "attempted": len(outcomes), "failed": unexpected,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def import_time(deadline: Deadline) -> float:
    code = ("import time; t = time.perf_counter(); import gevrey_kit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(N_IMPORT):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=str(ROOT),
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline.left()))
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def blas1_ratio(inst, workdir: Path, deadline: Deadline) -> float:
    """Wall of one resum job with BLAS pinned to one thread over its wall
    with the inherited environment."""
    job = next(j for j in inst.jobs if j.kind == "resum")
    argv = [*job.argv, *inst.source]
    pinned = child_env({k: "1" for k in BLAS_THREAD_VARS})
    _, _, free = run_cli(argv, workdir / "blas.json", deadline)
    _, _, one = run_cli(argv, workdir / "blas.json", deadline, env=pinned)
    return one / free


def traced(inst, seconds: float, workdir: Path, deadline: Deadline, trace_file: Path) -> dict:
    from tracer import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import Job, check_report

    # the warm-up check-sector is part of the job list here, so that the
    # set-up layers (parse_problem, spectrum) are traced too
    jobs = [Job("check-sector", "check-sector", ("check-sector",))] + list(inst.jobs)
    solve_n = next(n for n, j in enumerate(jobs) if j.kind == "solve")
    per_batch, tracers, outcomes = [], [], []
    unexpected = mismatched = attempted = 0
    t_start = time.perf_counter()
    while True:
        plain, plain_wall = [], []
        t0 = time.perf_counter()
        for n, job in enumerate(jobs):
            code, data, wall = run_inproc([*job.argv, *inst.source], workdir / f"u{n}.json")
            plain.append(data)
            plain_wall.append(wall)
            if job.kind != "check-sector":
                rep = json.loads(data) if data else None
                outcomes.append(check_report(inst, job, code, rep))
        t_plain = time.perf_counter() - t0

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for n, job in enumerate(jobs):
                tracer.job = f"{len(per_batch)}:{job.label}"
                span = tracer.open("cli.main")
                try:
                    _, data, _ = run_inproc([*job.argv, *inst.source], workdir / f"t{n}.json")
                finally:
                    tracer.close(span)
                if data != plain[n]:
                    mismatched += 1
                    say(f"job {job.label}: traced report differs from the untraced one")
            t_traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        attempted += 2 * len(jobs)

        _, _, sub_wall = run_cli([*jobs[solve_n].argv, *inst.source], workdir / "sub.json",
                                 deadline)
        layer = layer_metrics(tracer.spans, tracer.leaves)
        layer["trace.overhead_frac"] = t_traced / t_plain - 1.0
        layer["cli.startup_s"] = sub_wall - plain_wall[solve_n]
        per_batch.append(layer)
        tracers.append(tracer)
        # stop before an iteration that would end past `seconds`
        per_iteration = (time.perf_counter() - t_start) / len(per_batch)
        if (time.perf_counter() - t_start + per_iteration > seconds
                or deadline.left() < 2.5 * per_iteration):
            break

    unexpected, _ = describe(inst, outcomes)
    metrics = {k: statistics.median(b[k] for b in per_batch) for k in per_batch[0]}
    metrics["cli.import_s"] = import_time(deadline)
    metrics["cli.blas1_wall_ratio"] = blas1_ratio(inst, workdir, deadline)
    say(f"traced batches {len(per_batch)}, byte-identical reports: {mismatched == 0}")

    trace_file.parent.mkdir(exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        for t in tracers:
            t.write(fh)
    return {"correct": unexpected == 0 and mismatched == 0, "attempted": attempted,
            "failed": unexpected + mismatched,
            "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                        for k, v in sorted(metrics.items())}}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["riccati", "conj8", "cubic3"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gevrey_kit" / "cli.py").is_file():
        fail_setup(f"no gevrey_kit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gevrey_kit

    if Path(gevrey_kit.__file__).resolve().parent != (SRC / "gevrey_kit").resolve():
        fail_setup(f"imported gevrey_kit from {gevrey_kit.__file__}, not from {SRC}")

    deadline = Deadline(RUN_LIMIT_S)
    env = environment()
    say(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
        f"trace {args.trace}")
    for key, val in env.items():
        say(f"env {key}: {val}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = []
        inst, setup_s = set_up(args.workload, args.seed, workdir, deadline, probes)
        if args.trace:
            result = traced(inst, args.seconds, workdir, deadline,
                            TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            result = end_to_end(inst, setup_s, args.seconds, workdir, deadline, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    say(f"env loadavg_end: {os.getloadavg()}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
