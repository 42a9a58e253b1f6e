#!/usr/bin/env python3
"""pqlab benchmark: one workload of ``pqlab solve|check|validate`` commands.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``pqlab`` from
``src/``.  The commands run in process through ``pqlab.cli.main``, one at a
time (a closed loop, one client), over the fixed configs in
``perfbench/configs/<workload>/``, each with ``--seed <seed>``.

A run first times set-up in fresh interpreters, then makes one warm-up pass
over the workload's commands and repeats passes for ``--seconds``, starting
none that would end after the window.  Every command's output is checked
after its pass, outside the timed region.  A failed command (nonzero exit, a condition row that is not
``pass``, a failed estimate report, an exception) is counted and named, never
fatal.  ``correct`` is false when an output cannot be verified: it is
missing or malformed, a field breaks its boundary data, the p = 2 solve is
off the direct sparse solve, or a command's output changes between passes.

End-to-end metrics (``--trace 0``): ``wall_s`` and ``cpu_s`` are the median
wall and process CPU seconds of a timed pass, ``setup_s`` the median of the
set-up samples and ``peak_rss_mb`` the peak resident memory of the process.  ``fail_ratio`` (failed over attempted
commands) is the ``failed``/``attempted`` pair of the result line.

With ``--trace 1`` the passes alternate between untraced and traced, and the
per-layer metrics are the medians over the traced passes (see tracing.py).
The tracing overhead is the median wall difference of a traced pass and the
untraced pass before it.

The last line of stdout is the JSON result.  The full record (environment,
every pass, failures, deterministic counts) is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` and the spans of a
traced run to ``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH))
from tracing import PER_LAYER, Tracer, layer_metrics, median_metrics  # noqa: E402

WORKLOADS = {
    "solve-ladder": ("solve", ("dp65", "dp129", "plap129", "exp129", "vdeg65", "p2oracle129")),
    "check-catalog": ("check", (
        "p_laplacian", "double_phase", "multi_phase", "exponential",
        "px_laplacian", "log_px_laplacian", "very_degenerate", "anisotropic",
    )),
    "validate-sweep": ("validate", ("dp_amplitudes", "exp_amplitudes", "px_radii")),
}
SOLVE_CASES = WORKLOADS["solve-ladder"][1] + WORKLOADS["validate-sweep"][1]

# The p = 2 energy is quadratic, so the direct sparse solve of its normal
# equations is the exact discrete minimizer.  At the gradient tolerance of
# that config the nodal gap is far below this bound.
ORACLE_CASE = "p2oracle129"
ORACLE_TOL = 1e-6

CHECK_ROWS = ("ellipticity-sandwich", "growth-A", "11M", "12M", "A3", "alpha-bound", "beta-bound")
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cli():
    """pqlab.cli from this checkout's src/; exits nonzero, printing no result, without it."""
    if not (SRC / "pqlab" / "cli.py").is_file():
        sys.exit(f"error: no pqlab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import pqlab.cli

    if Path(pqlab.cli.__file__).resolve().parent != SRC / "pqlab":
        sys.exit(f"error: imported pqlab from {pqlab.cli.__file__}, not from {SRC}")
    return pqlab.cli


# --- environment ---------------------------------------------------------------


def _openblas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        version = "unknown"
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return version, threads


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy as np
    import scipy

    version, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


# --- set-up --------------------------------------------------------------------


def time_setup(configs):
    """Wall seconds of fresh interpreters that import pqlab.cli and build every config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), *map(str, configs)]
    samples = []
    for i in range(SETUP_REPEATS + 1):  # the first one only fills the bytecode cache
        t0 = perf_counter()
        # no timeout: with one, Popen.wait polls and rounds the time to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            samples.append(perf_counter() - t0)
    return samples


# --- commands and their checks ---------------------------------------------------


@dataclass
class Outcome:
    case: str
    rc: int | None
    stdout: str
    wall: float
    cpu: float
    error: str | None = None


def run_command(main, command, cfg, seed, out_dir, case):
    argv = [command, str(cfg), "--seed", str(seed), "--out", str(out_dir)]
    buf = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0, c0 = perf_counter(), process_time()
        try:
            rc = main(argv)
        except Exception:  # a crashing command is a counted failure, not the end of the run
            error = traceback.format_exc()
        wall, cpu = perf_counter() - t0, process_time() - c0
    return Outcome(case, rc, buf.getvalue(), wall, cpu, error)


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


def check_solve(o, cfg_path, out_dir, keep):
    """(failure, problems); the loaded field goes to ``keep`` for the oracle case."""
    from pqlab.config import build_boundary, build_grid_spec, load_config, build_solver_options
    from pqlab.solver import Grid, load_field

    import numpy as np

    f = _fields(o.stdout)
    missing = [k for k in ("iterations", "final_energy", "gradient_norm", "converged") if k not in f]
    if missing:
        return None, [f"{o.case}: solve output lacks {', '.join(missing)}"]
    problems = []
    cfg = load_config(cfg_path)
    side, n, x0, y0 = build_grid_spec(cfg)
    grid = Grid(side, n, build_boundary(cfg), x0, y0)
    u = load_field(out_dir / f"{cfg_path.stem}.field.txt").values
    mask = grid.boundary_mask()
    if u.shape != (n, n) or not np.all(np.isfinite(u)):
        problems.append(f"{o.case}: field is not a finite {n}x{n} array")
    elif not np.allclose(u[mask], grid.boundary_values()[mask], rtol=0, atol=1e-12):
        problems.append(f"{o.case}: field breaks its boundary data")
    if not np.isfinite(float(f["final_energy"])):
        problems.append(f"{o.case}: final energy {f['final_energy']}")
    if o.case == ORACLE_CASE:
        keep.append((grid, u))
    failure = None
    if o.rc != 0:
        tol = build_solver_options(cfg).tolerance
        warn = [ln[len("warning: "):] for ln in o.stdout.splitlines() if ln.startswith("warning: ")]
        failure = (
            f"{o.case}: exit {o.rc}, converged = {f['converged']}, gradient norm "
            f"{f['gradient_norm']} against tolerance {tol:g}"
            + (f" ({'; '.join(warn)})" if warn else "")
        )
    return failure, problems


def check_check(o):
    rows = {}
    for line in o.stdout.splitlines():
        tok = line.split()
        if tok and tok[0] in CHECK_ROWS:
            rows[tok[0]] = tok[1:4]
    missing = [r for r in CHECK_ROWS if r not in rows]
    if missing:
        return None, [f"{o.case}: check table lacks {', '.join(missing)}"]
    bad = [f"{r} {v} (worst ratio {ratio} at t = {t})"
           for r, (v, ratio, t) in rows.items() if v != "pass"]
    if o.rc != 0 or bad:
        return f"{o.case}: exit {o.rc}, " + ", ".join(bad or ["no failing row"]), []
    return None, []


def check_validate(o):
    flags = [ln for ln in o.stdout.splitlines() if ln.startswith(("pass flags:", "flags:"))]
    if not flags:
        return None, [f"{o.case}: validate output has no flags line"]
    states = dict(tok.split("=", 1) for tok in flags[-1].split(":", 1)[1].split())
    bad = [f"{k}={v}" for k, v in states.items() if v != "ok"]
    if o.rc != 0 or bad:
        return f"{o.case}: exit {o.rc}, " + ", ".join(bad or ["all flags ok"]), []
    return None, []


def check_outcome(o, command, cfg_path, out_dir, keep):
    if o.error is not None:
        last = o.error.strip().splitlines()[-1]
        return f"{o.case}: raised {last}", [f"{o.case}: no output to check (raised {last})"]
    if command == "solve":
        return check_solve(o, cfg_path, out_dir, keep)
    if command == "check":
        return check_check(o)
    return check_validate(o)


# --- the run -----------------------------------------------------------------------


@dataclass
class Pass:
    outcomes: list
    traced: bool
    layers: dict | None = None

    @property
    def wall(self):
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self):
        return sum(o.cpu for o in self.outcomes)


def run_pass(cli, command, cfg_dir, cases, seed, work, traced, span_log):
    main = cli.main
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    outcomes = []
    try:
        for case in cases:
            cfg = cfg_dir / f"{case}.cfg"
            if tracer is not None:
                tracer.case = case
                fn = tracer.wrap("cli.main", main)
            else:
                fn = main
            outcomes.append(run_command(fn, command, cfg, seed, work / case, case))
    finally:
        if tracer is not None:
            tracer.uninstall()
    p = Pass(outcomes, traced)
    if tracer is not None:
        p.layers = layer_metrics(tracer.spans, command, SOLVE_CASES)
        p.layers["trace.wall_s"] = p.wall
        span_log.append(tracer.spans)
    return p


def oracle_errors(fields):
    """Largest nodal gap of each stored p = 2 field from the direct sparse solve."""
    import numpy as np
    from pqlab.solver import harmonic_direct_solve

    if not fields:
        return []
    exact = harmonic_direct_solve(fields[0][0]).values
    return [float(np.max(np.abs(u - exact))) for _grid, u in fields]


def run_all(args):
    """Every workload in turn, each in a fresh interpreter; nonzero if any run fails."""
    rc = 0
    for workload in WORKLOADS:
        rc |= subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
    return rc


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    command, cases = WORKLOADS[args.workload]
    cfg_dir = BENCH / "configs" / args.workload
    configs = [cfg_dir / f"{c}.cfg" for c in cases]
    absent = [str(c) for c in configs if not c.is_file()]
    if absent:
        sys.exit(f"error: missing configs: {', '.join(absent)}")
    cli = import_cli()
    env = environment()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    setup = time_setup(configs)

    failures, problems, fields, span_log = [], [], [], []
    first_stdout = {}
    attempted = failed = 0

    def account(p):
        nonlocal attempted, failed
        for o in p.outcomes:
            attempted += 1
            failure, bad = check_outcome(o, command, cfg_dir / f"{o.case}.cfg", work / o.case, fields)
            if failure is not None:
                failed += 1
                if failure not in failures:
                    failures.append(failure)
            problems.extend(b for b in bad if b not in problems)
            ref = first_stdout.setdefault(o.case, o.stdout)
            if o.stdout != ref:
                msg = f"{o.case}: output changed between passes"
                if msg not in problems:
                    problems.append(msg)

    try:
        account(run_pass(cli, command, cfg_dir, cases, args.seed, work, False, span_log))  # warm-up
        passes = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            p = run_pass(cli, command, cfg_dir, cases, args.seed, work, traced, span_log)
            account(p)
            passes.append(p)
            # stop before a pass that would overrun the window, so that the
            # length of a run does not depend on the speed of the machine
            elapsed = perf_counter() - start
            complete = len({q.traced for q in passes}) == 1 + args.trace
            if complete and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errs = oracle_errors(fields)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    oracle_max_err = max(errs) if errs else None
    if oracle_max_err is not None and not oracle_max_err <= ORACLE_TOL:
        problems.append(f"{ORACLE_CASE}: nodal gap {oracle_max_err:.3g} from the direct solve "
                        f"exceeds {ORACLE_TOL:g}")

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    counts = {"iterations": {}}
    for o in passes[-1].outcomes:
        it = _fields(o.stdout).get("iterations")
        if it is not None and it.isdigit():
            counts["iterations"][o.case] = int(it)
    if oracle_max_err is not None:
        counts["oracle_max_err"] = oracle_max_err

    if args.trace:
        layers = median_metrics([p.layers for p in traced])
        layers["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
        # each traced pass against the untraced pass just before it, so that
        # the machine's drift in speed over the run cancels
        layers["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for u, t in zip(passes[::2], passes[1::2]))
        layers["solver.oracle_max_err"] = oracle_max_err or 0.0
        exact = ("solver.iterations", "solver.objective_evals", "growth.quad_calls")
        for key in exact:
            if len({p.layers[key] for p in traced}) > 1:
                problems.append(f"{key} differs between traced passes")
            counts[key] = traced[0].layers[key]
        metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _better) in PER_LAYER.items()}
        metrics.update({f"solver.iterations.{c}": {"value": layers[f"solver.iterations.{c}"], "unit": "count"}
                        for c in SOLVE_CASES})
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in plain),
            "cpu_s": statistics.median(p.cpu for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "problems": problems,
        "setup_samples_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                    "per_command_s": {o.case: o.wall for o in p.outcomes}} for p in passes],
        "counts": counts,
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}"
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if span_log:
        with open(OUT / f"{tag}.spans.jsonl", "w") as fh:
            for i, spans in enumerate(span_log):
                for sid, (name, start, end, parent, case, attrs) in enumerate(spans):
                    fh.write(json.dumps({"pass": i, "id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent, "case": case,
                                         "attrs": attrs}) + "\n")

    print(f"workload {args.workload}: {len(cases)} `pqlab {command}` commands, seed {args.seed}, "
          f"{len(plain)} untraced and {len(traced)} traced passes after one warm-up")
    print("environment: " + json.dumps(env))
    for k, m in metrics.items():
        print(f"  {k:<34} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<34} {failed / attempted:<14.6g} 1 ({failed} of {attempted} commands failed)")
    if args.trace:
        print(f"  self times sum to {layers['trace.self_sum_s']:.6g} s of the traced wall "
              f"{layers['trace.wall_s']:.6g} s; tracing overhead {layers['trace.overhead_s']:.6g} s")
    if oracle_max_err is not None:
        print(f"  {'oracle_max_err':<34} {oracle_max_err:<14.6g} 1 (bound {ORACLE_TOL:g})")
    print(f"  counts: {json.dumps(counts)}")
    for f in failures:
        print(f"  FAILED {f}")
    for b in problems:
        print(f"  INCORRECT {b}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
