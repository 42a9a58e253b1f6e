"""Batch front end: check | params | solve | validate.

Exit codes: 0 ok, 1 usage/parse error, 2 condition or estimate failure,
3 inconclusive verdicts, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .config import (
    ConfigError,
    build_ball,
    build_boundary,
    build_family,
    build_grid_spec,
    build_solver_options,
    build_sweep,
    load_config,
    resolve_schedule,
)
from .exponents import DEFAULT_K, MU_UNBOUNDED, is_rejected, lambda_sequence
from .growth import ConditionReport, SampleSpec, paper_triple, run_all_checks
from .integrand import Ball, SaturationError
from .solver import Grid, SolveOptions, minimize, save_field
from .validator import (
    ProblemTemplate,
    ThetaOscillationError,
    format_constant,
    oscillation_radius,
    radius_sweep,
    sweep_amplitudes,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_NONCONVERGED = 4


def _fmt(v) -> str:
    if v is None:
        return "-"
    if v == MU_UNBOUNDED:
        return "unbounded"
    if isinstance(v, Fraction):
        return f"{v} ({float(v):.8g})" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _emit(text: str, out_dir, name: str):
    print(text)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text + "\n")


def exit_code_from_reports(reports) -> int:
    """0 iff all pass; 2 if any fail; 3 if any inconclusive (fail wins)."""
    verdicts = {r.verdict for r in reports}
    if "fail" in verdicts:
        return EXIT_FAIL
    if "inconclusive" in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _triple_or_report(family, ball):
    """The family's growth triple on the ball, or None after printing why
    ``paper_triple`` declined it."""
    try:
        return paper_triple(family, ball)
    except ValueError as exc:
        print(f"growth triple rejected: {exc}")
        return None


def cmd_check(cfg_path: str, seed: int, out_dir, tolerance) -> int:
    cfg = load_config(cfg_path)
    family = build_family(cfg)
    (cx, cy), rho, R = build_ball(cfg)
    ball = Ball(cx, cy, R)
    params = resolve_schedule(cfg, family, ball)
    if is_rejected(params):
        print(f"parameter recipe rejected: {params.describe()}")
        return EXIT_FAIL
    params = params.params
    triple = _triple_or_report(family, ball)
    if triple is None:
        return EXIT_FAIL
    spec = SampleSpec(ball=ball, seed=seed)
    reports = run_all_checks(family, triple, params, spec)
    lines = [ConditionReport.header()]
    lines += [r.row() for r in reports]
    _emit("\n".join(lines), out_dir, "check_report.txt")
    return exit_code_from_reports(reports)


def cmd_params(cfg_path: str, seed: int, out_dir, tolerance) -> int:
    cfg = load_config(cfg_path)
    family = build_family(cfg)
    (cx, cy), rho, R = build_ball(cfg)
    ball = Ball(cx, cy, R)
    resolved = resolve_schedule(cfg, family, ball)
    if is_rejected(resolved):
        print(f"rejected: {resolved.describe()}")
        return EXIT_FAIL
    sched = resolved.schedule
    rows = sched.rows() if sched is not None else resolved.params.rows()
    lines = [f"{key:<12} = {_fmt(val)}" for key, val in rows]
    if sched is None:
        p = resolved.params
        for k, lam in enumerate(lambda_sequence(p, cfg.get_int('schedule', 'K', default=DEFAULT_K)), 1):
            lines.append(f"{f'lambda_{k}':<12} = {_fmt(lam)}")
        lines.append(f"note: iteration exponents degenerate ({resolved.degenerate_reason})")
    _emit("\n".join(lines), out_dir, "schedule.txt")
    return EXIT_OK


def _build_problem(cfg, tolerance):
    family = build_family(cfg)
    side, n, x0, y0 = build_grid_spec(cfg)
    boundary = build_boundary(cfg)
    opts = build_solver_options(cfg, tolerance_override=tolerance)
    return family, Grid(side, n, boundary, x0, y0), opts


def cmd_solve(cfg_path: str, seed: int, out_dir, tolerance) -> int:
    cfg = load_config(cfg_path)
    family, grid, opts = _build_problem(cfg, tolerance)
    try:
        u, trace = minimize(grid, family, opts=opts)
    except SaturationError as exc:
        print(f"solve failed: {exc}")
        return EXIT_FAIL
    except ValueError as exc:  # non-finite boundary data
        print(f"error: {exc}")
        return EXIT_USAGE
    for w in trace.warnings:
        print(f"warning: {w}")
    out = Path(out_dir) if out_dir is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    field_path = out / (Path(cfg_path).stem + ".field.txt")
    save_field(field_path, u, family_id=family.describe())
    print(f"iterations    = {trace.iterations}")
    print(f"final_energy  = {trace.final_energy:.12g}")
    print(f"gradient_norm = {trace.final_grad_norm:.6g}")
    print(f"converged     = {trace.converged}")
    print(f"field written to {field_path}")
    return EXIT_OK if trace.converged else EXIT_NONCONVERGED


def cmd_validate(cfg_path: str, seed: int, out_dir, tolerance) -> int:
    cfg = load_config(cfg_path)
    family, grid, opts = _build_problem(cfg, tolerance)
    amps, pairs = build_sweep(cfg)
    (cx, cy), rho, R = build_ball(cfg)
    ball = Ball(cx, cy, R)
    resolved = resolve_schedule(cfg, family, ball)
    if is_rejected(resolved):
        print(f"rejected: {resolved.describe()}")
        return EXIT_FAIL
    if resolved.schedule is None:
        print(f"schedule degenerate: {resolved.degenerate_reason}")
        return EXIT_FAIL
    if _triple_or_report(family, ball) is None:
        return EXIT_FAIL
    sched = resolved.schedule
    r0 = oscillation_radius(family, ball, sched.params.theta)
    if r0 is not None and R > r0:
        print(
            f"note: R = {R:g} exceeds the sufficient oscillation radius "
            f"R0 = {r0:.6g}; the empirical theta check below is binding"
        )
    tpl = ProblemTemplate(family=family, grid=grid, opts=opts)
    try:
        if amps is not None:
            report = sweep_amplitudes(tpl, amps, sched, rho, R, center=(cx, cy))
            _emit(report.render(), out_dir, "estimate_report.txt")
            return exit_code_from_reports([report])
        if pairs is not None:
            solved = tpl.solve(1.0)
            rep = radius_sweep(solved, sched, pairs, center=(cx, cy))
            lines = [
                "pair            sup|Du|^2      normalized",
            ]
            for (r_, R_), s, c, lc in zip(rep.pairs, rep.sup_values, rep.normalized, rep.log_normalized):
                lines.append(f"({r_:g}, {R_:g})".ljust(15) + f" {s:<14.8g} {format_constant(c, lc, 8, 14):<14}")
            lines.append(
                f"flags: monotone={'ok' if rep.monotone_ok else 'FAIL'} "
                f"bounded={'ok' if rep.bounded_ok else 'FAIL'}"
            )
            _emit("\n".join(lines), out_dir, "radius_report.txt")
            return EXIT_OK if rep.passed else EXIT_FAIL
    except ThetaOscillationError as exc:
        print(f"geometry/oscillation error: {exc}")
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    print("error: [sweep] must define either amplitudes or pairs")
    return EXIT_USAGE


def _seed(text: str) -> int:
    """The ``--seed`` type: a non-negative integer, as numpy's seeding takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """The ``--tolerance`` type: a gradient tolerance that SolveOptions takes."""
    try:
        return SolveOptions(tolerance=float(text)).tolerance
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of the
    process and shared by every later one: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="pqlab",
        description="growth-condition checks, exponent schedules, and discrete "
        "energy minimization for non-uniformly elliptic densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check", cmd_check),
        ("params", cmd_params),
        ("solve", cmd_solve),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the problem configuration")
        p.add_argument("--seed", type=_seed, default=0, help="seed for all random sampling")
        p.add_argument("--out", default=None, help="directory for report/field files")
        p.add_argument(
            "--tolerance", type=_tolerance, default=None, help="override the solver gradient tolerance"
        )
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args.config, args.seed, args.out, args.tolerance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
