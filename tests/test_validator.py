"""Estimate validation: measurements, sweeps, nested-ball structure."""

import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from pqlab.exponents import (
    ExponentParams,
    auto_exponential_params,
    default_params,
    double_phase_params,
    moser_exponents,
    select_mu_nu,
    sobolev_context,
)
from pqlab.integrand import Coefficient, DoublePhase, Exponential, PLaplacian, VeryDegenerate
from pqlab import solver, validator
from pqlab.integrand import Ball
from pqlab.solver import DiscreteField, Grid, SolveOptions, SolveTrace, harmonic_direct_solve
from pqlab.validator import (
    EstimateReport,
    ProblemTemplate,
    SolvedProblem,
    ThetaOscillationError,
    coefficient_oscillation_theta,
    measure,
    oscillation_radius,
    radius_sweep,
    sweep_amplitudes,
)


def p2_schedule(n=2):
    params = default_params(n, 2, 0)
    nu, mu = select_mu_nu(params)
    return moser_exponents(params, nu, mu)


def solved_affine(slope=1.0, n=33):
    g = Grid(1.0, n, boundary=lambda x, y: slope * x)
    X, _ = g.node_coords()
    u = DiscreteField(g, slope * X)
    tr = SolveTrace(iterations=0, converged=True, final_energy=0.0, final_grad_norm=0.0)
    return SolvedProblem(grid=g, family=PLaplacian(2), field=u, trace=tr, amplitude=slope)


def solved_harmonic(n=33):
    g = Grid(1.0, n, boundary=lambda x, y: x * x - y * y)
    u = harmonic_direct_solve(g)
    tr = SolveTrace(iterations=1, converged=True, final_energy=0.0, final_grad_norm=0.0)
    return SolvedProblem(grid=g, family=PLaplacian(2), field=u, trace=tr, amplitude=1.0)


# --- measure -------------------------------------------------------------------


def test_measure_affine_closed_form():
    sched = p2_schedule()
    prob = solved_affine(1.0)
    rec = measure(prob, sched, rho=0.2, R=0.4)
    assert rec.sup_grad_sq == pytest.approx(1.0, rel=1e-12)
    # E_R = (1 + |Du|^2) * discrete area of B_R
    area = rec.outer_energy / 2.0
    expected_c = rec.sup_grad_sq * (0.4 - 0.2) ** float(sched.theta2) / rec.outer_energy ** float(
        sched.theta1
    )
    assert rec.c_hat == pytest.approx(expected_c, rel=1e-13)
    assert rec.w22_weighted == 0.0
    assert area == pytest.approx(math.pi * 0.4**2, rel=0.05)


def test_measure_zero_field():
    sched = p2_schedule()
    prob = solved_affine(0.0)
    rec = measure(prob, sched, rho=0.2, R=0.4)
    assert rec.sup_grad_sq == 0.0
    assert rec.c_hat == 0.0


def test_measure_harmonic_constant_positive():
    sched = p2_schedule()
    rec = measure(solved_harmonic(), sched, rho=0.2, R=0.4)
    assert rec.c_hat > 0 and math.isfinite(rec.c_hat)
    assert rec.c_hat_v > 0 and rec.c_hat_w22 >= 0


def test_row_prints_constants_past_float_range_from_their_logs():
    rec = measure(solved_harmonic(), p2_schedule(), rho=0.2, R=0.4)
    # representable constants and a true zero print as .6g floats
    assert rec.row().split()[-2:] == [f"{rec.c_hat:.6g}", f"{rec.c_hat_v:.6g}"]
    assert dataclasses.replace(rec, c_hat=0.0, log_c_hat=-math.inf).row().split()[-2] == "0"
    # constants that _exp_clamped clamps to 0 or inf printed as 0 or inf;
    # they print from their logs
    log_small = math.log(4.0251) - 348 * math.log(10)
    clamped = dataclasses.replace(rec, c_hat=0.0, log_c_hat=log_small, c_hat_v=math.inf, log_c_hat_v=800.0)
    assert clamped.row().split()[-2:] == ["4.0251e-348", "2.72637e+347"]


def test_row_keeps_constants_in_their_columns():
    # 1.02801e-2667 is 13 characters and pushed c_hat_V out of its 12-wide column
    rec = measure(solved_harmonic(), p2_schedule(), rho=0.2, R=0.4)
    log_c = math.log(1.02801) - 2667 * math.log(10)
    row = dataclasses.replace(rec, c_hat=0.0, log_c_hat=log_c).row()
    c_hat_v = f"{rec.c_hat_v:.6g}"
    assert row.index(c_hat_v) == validator.MeasureRecord.header().index("c_hat_V")
    assert row.split()[-2:] == ["1.028e-2667", c_hat_v]
    # the radius report's 14-wide column at 8 digits
    assert validator.format_constant(0.0, log_c, 8, 14) == "1.02801e-2667"
    assert validator.format_constant(0.0, math.log(1.2345678) - 2667 * math.log(10), 8, 14) == "1.234568e-2667"


def test_measure_translation_invariance_affine():
    # same affine field, ball pair shifted by whole cells: identical c_hat
    sched = p2_schedule()
    prob = solved_affine(1.0, n=33)
    h = prob.grid.h
    r1 = measure(prob, sched, 0.15, 0.3, center=(0.5, 0.5))
    r2 = measure(prob, sched, 0.15, 0.3, center=(0.5 + 4 * h, 0.5 - 3 * h))
    assert abs(r1.c_hat - r2.c_hat) <= 1e-12 * max(r1.c_hat, 1.0)


# --- oscillation guard -----------------------------------------------------------


def test_oscillation_guard_rejects_stale_theta():
    a = Coefficient(lambda x, y: 0.5 + 0.4 * x, 0.4, "0.5+0.4*x")
    fam = Exponential(a, 2.0)
    g = Grid(1.0, 17, boundary=lambda x, y: 0.1 * (x + y))
    from pqlab.solver import bilinear_interpolant

    u = bilinear_interpolant(g)
    tr = SolveTrace(converged=True)
    prob = SolvedProblem(grid=g, family=fam, field=u, trace=tr)
    # schedule with theta smaller than the true oscillation on the ball
    params = ExponentParams(3, F(3, 2), 1, 0, sobolev_context(2, alpha=3, gamma=1), theta=F(101, 100))
    nu, mu = select_mu_nu(params)
    sched = moser_exponents(params, nu, mu)
    with pytest.raises(ThetaOscillationError):
        measure(prob, sched, 0.2, 0.4)


def test_oscillation_theta_and_radius():
    a = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
    fam = Exponential(a, 2.0)
    from pqlab.integrand import Ball

    ball = Ball(0.5, 0.5, 0.35)
    th = coefficient_oscillation_theta(fam, ball)
    assert th == pytest.approx(0.585 / 0.515, rel=1e-2)
    r0 = oscillation_radius(fam, ball, th)
    assert r0 == pytest.approx((th - 1) * 0.515 / 0.3, rel=1e-2)
    assert coefficient_oscillation_theta(PLaplacian(2), ball) is None


# --- amplitude sweeps -------------------------------------------------------------


def affine_template(n=33):
    return ProblemTemplate(
        family=PLaplacian(2),
        grid=Grid(1.0, n, lambda x, y: x + y),
        opts=SolveOptions(tolerance=1e-10, max_iter=4000),
    )


def test_sweep_affine_slope_near_one():
    sched = p2_schedule()
    rep = sweep_amplitudes(affine_template(), [0.5, 1, 2, 4, 8], sched, rho=0.2, R=0.4)
    assert rep.s1 is not None
    assert 0.95 <= rep.s1 <= float(sched.theta1) + 0.05
    assert rep.slope1_ok and rep.ratio_ok and rep.ratio_v_ok
    # affine fields: W22 identically zero, so slope3 is skipped and the
    # report is inconclusive, not passed
    assert rep.s3 is None and rep.slope3_ok is None
    assert rep.verdict == "inconclusive" and not rep.passed


def test_sweep_insufficient_spread_errors():
    sched = p2_schedule()
    with pytest.raises(ValueError, match="insufficient spread"):
        sweep_amplitudes(affine_template(), [1, 1, 1, 1, 1], sched, 0.2, 0.4)
    with pytest.raises(ValueError, match="insufficient spread"):
        sweep_amplitudes(affine_template(), [1, 2], sched, 0.2, 0.4)


def record_solves(monkeypatch, cold=False):
    """Route the validator's solves through a recorder of their initial
    guesses and traces; ``cold`` drops every warm start."""
    starts, traces = [], []

    def recording(grid, family, u0=None, opts=SolveOptions()):
        starts.append(u0)
        u, trace = solver.minimize(grid, family, None if cold else u0, opts)
        traces.append(trace)
        return u, trace

    monkeypatch.setattr(validator, "minimize", recording)
    return starts, traces


def test_sweep_warm_starts_match_cold_solves(monkeypatch):
    # the A4 double-phase set-up
    dp = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0))
    params = double_phase_params(2, 3, 2)
    sched = moser_exponents(params, *select_mu_nu(params))
    tpl = ProblemTemplate(
        family=dp,
        grid=Grid(1.0, 65, lambda x, y: x * y + 0.5 * (x + y)),
        opts=SolveOptions(tolerance=1e-5, max_iter=30000),
    )
    runs = []
    for cold in (False, True):
        starts, traces = record_solves(monkeypatch, cold)
        runs.append((sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], sched, rho=0.2, R=0.35), starts, traces))
    (warm, starts, warm_traces), (cold, _, cold_traces) = runs
    assert starts[0] is None and all(u0 is not None for u0 in starts[1:])
    # both solves stop at gradient <= 1e-5; the records agree well inside that
    for w, c in zip(warm.records, cold.records):
        for name in ("sup_grad_sq", "outer_energy", "w22_weighted", "w22_unweighted", "v_integral"):
            assert getattr(w, name) == pytest.approx(getattr(c, name), rel=1e-5), (w.amplitude, name)
        assert w.converged and c.converged
    flags = [(r.slope1_ok, r.slope3_ok, r.ratio_ok, r.ratio_v_ok, r.failures) for r in (warm, cold)]
    assert flags[0] == flags[1] == (True, True, True, True, [])
    assert warm.s1 == pytest.approx(cold.s1, abs=1e-3) and warm.s3 == pytest.approx(cold.s3, abs=1e-3)
    assert sum(t.iterations for t in warm_traces) < sum(t.iterations for t in cold_traces)


def test_sweep_cold_start_after_zero_amplitude(monkeypatch):
    starts, traces = record_solves(monkeypatch)
    rep = sweep_amplitudes(affine_template(), [0.5, 0, 1, 2, 4, 8], p2_schedule(), rho=0.2, R=0.4)
    # 0 is warm-started from 0.5 (scaled to zero); 1 cannot scale a zero field
    assert [u0 is None for u0 in starts] == [True, False, True, False, False, False]
    assert len(rep.records) == 6 and not rep.failures
    assert all(t.converged for t in traces)


def test_sweep_cold_start_after_rescaled_member(monkeypatch):
    a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1)
    ex = Exponential(a_lin, 2.0)
    lo, hi = a_lin.range_on_ball(Ball(0.5, 0.5, 0.35))
    params = auto_exponential_params(F(lo).limit_denominator(10**9), F(hi).limit_denominator(10**9), n=2)
    sched = moser_exponents(params, *select_mu_nu(params))
    tpl = ProblemTemplate(
        family=ex,
        grid=Grid(1.0, 17, lambda x, y: 0.35 * (x + y)),
        opts=SolveOptions(tolerance=1e-5, max_iter=30000),
    )
    starts, traces = record_solves(monkeypatch)
    rep = sweep_amplitudes(tpl, [80, 1, 2, 4, 8], sched, rho=0.2, R=0.35)
    # amplitude 80 saturates the exponential and is rescaled, so 1 starts cold
    assert traces[0].rescale_factor < 1.0 and all(t.rescale_factor == 1.0 for t in traces[1:])
    assert [u0 is None for u0 in starts] == [True, True, False, False, False]
    assert len(rep.records) == 5 and not rep.failures


def test_sweep_harmonic_p2_within_band():
    sched = p2_schedule()
    tpl = ProblemTemplate(
        family=PLaplacian(2),
        grid=Grid(1.0, 33, lambda x, y: x * x - y * y),
        opts=SolveOptions(tolerance=1e-9, max_iter=8000),
    )
    rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], sched, rho=0.2, R=0.4)
    assert rep.passed
    assert rep.s1 is not None and 1 - 0.05 <= rep.s1 <= float(sched.theta1) + 0.05
    assert rep.s3 is not None and rep.s3 <= float(sched.theta3) + 0.05
    assert "pass flags" in rep.render()


def test_sweep_reports_solve_failures():
    sched = p2_schedule()
    tpl = ProblemTemplate(
        family=PLaplacian(4),
        grid=Grid(1.0, 25, lambda x, y: np.exp(x) * np.cos(y)),
        opts=SolveOptions(tolerance=1e-13, max_iter=3),  # unreachable in 3 steps
    )
    rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], sched, 0.2, 0.4)
    assert len(rep.failures) >= 1
    assert rep.s1 is None  # fit skipped below 5 successes
    flags = (rep.slope1_ok, rep.slope3_ok, rep.ratio_ok, rep.ratio_v_ok)
    assert (flags, rep.verdict) == ((None,) * 4, "inconclusive")
    assert "slope1=skipped slope3=skipped ratio=skipped ratio_V=skipped" in rep.render()


def test_sweep_ratio_flags_count_converged_records_only(monkeypatch):
    # a record whose solve did not converge, with constants 10^21 above the
    # others, was counted by the ratio flags
    real = validator.measure

    def measure(problem, *args, **kwargs):
        rec = real(problem, *args, **kwargs)
        if problem.amplitude != 8:
            return rec
        return dataclasses.replace(rec, converged=False, log_c_hat=rec.log_c_hat + 50, log_c_hat_v=rec.log_c_hat_v + 50)

    monkeypatch.setattr(validator, "measure", measure)
    tpl = ProblemTemplate(
        family=PLaplacian(2),
        grid=Grid(1.0, 33, lambda x, y: x * x - y * y),
        opts=SolveOptions(tolerance=1e-9, max_iter=8000),
    )
    rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8, 16], p2_schedule(), rho=0.2, R=0.4)
    assert not rep.records[4].converged
    assert rep.ratio_ok and rep.ratio_v_ok


# --- radius sweeps ----------------------------------------------------------------


def test_radius_sweep_monotone_and_bounded_harmonic():
    sched = p2_schedule()
    prob = solved_harmonic()
    pairs = [(0.44, 0.45), (0.41, 0.45), (0.33, 0.45), (0.25, 0.45), (0.05, 0.45)]
    rep = radius_sweep(prob, sched, pairs)
    assert rep.monotone_ok
    assert rep.bounded_ok
    assert rep.passed


def test_radius_sweep_affine_sup_constant():
    sched = p2_schedule()
    prob = solved_affine(2.0)
    pairs = [(0.4, 0.45), (0.3, 0.45), (0.2, 0.45), (0.05, 0.45)]
    rep = radius_sweep(prob, sched, pairs)
    assert all(s == pytest.approx(4.0, rel=1e-12) for s in rep.sup_values)
    assert rep.passed


def test_radius_sweep_preconditions():
    sched = p2_schedule()
    prob = solved_harmonic()
    with pytest.raises(ValueError):
        radius_sweep(prob, sched, [(0.2, 0.4), (0.3, 0.4)])
    with pytest.raises(ValueError):
        radius_sweep(prob, sched, [(0.2, 0.4), (0.25, 0.4), (0.3, 0.45), (0.35, 0.45)])
    with pytest.raises(ValueError):
        radius_sweep(prob, sched, [(0.30, 0.4), (0.32, 0.4), (0.34, 0.4), (0.36, 0.4)])


# --- second derivatives -----------------------------------------------------------


def test_second_derivative_affine_zero():
    sched = p2_schedule()
    rec = measure(solved_affine(1.5), sched, 0.2, 0.4)
    assert rec.w22_weighted == 0.0
    assert rec.c_hat_w22 == 0.0


def test_second_derivative_p2_weight_factor_two():
    sched = p2_schedule()
    rec = measure(solved_harmonic(), sched, 0.2, 0.4)
    m = rec.g1_at_zero
    assert m > 0 and m == pytest.approx(2.0)
    assert rec.w22_weighted == pytest.approx(2.0 * rec.w22_unweighted, rel=1e-12)
    # the unweighted bound constant of the nondegenerate corollary: m W22 (R - rho)^theta4 / E_R^theta3
    unweighted_c = m * rec.w22_unweighted * 0.2 ** float(sched.theta4) / rec.outer_energy ** float(sched.theta3)
    assert unweighted_c == pytest.approx(rec.c_hat_w22, rel=1e-9)


def test_second_derivative_very_degenerate_plateau():
    g = Grid(1.0, 25, boundary=lambda x, y: 0.3 * x)
    X, Y = g.node_coords()
    u = DiscreteField(g, 0.3 * X + 0.02 * np.sin(5 * X * Y))
    tr = SolveTrace(converged=True)
    prob = SolvedProblem(grid=g, family=VeryDegenerate(2.0), field=u, trace=tr)
    sched = p2_schedule()
    rec = measure(prob, sched, 0.2, 0.4)
    # |Du| < 1 everywhere: the weighted quantity vanishes identically
    assert rec.w22_weighted == 0.0
    assert rec.w22_unweighted > 0.0
    assert not rec.g1_at_zero > 0


# --- nested-ball sup monotonicity on every solved field ----------------------------


def test_nested_sup_monotonicity_on_solves():
    sched = p2_schedule()
    fams = [
        PLaplacian(2.0),
        DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0)),
    ]
    for fam in fams:
        tpl = ProblemTemplate(
            family=fam, grid=Grid(1.0, 25, lambda x, y: np.sin(2 * x) + y),
            opts=SolveOptions(tolerance=1e-7, max_iter=4000),
        )
        prob = tpl.solve(1.0)
        sups = [
            measure(prob, sched, rho, 0.45).sup_grad_sq for rho in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(sups[i] <= sups[i + 1] + 0.0 for i in range(3)), fam.kind
