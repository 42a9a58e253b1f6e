"""Estimate validation: measurements, sweeps, nested-ball structure."""

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
    second_derivative_check,
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
        side=1.0,
        n=n,
        boundary=lambda x, y: x + y,
        opts=SolveOptions(tolerance=1e-10, max_iter=4000),
    )


def test_sweep_affine_slope_near_one():
    sched = p2_schedule()
    rep = sweep_amplitudes(affine_template(), [0.5, 1, 2, 4, 8], sched, rho=0.2, R=0.4)
    assert rep.s1 is not None
    assert 0.95 <= rep.s1 <= float(sched.theta1) + 0.05
    assert rep.slope1_ok and rep.ratio_ok and rep.ratio_v_ok
    # affine fields: W22 identically zero, slope3 skipped but flagged ok
    assert rep.s3 is None and rep.slope3_ok
    assert rep.passed


def test_sweep_insufficient_spread_errors():
    sched = p2_schedule()
    with pytest.raises(ValueError, match="insufficient spread"):
        sweep_amplitudes(affine_template(), [1, 1, 1, 1, 1], sched, 0.2, 0.4)
    with pytest.raises(ValueError, match="insufficient spread"):
        sweep_amplitudes(affine_template(), [1, 2], sched, 0.2, 0.4)


def test_sweep_harmonic_p2_within_band():
    sched = p2_schedule()
    tpl = ProblemTemplate(
        family=PLaplacian(2),
        side=1.0,
        n=33,
        boundary=lambda x, y: x * x - y * y,
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
        side=1.0,
        n=25,
        boundary=lambda x, y: np.exp(x) * np.cos(y),
        opts=SolveOptions(tolerance=1e-13, max_iter=3),  # unreachable in 3 steps
    )
    rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], sched, 0.2, 0.4)
    assert len(rep.failures) >= 1
    assert rep.s1 is None  # fit skipped below 5 successes


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
    rec = second_derivative_check(solved_affine(1.5), sched, 0.2, 0.4)
    assert rec.w22_weighted == 0.0
    assert rec.implied_constant == 0.0


def test_second_derivative_p2_weight_factor_two():
    sched = p2_schedule()
    rec = second_derivative_check(solved_harmonic(), sched, 0.2, 0.4)
    assert rec.nondegenerate and rec.m == pytest.approx(2.0)
    assert rec.w22_weighted == pytest.approx(2.0 * rec.w22_unweighted, rel=1e-12)
    assert rec.unweighted_bound_constant is not None


def test_second_derivative_very_degenerate_plateau():
    g = Grid(1.0, 25, boundary=lambda x, y: 0.3 * x)
    X, Y = g.node_coords()
    u = DiscreteField(g, 0.3 * X + 0.02 * np.sin(5 * X * Y))
    tr = SolveTrace(converged=True)
    prob = SolvedProblem(grid=g, family=VeryDegenerate(2.0), field=u, trace=tr)
    sched = p2_schedule()
    rec = second_derivative_check(prob, sched, 0.2, 0.4)
    # |Du| < 1 everywhere: the weighted quantity vanishes identically
    assert rec.w22_weighted == 0.0
    assert rec.w22_unweighted > 0.0
    assert not rec.nondegenerate


# --- nested-ball sup monotonicity on every solved field ----------------------------


def test_nested_sup_monotonicity_on_solves():
    sched = p2_schedule()
    fams = [
        PLaplacian(2.0),
        DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0)),
    ]
    for fam in fams:
        tpl = ProblemTemplate(
            family=fam, side=1.0, n=25, boundary=lambda x, y: np.sin(2 * x) + y,
            opts=SolveOptions(tolerance=1e-7, max_iter=4000),
        )
        prob = tpl.solve(1.0)
        sups = [
            measure(prob, sched, rho, 0.45).sup_grad_sq for rho in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(sups[i] <= sups[i + 1] + 0.0 for i in range(3)), fam.kind
