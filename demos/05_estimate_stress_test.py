#!/usr/bin/env python3
"""Stress-testing the a-priori estimates at desk scale.

Amplitude sweeps fit the scaling of sup|Du|^2 and of the weighted
second-derivative quantity against the outer energy, comparing the slopes
with the predicted theta exponents; radius sweeps check nested-ball
monotonicity and single-constant boundedness in (R - rho).
"""

import numpy as np

from pqlab import (
    Coefficient,
    DoublePhase,
    Exponential,
    Grid,
    PLaplacian,
    ProblemTemplate,
    SolveOptions,
    auto_exponential_params,
    default_params,
    double_phase_params,
    measure,
    moser_exponents,
    radius_sweep,
    select_mu_nu,
    sweep_amplitudes,
)
from pqlab.integrand import Ball

print("=" * 78)
print("AMPLITUDE SWEEP: p = 2 BASELINE")
print("=" * 78)
params = default_params(2, 2, 0)
nu, mu = select_mu_nu(params)
sched = moser_exponents(params, nu, mu)
tpl = ProblemTemplate(
    family=PLaplacian(2), grid=Grid(1.0, 65, lambda x, y: x * x - y * y),
    opts=SolveOptions(tolerance=1e-9, max_iter=40000),
)
rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], sched, rho=0.2, R=0.4)
print(rep.render())

print("\n" + "=" * 78)
print("AMPLITUDE SWEEP: DOUBLE PHASE |Du|^2 + (x^2+y^2)|Du|^3")
print("=" * 78)
a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
dp = DoublePhase(2.0, 3.0, a_quad)
dpp = double_phase_params(2, 3, 2)
nu, mu = select_mu_nu(dpp)
dps = moser_exponents(dpp, nu, mu)
tpl = ProblemTemplate(
    family=dp, grid=Grid(1.0, 65, lambda x, y: x * y + 0.5 * (x + y)),
    opts=SolveOptions(tolerance=1e-5, max_iter=30000),
)
rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], dps, rho=0.2, R=0.35)
print(rep.render())

print("\n" + "=" * 78)
print("AMPLITUDE SWEEP: EXPONENTIAL exp((0.5 + 0.1x)|Du|^2)")
print("=" * 78)
a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
ex = Exponential(a_lin)
ball = Ball(0.5, 0.5, 0.35)
lo, hi = a_lin.range_on_ball(ball)
exp_params = auto_exponential_params(lo, hi, n=2)
pair = select_mu_nu(exp_params)
exs = moser_exponents(exp_params, *pair)
tpl = ProblemTemplate(
    family=ex, grid=Grid(1.0, 65, lambda x, y: 0.35 * (x + y)),
    opts=SolveOptions(tolerance=1e-5, max_iter=30000),
)
rep = sweep_amplitudes(tpl, [0.25, 0.5, 1, 2, 4], exs, rho=0.2, R=0.35)
print(rep.render())

print("\n" + "=" * 78)
print("RADIUS SWEEP: HARMONIC SOLVE, NESTED BALLS")
print("=" * 78)
tpl = ProblemTemplate(
    family=PLaplacian(2), grid=Grid(1.0, 65, lambda x, y: np.exp(x) * np.cos(y)),
    opts=SolveOptions(tolerance=1e-9, max_iter=40000),
)
solved = tpl.solve(1.0)
pairs = [(0.05, 0.45), (0.25, 0.45), (0.33, 0.45), (0.41, 0.45)]
rrep = radius_sweep(solved, sched, pairs)
print(f"  pairs (rho, R): {rrep.pairs}")
print(f"  sup|Du|^2 per ball: {tuple(round(s, 6) for s in rrep.sup_values)}")
print(f"  monotone in rho: {rrep.monotone_ok}; (R-rho)-normalized bounded: {rrep.bounded_ok}")

print("\n" + "=" * 78)
print("SECOND-DERIVATIVE QUANTITY")
print("=" * 78)
rec = measure(solved, sched, rho=0.2, R=0.4)
print(f"  weighted integral = {rec.w22_weighted:.6g}; unweighted = {rec.w22_unweighted:.6g}")
print(f"  nondegenerate (g1(0) = {rec.g1_at_zero:g} > 0): the unweighted quantity is controlled "
      f"with the 1/m factor; implied constant = {rec.c_hat_w22:.6g}")
