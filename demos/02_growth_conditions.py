#!/usr/bin/env python3
"""Growth triples and the structural condition checks.

For each cataloged class the working-ball triple (g1, g2, g3) is built
with honest constants and run through the five checks:

  ellipticity-sandwich, growth-A, the two scale conditions (11M/12M-style),
  the mixed-vs-elliptic condition (A3-style), plus the strict exponent
  bounds.

The constant M is fitted, never assumed: each ratio condition reports the
supremum of its ratio over the grid and tail probes.  Verdicts are
finite-sample evidence: bounded tail => pass, steady divergence => fail.
"""

from fractions import Fraction as F

import numpy as np

from pqlab import (
    Ball,
    Coefficient,
    ConditionReport,
    DoublePhase,
    Exponential,
    GrowthFn,
    GrowthTriple,
    PLaplacian,
    PxLaplacian,
    SampleSpec,
    anisotropic_params,
    auto_exponential_params,
    auto_px_params,
    check_11M,
    check_A3,
    default_params,
    double_phase_params,
    paper_triple,
    px_delta,
    run_all_checks,
    sobolev_context,
    tail_limit,
)
from pqlab.exponents import ExponentParams

ball = Ball(0.5, 0.5, 0.35)
spec = SampleSpec(ball=ball, seed=0)

print("=" * 78)
print("FULL CONDITION TABLES ON THE WORKING BALL", ball)
print("=" * 78)

a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
p_var = Coefficient(lambda x, y: 2.0 + 0.1 * (x + y), 0.2, "2+0.1*(x+y)")

cases = [
    (PLaplacian(3.0), default_params(2, 2, 0)),
    (DoublePhase(2.0, 3.0, a_quad), double_phase_params(2, 3, 2)),
    (Exponential(a_lin, 2.0), auto_exponential_params(*a_lin.range_on_ball(ball), n=2)),
    (PxLaplacian(p_var), auto_px_params(*p_var.range_on_ball(ball), n=2)),
]
for fam, params in cases:
    triple = paper_triple(fam, ball)
    print(f"\n{fam.describe()}")
    print(f"  parameters: alpha={float(params.alpha):.4g} beta={float(params.beta):.4g} "
          f"gamma={float(params.gamma):.4g}")
    print("  " + ConditionReport.header())
    for rep in run_all_checks(fam, triple, params, spec):
        print("  " + rep.row())

print("\n" + "=" * 78)
print("A DELIBERATELY WRONG UPPER BOUND FAILS THE SANDWICH")
print("=" * 78)
from pqlab.growth import check_ellipticity_sandwich

bad = GrowthTriple(
    g1=GrowthFn(lambda t: 4.0 * np.power(np.asarray(t, float), 2.0)),
    g2=GrowthFn(lambda t: np.asarray(t, float)),  # sub-quadratic: wrong for p = 4
    g3=GrowthFn(lambda t: 0.0 * np.asarray(t, float)),
)
rep = check_ellipticity_sandwich(PLaplacian(4.0), bad, spec)
print(f"  p=4 with g2(t) = t: {rep.verdict}, worst ratio {rep.worst_ratio:.4g} at t = {rep.worst_t:.4g}")

print("\n" + "=" * 78)
print("THE VARIABLE-EXPONENT CLASS NEEDS gamma > 1")
print("=" * 78)
p, theta, omega = 2.0, 1.01, 0.01
px_triple = GrowthTriple(
    g1=GrowthFn(lambda t: p * np.power(np.asarray(t, float), p - 2)),
    g2=GrowthFn(lambda t: 2 * p * (2 * p - 1) * np.power(np.asarray(t, float), theta * p - 2)),
    g3=GrowthFn(lambda t: 1.0 + np.power(np.asarray(t, float), theta * p - 1 + omega)),
)
ctx = sobolev_context(2, alpha=F(5, 2), gamma=1)
rep1 = check_A3(px_triple, ExponentParams(F(5, 2), F(5, 4), 1, 0, ctx))
d = px_delta(2, F(101, 100), F(1, 100))
ctx2 = sobolev_context(2, alpha=F(5, 2), gamma=1 + d)
rep2 = check_A3(px_triple, ExponentParams(F(5, 2), F(5, 4) + d, 1 + d, d, ctx2))
print(f"  gamma = 1:           {rep1.verdict}  (ratio diverges along the tail)")
print(f"  gamma = 1 + {float(d):.4g}: {rep2.verdict}  (minimal delta balances the exponents)")

print("\n" + "=" * 78)
print("TAIL ESTIMATION")
print("=" * 78)
for label, h in (
    ("t^2/(1+t^2)  -> 1", lambda t: t * t / (1 + t * t)),
    ("sqrt(t)      -> diverges", lambda t: np.sqrt(t)),
    ("constant 7/2", lambda t: 3.5),
):
    res = tail_limit(h, 1.0)
    verdict = "diverging" if res.diverging else (f"limit ~ {res.estimate:.6g}" if res.stabilized else "inconclusive")
    print(f"  {label:<26} {verdict}")
