#!/usr/bin/env python3
"""Tour of the energy density catalog.

Evaluates each cataloged density together with its analytic gradient and
Hessian quadratic form, cross-checks the gradient against central finite
differences, and shows the radial two-sided bounds with their
monotonicity case.
"""

import numpy as np

from pqlab import (
    Anisotropic,
    Coefficient,
    DoublePhase,
    Exponential,
    MultiPhase,
    PLaplacian,
    PxLaplacian,
    SaturationError,
    VeryDegenerate,
    radial_bounds,
)


class SubquadraticPower(PLaplacian):
    """t^p for 1 < p < 2, which the catalog p-Laplacian refuses."""

    def __init__(self, p):
        self.p = float(p)


x = (0.4, 0.6)
xi = np.array([3.0, 4.0])
lam = np.array([1.0, 0.0])

print("=" * 72)
print("DENSITY CATALOG")
print("=" * 72)

a_lin = Coefficient(lambda px, py: 0.5 + 0.1 * px, lipschitz=0.1, source="0.5+0.1*x")
a_quad = Coefficient(lambda px, py: px * px + py * py, lipschitz=3.0, source="x^2+y^2")
p_var = Coefficient(lambda px, py: 2.0 + 0.2 * px, lipschitz=0.2, source="2+0.2*x")

families = [
    PLaplacian(2.0),
    PLaplacian(3.0),
    Exponential(a_lin),
    PxLaplacian(p_var),
    DoublePhase(2.0, 3.0, a_quad),
    MultiPhase(2.0, 3.0, a_quad, 0.5),
    VeryDegenerate(2.0),
    Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)),
]

for fam in families:
    f = float(fam.value(*x, *xi))
    g = np.array(fam.grad(*x, *xi), float)
    qf = float(fam.hess_qf(*x, *xi, *lam))
    # finite-difference check of the analytic gradient
    h = 1e-5 * max(1.0, float(np.hypot(*xi)))
    fd = np.array(
        [
            (fam.value(*x, xi[0] + h, xi[1]) - fam.value(*x, xi[0] - h, xi[1])) / (2 * h),
            (fam.value(*x, xi[0], xi[1] + h) - fam.value(*x, xi[0], xi[1] - h)) / (2 * h),
        ]
    )
    rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))
    print(f"\n{fam.describe()}")
    print(f"  f(x, xi)        = {f:.8g}")
    print(f"  grad_xi f       = ({g[0]:.8g}, {g[1]:.8g})   [fd mismatch {rel:.1e}]")
    print(f"  QF(xi; lam=e1)  = {qf:.8g}")

print("\n" + "=" * 72)
print("THE QUADRATIC-FORM IDENTITY FOR |xi|^p")
print("=" * 72)
for p in (2.0, 3.0, 4.0):
    fam = PLaplacian(p)
    aligned = float(fam.hess_qf(*x, 1.0, 0.0, 1.0, 0.0))
    orth = float(fam.hess_qf(*x, 1.0, 0.0, 0.0, 1.0))
    print(f"  p = {p:g}: aligned direction gives p(p-1) = {aligned:g}, orthogonal gives p = {orth:g}")

print("\n" + "=" * 72)
print("RADIAL TWO-SIDED BOUNDS AND MONOTONICITY CASES")
print("=" * 72)
for label, fam, t in (
    ("t^3 (p >= 2)", PLaplacian(3.0), 2.0),
    ("t^1.5 (1 < p < 2)", SubquadraticPower(1.5), 1.0),
    ("exp(t^2)", Exponential(Coefficient.constant(1.0)), 1.3),
):
    lo, up, case = radial_bounds(fam, x, t)
    print(f"  {label:<22} case ({case}):  {lo:.6g} <= QF/|lam|^2 <= {up:.6g}   at t = {t:g}")

print("\n" + "=" * 72)
print("LOG-SPACE SATURATION GUARD")
print("=" * 72)
fam = Exponential(Coefficient.constant(1.0))
try:
    fam.value(*x, 40.0, 0.0)
except SaturationError as exc:
    print(f"  exp(|xi|^2) at |xi| = 40 raises instead of returning inf:\n    {exc}")
