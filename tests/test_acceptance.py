"""Acceptance criteria A1 - A7.

Each test prints one PASS/FAIL line (visible with pytest -s and in the
captured output of failures) and enforces the stated runtime budget.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from pqlab.exponents import (
    MU_UNBOUNDED,
    ExponentParams,
    anisotropic_params,
    auto_exponential_params,
    default_params,
    double_phase_params,
    is_rejected,
    lambda_sequence,
    moser_exponents,
    nu_upper_bound,
    px_delta,
    select_mu_nu,
    sobolev_context,
)
from pqlab.growth import (
    GrowthFn,
    GrowthTriple,
    SampleSpec,
    check_11M,
    check_A3,
    check_ellipticity_sandwich,
    paper_triple,
    run_all_checks,
)
from pqlab.integrand import (
    Anisotropic,
    Ball,
    Coefficient,
    DoublePhase,
    Exponential,
    LogPxLaplacian,
    MultiPhase,
    PLaplacian,
    PxLaplacian,
    VeryDegenerate,
    radial_bounds,
)
from pqlab.solver import (
    Grid,
    SolveOptions,
    field_stats,
    harmonic_direct_solve,
    minimize,
)
from pqlab.validator import ProblemTemplate, sweep_amplitudes


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_s else f"FAIL (runtime {elapsed:.2f}s over budget {budget_s}s)"
    print(f"{name}: {status} ({elapsed:.2f}s)")
    assert elapsed <= budget_s, f"{name} exceeded its runtime budget"


RNG = np.random.default_rng(2024)


def _random_admissible_params(rng):
    n = int(rng.integers(2, 7))
    if n == 2:
        dmax = F(1, 2)
    else:
        dmax = min(F(4, n * (n - 2)), F(2, n))
    delta = dmax * int(rng.integers(0, 20)) // 21
    alpha_hi = 2 + F(4, n) - 2 * delta
    alpha = 2 + (alpha_hi - 2) * int(rng.integers(0, 40)) // 41
    return default_params(n, alpha, delta)


def test_A1_exponent_algebra():
    with criterion("A1 exponent algebra (lambda recursion vs closed form)", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            p = _random_admissible_params(rng)
            lams = lambda_sequence(p, 30)
            ts, a, g = p.two_star, p.alpha, p.gamma
            front = (ts - a - 2 * (g - 1)) / (ts - 2)
            for k, lam in enumerate(lams, start=1):
                closed = front * ((ts / 2) ** (k - 1) - 1)
                # rational arithmetic: the closed form and the shift relation
                # hold exactly; 1e-10 relative is then trivially met
                assert closed == lam
                if abs(float(closed)) > 0:
                    assert abs(float(lam) - float(closed)) <= 1e-10 * abs(float(closed))
            for k in range(29):
                assert ts * (lams[k] + 1) - a + 2 == 2 * (lams[k + 1] + g)


def test_A2_admissibility_regions():
    with criterion("A2 admissibility regions (anisotropic, double phase)", 1.0):
        for n in (2, 3, 4, 5):
            aniso_bound = 1 + F(2, n)
            dp_bound = F(n, n - 2) if n > 2 else None
            for k in range(100, 201):
                ratio = F(k, 100)
                a = anisotropic_params(100, k, n)
                assert is_rejected(a) == (ratio >= aniso_bound), ("aniso", n, ratio)
                d = double_phase_params(100, k, n)
                expected_reject = dp_bound is not None and ratio >= dp_bound
                assert is_rejected(d) == expected_reject, ("double", n, ratio)


def test_A3_uniformly_elliptic_baseline():
    with criterion("A3 uniformly elliptic baseline (p = 2, N = 65)", 30.0):
        g = Grid(1.0, 65, boundary=lambda x, y: x * x - y * y)
        u, trace = minimize(g, PLaplacian(2), opts=SolveOptions(tolerance=1e-9, max_iter=40000))
        assert trace.converged
        assert trace.final_grad_norm <= 1e-8
        oracle = harmonic_direct_solve(g)
        assert np.max(np.abs(u.values - oracle.values)) <= 1e-8

        params = default_params(2, 2, 0)
        nu, mu = select_mu_nu(params)
        sched = moser_exponents(params, nu, mu)
        tpl = ProblemTemplate(
            family=PLaplacian(2),
            grid=Grid(1.0, 65, lambda x, y: x * x - y * y),
            opts=SolveOptions(tolerance=1e-9, max_iter=40000),
        )
        rep = sweep_amplitudes(tpl, [0.5, 1, 2, 4, 8], sched, rho=0.2, R=0.4)
        assert not rep.failures
        assert rep.s1 is not None
        assert rep.s1 <= float(sched.theta1) + 0.05
        assert rep.passed


def test_A4_nonuniform_classes():
    with criterion("A4 non-uniform classes (double phase, exponential, N = 65)", 300.0):
        ball = Ball(0.5, 0.5, 0.35)
        spec = SampleSpec(ball=ball, seed=0)

        # double phase |xi|^2 + (x^2 + y^2) |xi|^3
        a_quad = Coefficient(lambda x, y: x * x + y * y, lipschitz=3.0, source="x^2+y^2")
        dp = DoublePhase(2.0, 3.0, a_quad)
        dp_params = double_phase_params(2, 3, 2)
        assert not is_rejected(dp_params)
        reports = run_all_checks(dp, paper_triple(dp, ball), dp_params, spec)
        assert all(r.verdict == "pass" for r in reports), [r.row() for r in reports]
        nu, mu = select_mu_nu(dp_params)
        dp_sched = moser_exponents(dp_params, nu, mu)
        dp_tpl = ProblemTemplate(
            family=dp,
            grid=Grid(1.0, 65, lambda x, y: x * y + 0.5 * (x + y)),
            opts=SolveOptions(tolerance=1e-5, max_iter=30000),
        )
        dp_rep = sweep_amplitudes(dp_tpl, [0.5, 1, 2, 4, 8], dp_sched, rho=0.2, R=0.35)
        assert not dp_rep.failures, dp_rep.failures
        assert dp_rep.slope1_ok and dp_rep.slope3_ok and dp_rep.ratio_ok and dp_rep.ratio_v_ok

        # exponential exp((0.5 + 0.1 x) |xi|^2)
        a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, lipschitz=0.1, source="0.5+0.1*x")
        ex = Exponential(a_lin)
        lo, hi = a_lin.range_on_ball(ball)
        ex_params = auto_exponential_params(
            F(lo).limit_denominator(10**9), F(hi).limit_denominator(10**9), n=2
        )
        assert not is_rejected(ex_params)
        reports = run_all_checks(ex, paper_triple(ex, ball), ex_params, spec)
        assert all(r.verdict == "pass" for r in reports), [r.row() for r in reports]
        pair = select_mu_nu(ex_params)
        assert not is_rejected(pair)
        ex_sched = moser_exponents(*((ex_params,) + pair))
        ex_tpl = ProblemTemplate(
            family=ex,
            grid=Grid(1.0, 65, lambda x, y: 0.35 * (x + y)),
            opts=SolveOptions(tolerance=1e-5, max_iter=30000),
        )
        ex_rep = sweep_amplitudes(ex_tpl, [0.25, 0.5, 1, 2, 4], ex_sched, rho=0.2, R=0.35)
        assert not ex_rep.failures, ex_rep.failures
        assert ex_rep.slope1_ok and ex_rep.slope3_ok and ex_rep.ratio_ok and ex_rep.ratio_v_ok


def test_A5_hypothesis_checker_fidelity():
    with criterion("A5 hypothesis checker fidelity", 5.0):
        # p(x)-Laplacian triple in its power form: gamma = 1 must fail ...
        p, theta, omega = 2.0, 1.01, 0.01

        def pw(c, e):
            return GrowthFn(lambda t: c * np.power(np.asarray(t, float), e))

        px_triple = GrowthTriple(
            g1=pw(p, p - 2),
            g2=pw(2 * p * (2 * p - 1), theta * p - 2),
            g3=GrowthFn(lambda t: 1.0 + np.power(np.asarray(t, float), theta * p - 1 + omega)),
        )
        ctx = sobolev_context(2, alpha=F(5, 2), gamma=1)
        gamma1 = ExponentParams(F(5, 2), F(5, 4), 1, 0, ctx)
        assert check_A3(px_triple, gamma1).verdict == "fail"

        # ... and the minimal delta fixes it
        d = px_delta(2, F(101, 100), F(1, 100))
        ctx2 = sobolev_context(2, alpha=F(5, 2), gamma=1 + d)
        fixed = ExponentParams(F(5, 2), F(5, 4) + d, 1 + d, d, ctx2)
        assert check_A3(px_triple, fixed).verdict == "pass"

        # natural growth passes the scale condition at (alpha, gamma) = (2, 1)
        pp = 3.0
        nat = GrowthTriple(
            g1=pw(1, pp - 2),
            g2=GrowthFn(lambda t: np.power(1 + np.asarray(t, float), pp - 2)),
            g3=pw(0, 0),
            sqrt_g1_antiderivative=pw(1 / (pp / 2), pp / 2),
        )
        assert check_11M(nat, default_params(3, 2, 0)).verdict == "pass"


def test_A6_numerical_hygiene():
    with criterion("A6 numerical hygiene suite", 60.0):
        rng = np.random.default_rng(606)
        a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
        a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
        p_var = Coefficient(lambda x, y: 2.0 + 0.125 * x, 0.125, "2+0.125*x")
        families = [
            PLaplacian(2.0),
            PLaplacian(3.0),
            Exponential(a_lin),
            PxLaplacian(p_var),
            LogPxLaplacian(p_var),
            DoublePhase(2.0, 3.0, a_quad),
            MultiPhase(2.0, 3.0, a_quad, 0.5),
            VeryDegenerate(2.0),
            Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)),
        ]

        # gradient vs central finite differences at 1e-6 relative
        for fam in families:
            for _ in range(40):
                x = rng.uniform(0.1, 0.9, 2)
                r = rng.uniform(0.1, 4.0)
                if fam.kind == "very_degenerate" and abs(r - 1.0) < 0.05:
                    continue
                th = rng.uniform(0, 2 * math.pi)
                xi = r * np.array([math.cos(th), math.sin(th)])
                step = 1e-5 * max(1.0, r)
                ana = np.array(fam.grad(*x, *xi), float)
                num = np.array(
                    [
                        (fam.value(*x, xi[0] + step, xi[1]) - fam.value(*x, xi[0] - step, xi[1])) / (2 * step),
                        (fam.value(*x, xi[0], xi[1] + step) - fam.value(*x, xi[0], xi[1] - step)) / (2 * step),
                    ]
                )
                scale = max(1.0, float(np.linalg.norm(ana)))
                assert np.allclose(ana, num, rtol=0, atol=1e-6 * scale), fam.describe()

        # Hessian sandwich to 1e-12 and the quadratic-form identity
        for fam in families:
            if not fam.radial:
                continue
            for _ in range(30):
                x = rng.uniform(0.1, 0.9, 2)
                t = rng.uniform(0.05, 3.0)
                th = rng.uniform(0, 2 * math.pi)
                xi = t * np.array([math.cos(th), math.sin(th)])
                lam = rng.normal(size=2)
                lo, up, _case = radial_bounds(fam, x, t)
                qf = fam.hess_qf(*x, *xi, *lam)
                l2 = float(lam @ lam)
                slack = 1e-12 * max(1.0, abs(up) * l2)
                assert lo * l2 - slack <= qf <= up * l2 + slack, fam.describe()
        for p in (2.0, 2.5, 3.0, 4.0):
            fam = PLaplacian(p)
            for _ in range(30):
                xi = rng.normal(size=2)
                lam = rng.normal(size=2)
                t = float(np.linalg.norm(xi))
                if t < 1e-3:
                    continue
                expected = p * (t**2 * (lam @ lam) + (p - 2) * (xi @ lam) ** 2) * t ** (p - 4)
                got = fam.hess_qf(0.3, 0.7, *xi, *lam)
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

        # energy descent on every solve; nested-ball sup monotonicity on each
        for fam in (PLaplacian(2.0), DoublePhase(2.0, 3.0, a_quad), Exponential(a_lin)):
            tpl = ProblemTemplate(
                family=fam, grid=Grid(1.0, 33, lambda x, y: np.sin(2 * x) + 0.5 * y),
                opts=SolveOptions(tolerance=1e-7, max_iter=8000),
            )
            solved = tpl.solve(1.0)
            en = np.array(solved.trace.energies)
            assert np.all(np.diff(en) <= 0.0), fam.kind
            sups = [
                field_stats(solved.grid, fam, solved.field, r_, 0.45).sup_grad
                for r_ in (0.1, 0.2, 0.3, 0.4)
            ]
            assert all(sups[i] <= sups[i + 1] for i in range(3)), fam.kind


def test_A7_theta_positivity():
    with criterion("A7 theta positivity (500 random schedules)", 1.0):
        rng = np.random.default_rng(707)
        accepted = 0
        guard = 0
        while accepted < 500 and guard < 5000:
            guard += 1
            params = _random_admissible_params(rng)
            # random nu inside its interval, mu solved from beta
            vsup = nu_upper_bound(params)
            pick = F(int(rng.integers(1, 20)), 20)
            nu = 1 + (vsup - 1) * pick
            out = select_mu_nu(params, nu=nu) if params.beta != 1 else (nu, MU_UNBOUNDED)
            if is_rejected(out):
                continue
            sched = moser_exponents(params, *out)
            assert float(sched.theta1) > 1
            assert float(sched.theta3) > 1
            assert sched.theta4 == 2 + sched.theta0  # exact, including Fractions
            accepted += 1
        assert accepted == 500, f"only {accepted} schedules accepted"
