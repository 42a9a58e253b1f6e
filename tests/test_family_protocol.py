"""The family protocol: a family defined outside the catalog, here and only
here, runs through the condition checks, the schedule resolver, the solver
and the validator without any of them knowing its type.  As a radial family
it supplies the three profile methods g, g_t/t and g_tt and nothing else; a
log-domain one adds log f and (grad f)/f."""

import math

import numpy as np
import pytest

from pqlab.config import parse_config, resolve_schedule
from pqlab.exponents import ExponentParams, double_phase_params
from pqlab.growth import GrowthFn, GrowthTriple, SampleSpec, paper_triple, run_all_checks
from pqlab.integrand import Ball, RadialFamily, radial_bounds
from pqlab.solver import Grid, SolveOptions, minimize
from pqlab.validator import ProblemTemplate, measure

BALL = Ball(0.5, 0.5, 0.35)
AUTO = parse_config("[schedule]\nmode = auto\n")


class QuadQuartic(RadialFamily):
    """f(xi) = |xi|^2 + |xi|^4: profile g(t) = t^2 + t^4."""

    kind = "quad_quartic"

    def profile_value(self, x, y, t):
        t = np.asarray(t, float)
        return t * t + t**4

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        return 2 + 12 * t * t

    def profile_slope(self, x, y, t):
        t = np.asarray(t, float)
        return 2 + 4 * t * t

    def triple(self, ball):
        # g_t/t <= g_tt, and no x-dependence: g3 = 0
        return GrowthTriple(
            g1=GrowthFn(lambda t: 2 + 4 * t * t),
            g2=GrowthFn(lambda t: 2 + 12 * t * t),
            g3=GrowthFn(lambda t: 0.0 * t),
        )

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        # t^2 + t^4 is the multi phase density p = 2, q = 3 with a = 0, b = 1
        return double_phase_params(2, 3, n, two_star, third_phase=True)


class LogQuad(RadialFamily):
    """f(xi) = exp(|xi|^2), minimized through log f = |xi|^2."""

    kind = "log_quad"
    log_domain = True

    def log_value(self, x, y, gx, gy):
        return gx * gx + gy * gy

    def grad_coeff_over_f(self, x, y, gx, gy):
        return 2 * gx, 2 * gy

    def profile_value(self, x, y, t):
        return np.exp(np.asarray(t, float) ** 2)

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        return (2 + 4 * t * t) * np.exp(t * t)

    def profile_slope(self, x, y, t):
        return 2 * self.profile_value(x, y, t)


def test_outside_family_passes_the_condition_suite():
    fam = QuadQuartic()
    params = resolve_schedule(AUTO, fam, BALL).params
    assert isinstance(params, ExponentParams)
    reports = run_all_checks(fam, paper_triple(fam, BALL), params, SampleSpec(ball=BALL, seed=0))
    assert [r.verdict for r in reports] == ["pass"] * 7, "\n".join(r.row() for r in reports)


def test_outside_family_solves_and_measures():
    fam = QuadQuartic()
    tpl = ProblemTemplate(
        family=fam, grid=Grid(1.0, 33, lambda x, y: np.sin(2 * x) + 0.5 * y),
        opts=SolveOptions(tolerance=1e-6, max_iter=5000),
    )
    solved = tpl.solve(1.0)
    assert solved.trace.converged
    assert np.all(np.diff(solved.trace.energies) <= 0.0)
    sched = resolve_schedule(AUTO, fam, BALL).schedule
    rec = measure(solved, sched, 0.2, 0.35, center=(0.5, 0.5))
    values = (rec.sup_grad_sq, rec.outer_energy, rec.w22_weighted, rec.w22_unweighted, rec.c_hat, rec.c_hat_w22)
    assert all(math.isfinite(v) for v in values)
    assert rec.sup_grad_sq > 0 and rec.w22_weighted > 0
    assert rec.g1_at_zero == 2.0



def test_outside_family_radial_bounds():
    # g_t/t = 2 + 4 t^2 rises in t (case ii) and lies below g_tt = 2 + 12 t^2
    fam = QuadQuartic()
    assert radial_bounds(fam, (0.5, 0.5), 2.0) == (18.0, 50.0, "ii")
    assert radial_bounds(fam, (0.3, 0.7), 0.5) == (3.0, 5.0, "ii")


def test_outside_log_domain_family_through_the_start_guard():
    # |D(30 x)|^2 = 900 is past LOG_MAX - 20: the start guard rescales the
    # boundary data by (2 / 900)^(1/2), reading nothing but the protocol
    field, trace = minimize(Grid(1.0, 17, lambda x, y: 30 * x), LogQuad())
    assert trace.rescale_factor == pytest.approx((2.0 / 900.0) ** 0.5, rel=1e-12)
    assert trace.stop_reason == "converged"
    assert np.all(np.isfinite(field.values))
