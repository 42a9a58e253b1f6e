"""Empirical stress tests of the a-priori gradient and second-derivative
estimates on solved problems.

The estimates have the shape

    sup_{B_rho} |Du|^2              <= c (R - rho)^(-theta2) E_R^theta1
    int_{B_rho} g1(|Du|) |D^2 u|^2  <= c (R - rho)^(-theta4) E_R^theta3

with E_R = int_{B_R} (1 + f(Du)) and a non-constructive constant c.  A
pointwise bound with unknown c cannot be falsified, so the checks are:

* slope tests: the fitted log-log slope of the measured quantity against
  E_R across an amplitude sweep must not exceed the predicted theta
  exponent (+ 0.05 additive tolerance);
* ratio boundedness: the implied constants across a sweep must stay within
  a factor 10^3 of the sweep's base value (they may shrink freely - a slack
  upper bound is consistent - but must not grow past it);
* exactly assertable structure: sup over nested balls is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context, Decimal
from typing import Optional, Sequence

import numpy as np

from .exponents import MoserSchedule
from .growth import GrowthTriple, paper_triple
from .integrand import Ball, IntegrandFamily
from .solver import (
    DiscreteField,
    Grid,
    SolveOptions,
    SolveTrace,
    field_stats,
    minimize,
)

RATIO_SPREAD_LIMIT = 1e3
SLOPE_TOL = 0.05


class ThetaOscillationError(ValueError):
    """Coefficient oscillation on the ball exceeds the schedule's theta."""


@dataclass
class ProblemTemplate:
    """A solvable configuration whose boundary data can be rescaled."""

    family: IntegrandFamily
    grid: Grid
    opts: SolveOptions = SolveOptions()

    def solve(self, amplitude: float = 1.0, previous: Optional["SolvedProblem"] = None) -> "SolvedProblem":
        """Solve at one boundary amplitude.  ``previous``, a solve of this
        template at another amplitude, warm-starts it scaled by the amplitude
        ratio, unless its amplitude is 0 or its problem was rescaled; the
        start is then the bilinear interpolant."""
        grid = self.grid.scaled_boundary(amplitude)
        u0 = None
        if previous is not None and previous.amplitude != 0 and previous.trace.rescale_factor == 1.0:
            u0 = DiscreteField(grid, grid.boundary_values())
            u0.values[1:-1, 1:-1] = (amplitude / previous.amplitude) * previous.field.values[1:-1, 1:-1]
        u, trace = minimize(grid, self.family, u0, opts=self.opts)
        return SolvedProblem(grid=u.grid, family=self.family, field=u, trace=trace, amplitude=amplitude)


@dataclass
class SolvedProblem:
    grid: Grid
    family: IntegrandFamily
    field: DiscreteField
    trace: SolveTrace
    amplitude: float = 1.0


def coefficient_oscillation_theta(family: IntegrandFamily, ball: Ball) -> Optional[float]:
    """q/p of the family's oscillating coefficient on the ball; None for
    families without one."""
    coeff = family.oscillating_coefficient
    if coeff is None:
        return None
    lo, hi = coeff.range_on_ball(ball)
    if lo <= 0:
        raise ValueError("coefficient must stay positive on the measurement ball")
    return hi / lo


def oscillation_radius(family: IntegrandFamily, ball: Ball, theta: float) -> Optional[float]:
    """Sufficient radius R0 = (theta - 1) p / (3 L) for the ball condition
    q <= theta p, with p the coefficient minimum on the ball and L its
    declared Lipschitz constant.  None without an oscillating coefficient
    or for L = 0."""
    coeff = family.oscillating_coefficient
    if theta is None or coeff is None:
        return None
    if coeff.lipschitz == 0:
        return None  # constant coefficient: any radius works
    p = coeff.range_on_ball(ball)[0]
    return (float(theta) - 1.0) * p / (3.0 * coeff.lipschitz)


def _ball_triple(family: IntegrandFamily, schedule: MoserSchedule, ball: Ball) -> GrowthTriple:
    """The growth triple on a measurement ball, after the guard that the
    schedule's theta covers the coefficient oscillation there."""
    theta_ball = coefficient_oscillation_theta(family, ball)
    if theta_ball is not None:
        theta_sched = schedule.params.theta
        if theta_sched is None:
            raise ThetaOscillationError(f"{family.kind} needs a schedule carrying theta; this one has none")
        if theta_ball > float(theta_sched) * (1 + 1e-9):
            raise ThetaOscillationError(
                f"coefficient oscillation on the ball gives theta = {theta_ball:.6g} "
                f"> schedule theta = {float(theta_sched):.6g}; shrink R"
            )
    return paper_triple(family, ball)


@dataclass(frozen=True)
class MeasureRecord:
    amplitude: float
    sup_grad_sq: float      # sup over B_rho of |Du|^2
    outer_energy: float     # E_R
    w22_weighted: float     # int_{B_rho} g1(|Du|) |D^2 u|^2
    w22_unweighted: float   # int_{B_rho} |D^2 u|^2
    g1_at_zero: float       # m = g1(0); m > 0 gives w22_unweighted <= w22_weighted / m
    v_integral: float
    rho: float
    R: float
    c_hat: float            # sup^2 (R - rho)^theta2 / E_R^theta1
    c_hat_v: float          # V (R - rho)^theta0 / E_R^theta3
    c_hat_w22: float        # W22 (R - rho)^theta4 / E_R^theta3
    converged: bool
    # log-domain copies of the implied constants (large theta exponents can
    # underflow the float forms); -inf when the measured quantity vanishes
    log_c_hat: float = -np.inf
    log_c_hat_v: float = -np.inf

    def row(self) -> str:
        c_hat = format_constant(self.c_hat, self.log_c_hat, 6, 12)
        c_hat_v = format_constant(self.c_hat_v, self.log_c_hat_v, 6, 12)
        return (
            f"{self.amplitude:<10.6g} {self.sup_grad_sq:<14.8g} {self.outer_energy:<14.8g} "
            f"{self.w22_weighted:<14.8g} {c_hat:<12} {c_hat_v:<12}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'amplitude':<10} {'sup|Du|^2':<14} {'E_R':<14} "
            f"{'W22':<14} {'c_hat':<12} {'c_hat_V'}"
        )


def measure(
    problem: SolvedProblem,
    schedule: MoserSchedule,
    rho: float,
    R: float,
    center: Optional[tuple] = None,
    triple: Optional[GrowthTriple] = None,
) -> MeasureRecord:
    """One measurement of the theorem quantities on concentric balls.
    ``triple``, when given, is the ``_ball_triple`` of B_R(center), built once
    by a sweep; without it the guard runs and the triple is built here."""
    grid = problem.grid
    cx, cy = center if center is not None else grid.center()
    if triple is None:
        triple = _ball_triple(problem.family, schedule, Ball(cx, cy, R))
    st = field_stats(
        grid,
        problem.family,
        problem.field,
        rho,
        R,
        center=(cx, cy),
        triple=triple,
        gamma=float(schedule.params.gamma),
    )
    gap = R - rho
    t0, t1 = float(schedule.theta0), float(schedule.theta1)
    t2, t3, t4 = float(schedule.theta2), float(schedule.theta3), float(schedule.theta4)
    sup_sq = st.sup_grad**2
    e_r = st.outer_energy
    c_hat = _implied_constant(sup_sq, gap, t2, e_r, t1)
    c_hat_v = _implied_constant(st.v_integral, gap, t0, e_r, t3)
    c_hat_w = _implied_constant(st.w22_weighted, gap, t4, e_r, t3)
    return MeasureRecord(
        amplitude=problem.amplitude,
        sup_grad_sq=sup_sq,
        outer_energy=e_r,
        w22_weighted=st.w22_weighted,
        w22_unweighted=st.w22_unweighted,
        g1_at_zero=st.g1_at_zero,
        v_integral=st.v_integral,
        rho=rho,
        R=R,
        c_hat=c_hat,
        c_hat_v=c_hat_v,
        c_hat_w22=c_hat_w,
        converged=problem.trace.converged,
        log_c_hat=_implied_log_constant(sup_sq, gap, t2, e_r, t1),
        log_c_hat_v=_implied_log_constant(st.v_integral, gap, t0, e_r, t3),
    )


def _implied_log_constant(quantity, gap, gap_exp, energy, e_exp) -> float:
    """log of quantity * gap^gap_exp / energy^e_exp; -inf for zero quantities."""
    if quantity <= 0 or energy <= 0 or gap <= 0:
        return -np.inf
    return float(np.log(quantity) + gap_exp * np.log(gap) - e_exp * np.log(energy))


def _exp_clamped(logc: float) -> float:
    """Float form of a log quantity; clamps to 0/inf past double range."""
    if logc == -np.inf or logc < -745.0:
        return 0.0
    if logc > 700.0:
        return float(np.inf)
    return float(np.exp(logc))


def format_constant(value: float, log_value: float, digits: int, width: int) -> str:
    """``value`` in ``.{digits}g`` format, with fewer significant digits
    where that is wider than ``width`` characters.  Where ``_exp_clamped``
    clamped a finite ``log_value`` to 0 or inf, the same decimal is computed
    from the log instead, since the float cannot hold it."""
    from_log = value in (0.0, np.inf) and np.isfinite(log_value)
    for d in range(digits, 0, -1):
        shown = Context(prec=d).exp(Decimal(log_value)).normalize() if from_log else value
        text = f"{shown:.{d}g}"
        if len(text) <= width:
            break
    return text


def _implied_constant(quantity, gap, gap_exp, energy, e_exp) -> float:
    return _exp_clamped(_implied_log_constant(quantity, gap, gap_exp, energy, e_exp))


def _ols_slope(logx: np.ndarray, logy: np.ndarray) -> float:
    vx = logx - logx.mean()
    vy = logy - logy.mean()
    denom = float(vx @ vx)
    if denom <= 0:
        raise ValueError("insufficient spread: zero variance in the regressor")
    return float(vx @ vy) / denom


def _bounded_log_spread(log_values: Sequence[float], log_ref: float) -> bool:
    vals = [v for v in log_values if v > -np.inf]
    if not vals or log_ref == -np.inf:
        return True
    return max(vals) - log_ref <= np.log(RATIO_SPREAD_LIMIT)


def _ratio_flag(records, log_constant) -> Optional[bool]:
    """The records' nonzero constants bounded against the smallest-energy one;
    None (skipped) when fewer than two records have one."""
    live = [r for r in records if log_constant(r) > -np.inf]
    if len(live) < 2:
        return None
    base = min(live, key=lambda r: r.outer_energy)
    return _bounded_log_spread([log_constant(r) for r in live], log_constant(base))


def _flag(ok: Optional[bool]) -> str:
    return "skipped" if ok is None else "ok" if ok else "FAIL"


@dataclass
class EstimateReport:
    records: list
    s1: Optional[float]
    s3: Optional[float]
    theta0: float
    theta1: float
    theta2: float
    theta3: float
    theta4: float
    slope1_ok: Optional[bool]   # None: the slope could not be fitted
    slope3_ok: Optional[bool]
    ratio_ok: Optional[bool]    # None: fewer than two constants to compare
    ratio_v_ok: Optional[bool]
    failures: list = field(default_factory=list)
    notes: str = ""

    @property
    def verdict(self) -> str:
        """'fail' if a flag fails, else 'inconclusive' if a flag was
        skipped, else 'pass'."""
        flags = (self.slope1_ok, self.slope3_ok, self.ratio_ok, self.ratio_v_ok)
        if False in flags:
            return "fail"
        return "inconclusive" if None in flags else "pass"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def render(self) -> str:
        lines = [MeasureRecord.header()]
        lines += [r.row() for r in self.records]
        lines.append("-" * 78)
        s1 = "skipped" if self.s1 is None else f"{self.s1:.6g}"
        s3 = "skipped" if self.s3 is None else f"{self.s3:.6g}"
        lines.append(
            f"fitted slopes: s1 = {s1} (theta1 = {self.theta1:.6g}), "
            f"s3 = {s3} (theta3 = {self.theta3:.6g})"
        )
        lines.append(
            f"predicted exponents: theta0={self.theta0:.6g} theta1={self.theta1:.6g} "
            f"theta2={self.theta2:.6g} theta3={self.theta3:.6g} theta4={self.theta4:.6g}"
        )
        lines.append(
            "pass flags: "
            f"slope1={_flag(self.slope1_ok)} "
            f"slope3={_flag(self.slope3_ok)} "
            f"ratio={_flag(self.ratio_ok)} "
            f"ratio_V={_flag(self.ratio_v_ok)}"
        )
        for f in self.failures:
            lines.append(f"solve failure: {f}")
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def sweep_amplitudes(
    template: ProblemTemplate,
    amplitudes: Sequence[float],
    schedule: MoserSchedule,
    rho: float,
    R: float,
    center: Optional[tuple] = None,
) -> EstimateReport:
    """Solve the template across boundary amplitudes and fit scaling slopes.

    Requires >= 5 amplitudes spanning at least one decade.  Slope flags
    compare the fitted exponents against theta1/theta3 and read None
    (skipped) when fewer than 5 solves converged or fewer than 3 of them
    measure a positive quantity; ratio flags require the converged members'
    implied constants to stay within 10^3 of the smallest-energy one
    (growth past that falsifies single-constant boundedness), and read
    None when fewer than two converged members have a nonzero constant.
    Each amplitude's solve is warm-started from the one before it
    (``ProblemTemplate.solve``); the triple is built once for the sweep.
    """
    amps = [float(a) for a in amplitudes]
    if len(amps) < 5:
        raise ValueError(f"insufficient spread: need >= 5 amplitudes, got {len(amps)}")
    pos = [abs(a) for a in amps if a != 0]
    if not pos or max(pos) / min(pos) < 10 or len(set(amps)) < 3:
        raise ValueError("insufficient spread: amplitudes must span at least one decade")

    center = center if center is not None else template.grid.center()
    triple = _ball_triple(template.family, schedule, Ball(*center, R))
    records = []
    failures = []
    solved = None
    for a in amps:
        solved = template.solve(a, previous=solved)
        if not solved.trace.converged:
            failures.append(
                f"amplitude {a:g}: gradient norm {solved.trace.final_grad_norm:.3g} "
                f"after {solved.trace.iterations} iterations"
            )
        records.append(measure(solved, schedule, rho, R, center=center, triple=triple))

    good = [r for r in records if r.converged]
    t1, t3 = float(schedule.theta1), float(schedule.theta3)
    s1 = s3 = None
    if len(good) >= 5:
        xs = np.array([r.outer_energy for r in good])
        y1 = np.array([r.sup_grad_sq for r in good])
        y3 = np.array([r.w22_weighted for r in good])
        m1 = (xs > 0) & (y1 > 0)
        m3 = (xs > 0) & (y3 > 0)
        if np.sum(m1) >= 3:
            s1 = _ols_slope(np.log(xs[m1]), np.log(y1[m1]))
        if np.sum(m3) >= 3:
            s3 = _ols_slope(np.log(xs[m3]), np.log(y3[m3]))

    return EstimateReport(
        records=records,
        s1=s1,
        s3=s3,
        theta0=float(schedule.theta0),
        theta1=t1,
        theta2=float(schedule.theta2),
        theta3=t3,
        theta4=float(schedule.theta4),
        slope1_ok=None if s1 is None else s1 <= t1 + SLOPE_TOL,
        slope3_ok=None if s3 is None else s3 <= t3 + SLOPE_TOL,
        ratio_ok=_ratio_flag(good, lambda r: r.log_c_hat),
        ratio_v_ok=_ratio_flag(good, lambda r: r.log_c_hat_v),
        failures=failures,
    )


@dataclass(frozen=True)
class RadiusReport:
    pairs: tuple
    sup_values: tuple          # sup |Du|^2 on each B_rho
    normalized: tuple          # sup^2 (R - rho)^theta2
    log_normalized: tuple      # their logs; -inf where sup vanishes
    monotone_ok: bool
    bounded_ok: bool

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.bounded_ok


def radius_sweep(
    problem: SolvedProblem,
    schedule: MoserSchedule,
    pairs: Sequence[tuple],
    center: Optional[tuple] = None,
) -> RadiusReport:
    """Check nested-ball monotonicity and (R - rho)-normalized boundedness.

    Needs >= 4 pairs with one fixed R; the gaps R - rho must span a factor
    >= 4.  The normalized constants are compared against the widest-gap
    pair: they may only shrink, up to the spread limit.
    """
    if len(pairs) < 4:
        raise ValueError(f"need >= 4 (rho, R) pairs, got {len(pairs)}")
    Rs = {float(R) for _, R in pairs}
    if len(Rs) != 1:
        raise ValueError("all pairs must share the same outer radius R")
    gaps = [float(R) - float(r) for r, R in pairs]
    if min(gaps) <= 0:
        raise ValueError("need rho < R in every pair")
    if max(gaps) / min(gaps) < 4:
        raise ValueError("the gaps R - rho must span at least a factor 4")
    orderd = sorted((float(r), float(R)) for r, R in pairs)
    center = center if center is not None else problem.grid.center()
    triple = _ball_triple(problem.family, schedule, Ball(*center, Rs.pop()))
    recs = [measure(problem, schedule, r, R, center=center, triple=triple) for r, R in orderd]
    sups = [r.sup_grad_sq for r in recs]
    monotone_ok = all(sups[i] <= sups[i + 1] for i in range(len(sups) - 1))
    t2 = float(schedule.theta2)
    log_norm = [
        (np.log(r.sup_grad_sq) + t2 * np.log(r.R - r.rho)) if r.sup_grad_sq > 0 else -np.inf
        for r in recs
    ]
    normalized = [_exp_clamped(lv) for lv in log_norm]
    ref = log_norm[0]  # widest gap (smallest rho)
    bounded_ok = _bounded_log_spread(log_norm, ref if ref > -np.inf else max(log_norm))
    return RadiusReport(
        pairs=tuple(orderd),
        sup_values=tuple(sups),
        normalized=tuple(normalized),
        log_normalized=tuple(log_norm),
        monotone_ok=monotone_ok,
        bounded_ok=bounded_ok,
    )
