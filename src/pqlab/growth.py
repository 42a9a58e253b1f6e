"""Growth triples (g1, g2, g3) and numerical verification of the structural
conditions tying them to an energy density.

The five checks:

* ellipticity sandwich   g1(|xi|) |lam|^2 <= QF <= g2(|xi|) |lam|^2
* mixed-derivative bound sum_i |f_{xi_i x_k}| <= g3(|xi|)
* scale condition        g2(t)^(2 gamma - 1) t^2      <= M (1 + int_0^t sqrt(g1))^alpha
* energy condition       g2(|xi|)^(2 gamma-1)|xi|^(2 gamma) <= M (1 + f(x, xi))^beta
* mixed-vs-elliptic      g3(t) <= M (1 + t^gamma) g1(t)^(1/2) g2(t)^(gamma - 1/2)

A "pass" is finite-sample evidence, never proof: the inequality is checked
on a grid plus a geometric tail scan of the ratio (bounded iff the ratio
has a finite limit, the reduction the boundedness-via-limit lemma makes
exact).  The constant M is an output: each M-carrying condition reports the
fitted M = sup ratio; a user-supplied M is honored when present.

Ratios for the exponential class are formed in log space throughout, so the
tail probes at t = 10^k never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special

from .exponents import ExponentParams, alpha_bound_holds, beta_bound_holds
from .integrand import (
    Anisotropic,
    Ball,
    DoublePhase,
    Exponential,
    IntegrandFamily,
    LOG_MAX,
    LogPxLaplacian,
    MultiPhase,
    PLaplacian,
    ProfileDomainError,
    PxLaplacian,
    SaturationError,
    VeryDegenerate,
)

_RATIO_TOL = 1e-9   # pointwise conditions (sandwich)
_FD_TOL = 1e-6      # conditions verified through finite differences
_TAIL_AGREE = 1e-3  # relative agreement declaring a stabilized tail


class GrowthFn:
    """Monotone scalar function on [0, inf) with an optional exact log form."""

    def __init__(self, fn: Callable, log_fn: Optional[Callable] = None, source: str = ""):
        self._fn = fn
        self._log_fn = log_fn
        self.source = source

    def __call__(self, t):
        return np.asarray(self._fn(np.asarray(t, float)), float)

    def log(self, t):
        """Natural log of the value; -inf where the function vanishes."""
        if self._log_fn is not None:
            return np.asarray(self._log_fn(np.asarray(t, float)), float)
        with np.errstate(divide="ignore"):
            return np.log(self(t))

    def __repr__(self):
        return f"GrowthFn({self.source})"


@dataclass
class GrowthTriple:
    """The triple (g1, g2, g3) with the constant M and antiderivative metadata.

    ``f_scale`` multiplies the density inside the energy condition: the
    normalization g2(1) >= g1(1) >= 1 is achieved by scaling f and the
    triple together, and the scale is recorded here.  ``degenerate`` marks
    triples (the very degenerate class) that cannot meet the normalization.
    """

    g1: GrowthFn
    g2: GrowthFn
    g3: GrowthFn
    M: Optional[float] = None
    sqrt_g1_antiderivative: Optional[GrowthFn] = None
    f_scale: float = 1.0
    label: str = ""
    degenerate: bool = False
    theta: Optional[float] = None
    coeff_range: Optional[tuple] = None

    def sqrt_g1_integral(self, t) -> np.ndarray:
        """int_0^t sqrt(g1(s)) ds at every entry of ``t`` (any order, repeats
        and zeros allowed); closed form when supplied, else one cumulative
        integral over the sorted distinct t > 0.

        The cumulative integral splits [0, max t] into panels at those t and
        integrates all panels at once with 10- and 20-point Gauss-Legendre
        rules (one vectorized g1 call).  A panel keeps its 20-point value when
        the two rules agree to 1e-11 relative; otherwise, and always on the
        first panel [0, t_1], where g1 may be singular (t^(p-2), p < 2), it
        falls back to adaptive quadrature (``sqrt_g1_quadrature``).  The
        fallback catches panels holding a kink, such as t = 1 for the
        min/max-power and very degenerate triples.
        """
        t = np.atleast_1d(np.asarray(t, float))
        if self.sqrt_g1_antiderivative is not None:
            return self.sqrt_g1_antiderivative(t)
        out = np.zeros_like(t)
        pos = t > 0
        ends = np.unique(t[pos])
        if ends.size == 0:
            return out
        starts = np.concatenate([[0.0], ends[:-1]])
        mid = 0.5 * (starts + ends)[:, None]
        half = 0.5 * (ends - starts)[:, None]
        x10, w10 = special.roots_legendre(10)
        x20, w20 = special.roots_legendre(20)
        f = np.sqrt(np.maximum(self.g1(mid + half * np.concatenate([x10, x20])), 0.0))
        lo = half[:, 0] * np.sum(f[:, :10] * w10, axis=1)
        panels = half[:, 0] * np.sum(f[:, 10:] * w20, axis=1)
        refine = ~(np.abs(panels - lo) <= 1e-11 * np.abs(panels))
        refine[0] = True
        for k in np.flatnonzero(refine):
            panels[k] = self.sqrt_g1_quadrature(ends[k], starts[k])
        out[pos] = np.cumsum(panels)[np.searchsorted(ends, t[pos])]
        return out

    def sqrt_g1_quadrature(self, t: float, t0: float = 0.0) -> float:
        """int_t0^t sqrt(g1(s)) ds by adaptive quadrature (QUADPACK, epsrel 1e-9),
        with a breakpoint at the kink t = 1 of the min/max-power and very
        degenerate triples when [t0, t] holds it."""
        if t == t0:
            return 0.0
        # deferred: scipy.integrate is the largest import on the CLI path and
        # only this quadrature fallback uses it
        from scipy import integrate

        val, _err = integrate.quad(
            lambda s: math.sqrt(max(float(self.g1(s)), 0.0)), t0, t,
            epsabs=0.0, epsrel=1e-9, limit=200, points=[1.0] if t0 < 1.0 < t else None,
        )
        return val

    def log_one_plus_sqrt_g1_integral(self, t) -> np.ndarray:
        """log(1 + int_0^t sqrt(g1)), stable for huge integrals: the log form
        of the closed-form antiderivative when supplied, else the cumulative
        panel integral of ``sqrt_g1_integral``."""
        t = np.atleast_1d(np.asarray(t, float))
        if self.sqrt_g1_antiderivative is not None:
            la = self.sqrt_g1_antiderivative.log(t)
            return np.logaddexp(0.0, la)
        return np.log1p(self.sqrt_g1_integral(t))

    def sample_valid(self, t_grid=None) -> bool:
        """Nonnegative, nondecreasing, g2 >= g1 and normalized on a grid."""
        t = default_t_grid() if t_grid is None else np.asarray(t_grid, float)
        v1, v2, v3 = self.g1(t), self.g2(t), self.g3(t)
        tol = 1e-9
        ok = (
            np.all(v1 >= -tol)
            and np.all(v2 >= -tol)
            and np.all(v3 >= -tol)
            and np.all(np.diff(v1) >= -tol * np.maximum(1.0, np.abs(v1[:-1])))
            and np.all(np.diff(v2) >= -tol * np.maximum(1.0, np.abs(v2[:-1])))
            and np.all(v2 >= v1 * (1 - 1e-12))
        )
        if self.degenerate:
            return bool(ok)
        return bool(ok and self.g2(1.0) >= self.g1(1.0) >= 1.0 - 1e-12)


def default_t_grid(t_max: float = 1e3, n: int = 400) -> np.ndarray:
    """{0} plus a log-spaced grid on [1e-3, t_max]."""
    return np.concatenate([[0.0], np.logspace(-3, math.log10(t_max), n)])


# ---------------------------------------------------------------------------
# Tail estimation
# ---------------------------------------------------------------------------


class TailResult(NamedTuple):
    estimate: float       # limit estimate; inf when diverging
    stabilized: bool
    diverging: bool
    probes: tuple


def _classify_log_tail(logs: np.ndarray) -> TailResult:
    """Classify a log-ratio sequence sampled at geometric t (2 probes/decade)."""
    logs = np.asarray(logs, float)
    finite = np.isfinite(logs)
    if not np.any(finite):
        return TailResult(0.0, True, False, tuple(logs))
    if not np.all(finite):
        # -inf entries mean the ratio vanished; +inf means blow-up
        if np.any(logs == np.inf):
            return TailResult(math.inf, False, True, tuple(logs))
        if logs[-1] == -np.inf:
            return TailResult(0.0, True, False, tuple(logs))
        last = logs[finite][-1]
        return TailResult(math.exp(min(last, 700.0)), False, False, tuple(logs))
    diffs = np.diff(logs)
    if logs.size >= 3 and np.max(np.abs(logs[-1] - logs[-3:])) <= _TAIL_AGREE:
        return TailResult(math.exp(min(logs[-1], 700.0)), True, False, tuple(logs))
    if logs.size >= 6 and np.all(diffs[-5:] > 0):
        # monotone growth: a factor > 2 per decade always flags divergence;
        # slower growth flags it only when the gaps are not decelerating
        # (rules out sequences still rising toward a finite limit)
        fast = (logs[-1] - logs[-3]) > math.log(2.0)
        steady = (logs[-1] - logs[-6]) > 0.05 and diffs[-1] >= 0.5 * diffs[-5]
        if fast or steady:
            return TailResult(math.inf, False, True, tuple(logs))
    if logs.size >= 4 and np.all(diffs[-3:] <= 1e-12):
        # steadily decreasing: bounded above by the last probe
        return TailResult(math.exp(min(logs[-1], 700.0)), False, False, tuple(logs))
    return TailResult(math.exp(min(float(logs[-1]), 700.0)), False, False, tuple(logs))


def tail_limit(h: Callable, t0: float, n_probes: int = 13, step: float = math.sqrt(10.0)):
    """Estimate lim h(t) for t -> inf by geometric probing.

    Returns (estimate, stabilized); estimate is math.inf when the probes
    grow monotonically by more than a factor 2 per decade.  The full
    classification is available on the returned TailResult.
    """
    ts = max(float(t0), 1e-6) * step ** np.arange(n_probes)
    vals = np.array([float(h(t)) for t in ts], float)
    with np.errstate(divide="ignore"):
        logs = np.where(vals > 0, np.log(np.maximum(vals, 1e-300)), -np.inf)
    res = _classify_log_tail(logs)
    if res.diverging:
        return TailResult(math.inf, False, True, tuple(vals))
    if res.stabilized:
        # report the plain mean of the last probes, not the log-space value
        return TailResult(float(np.mean(vals[-3:])), True, False, tuple(vals))
    return TailResult(float(vals[-1]), False, False, tuple(vals))


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    verdict: str  # pass | fail | inconclusive
    worst_ratio: float
    worst_t: float
    tail_limit_estimate: Optional[float] = None
    fitted_M: Optional[float] = None
    notes: str = ""

    def row(self) -> str:
        tail = (
            "-"
            if self.tail_limit_estimate is None
            else ("diverging" if math.isinf(self.tail_limit_estimate) else f"{self.tail_limit_estimate:.6g}")
        )
        fm = "-" if self.fitted_M is None else f"{self.fitted_M:.6g}"
        return (
            f"{self.condition:<22} {self.verdict:<12} {self.worst_ratio:<14.6g} "
            f"{self.worst_t:<12.6g} {tail:<12} {fm}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'condition':<22} {'verdict':<12} {'worst_ratio':<14} "
            f"{'worst_t':<12} {'tail':<12} {'fitted_M'}"
        )


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan for the pointwise condition checks."""

    ball: Ball
    t_max: float = 1e3
    n_t: int = 160
    n_x: int = 12
    n_dirs: int = 6
    seed: int = 0

    def rng(self):
        return np.random.default_rng(self.seed)

    def x_samples(self):
        """Deterministic polar grid (center included) plus seeded jitter."""
        gx, gy = self.ball.sample_points(3, 8)
        rng = self.rng()
        r = self.ball.r * np.sqrt(rng.uniform(0, 1, self.n_x))
        th = rng.uniform(0, 2 * math.pi, self.n_x)
        return (
            np.concatenate([gx, self.ball.cx + r * np.cos(th)]),
            np.concatenate([gy, self.ball.cy + r * np.sin(th)]),
        )

    def directions(self, count=None, offset=0):
        k = self.n_dirs if count is None else count
        rng = np.random.default_rng(self.seed + 1 + offset)
        th = rng.uniform(0, 2 * math.pi, k)
        return np.cos(th), np.sin(th)

    def t_grid(self, t_cap: Optional[float] = None):
        top = self.t_max if t_cap is None else min(self.t_max, t_cap)
        return np.concatenate([[0.0], np.logspace(-3, math.log10(top), self.n_t)])


def _grid_tail_report(
    condition: str,
    t_grid: np.ndarray,
    log_ratio_at,               # callable t-array -> log(LHS/RHS) array (M excluded)
    M: Optional[float],
    tail_t0: float = 10.0,
    notes: str = "",
) -> ConditionReport:
    t_grid = np.asarray(t_grid, float)
    pos = t_grid[t_grid > 0]
    d = np.asarray(log_ratio_at(pos), float)
    keep = ~np.isnan(d)  # NaN encodes 0 <= M * 0: satisfied, drop the sample
    pos, d = pos[keep], d[keep]
    skipped_origin = False
    if np.any(t_grid == 0):
        d0 = float(np.asarray(log_ratio_at(np.array([0.0])))[0])
        if d0 == np.inf:
            # degenerate origin: RHS vanishes at exactly t = 0 while the LHS
            # does not; the conditions are checked on t > 0 plus the tail
            skipped_origin = True
        elif math.isfinite(d0) or d0 == -np.inf:
            pos = np.concatenate([[0.0], pos])
            d = np.concatenate([[d0], d])
        # NaN means 0 <= M * 0: satisfied, nothing to record
    probes = tail_t0 * math.sqrt(10.0) ** np.arange(13)
    dp = np.asarray(log_ratio_at(probes), float)
    tail = _classify_log_tail(dp)

    finite = d[np.isfinite(d)]
    all_vals = np.concatenate([finite, dp[np.isfinite(dp)]])
    fitted = float(np.exp(min(np.max(all_vals), 700.0))) if all_vals.size else 0.0
    if np.any(d == np.inf):
        worst = math.inf
        worst_t = float(pos[int(np.argmax(d == np.inf))])
    else:
        idx = int(np.argmax(d)) if d.size else 0
        worst = float(np.exp(min(d[idx], 700.0))) if d.size else 0.0
        worst_t = float(pos[idx]) if d.size else 0.0
    fitted_report = fitted
    if M is not None:
        worst /= M

    dpn = np.where(dp == -np.inf, -1e9, dp)
    bounded_tail = tail.stabilized or (
        not tail.diverging and np.all(np.isfinite(dpn[-4:])) and np.all(np.diff(dpn[-4:]) <= 1e-9)
    )
    if tail.diverging or not math.isfinite(worst):
        verdict = "fail"
    elif M is not None and worst > 1 + _RATIO_TOL:
        verdict = "fail"
    elif bounded_tail:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    tail_est = math.inf if tail.diverging else (tail.estimate if (tail.stabilized or bounded_tail) else None)
    note = notes
    if skipped_origin:
        note = (note + "; " if note else "") + "t=0 sample skipped (bound degenerate at the origin)"
    return ConditionReport(
        condition=condition,
        verdict=verdict,
        worst_ratio=worst,
        worst_t=worst_t,
        tail_limit_estimate=tail_est,
        fitted_M=fitted_report,
        notes=note,
    )


# ---------------------------------------------------------------------------
# The five checks
# ---------------------------------------------------------------------------


def check_ellipticity_sandwich(
    family: IntegrandFamily, triple: GrowthTriple, spec: SampleSpec
) -> ConditionReport:
    """Pointwise sandwich g1 |lam|^2 <= QF <= g2 |lam|^2 on random samples;
    QF is the Hessian form of the scaled density ``triple.f_scale * f``.

    Axes are (x sample, t, direction, lam).  Only QF and the ratios are
    full size; lam enters ``hess_qf`` as (1, 1, 1, n_lam) arrays and the
    bounds g1 |lam|^2, g2 |lam|^2 stay (1, n_t, 1, n_lam), so each element
    gets the same arithmetic as on fully broadcast inputs.
    """
    xs, ys = spec.x_samples()
    ux, uy = spec.directions()
    lx, ly = spec.directions(offset=7)
    cap = family.hessian_t_cap(spec.ball)
    tg = spec.t_grid(cap)
    tg = tg[tg > 0]
    shape = (len(xs), len(tg), len(ux), len(lx))
    T = tg[None, :, None, None]
    LX = lx[None, None, None, :]
    LY = ly[None, None, None, :]
    try:
        qf = family.hess_qf(
            xs[:, None, None, None], ys[:, None, None, None],
            T * ux[None, None, :, None], T * uy[None, None, :, None], LX, LY,
        )
    except (ProfileDomainError, SaturationError) as exc:
        return ConditionReport(
            "ellipticity-sandwich", "inconclusive", math.nan, math.nan, notes=str(exc)
        )
    qf = triple.f_scale * np.broadcast_to(qf, shape)
    lam2 = LX**2 + LY**2
    lo_bound = triple.g1(tg)[None, :, None, None] * lam2
    hi_bound = triple.g2(tg)[None, :, None, None] * lam2
    # r_lo = lo/qf where qf > 0 (else inf), 0 where lo <= 0; r_hi likewise
    with np.errstate(invalid="ignore"):
        r_lo = np.divide(lo_bound, qf, out=np.full(shape, np.inf), where=qf > 0)
        r_hi = np.divide(qf, hi_bound, out=np.full(shape, np.inf), where=hi_bound > 0)
    np.copyto(r_lo, 0.0, where=lo_bound <= 0)
    np.copyto(r_hi, 0.0, where=qf <= 0)
    ratios = np.maximum(r_lo, r_hi, out=r_lo)
    worst_flat = int(np.argmax(ratios))
    worst = float(ratios.ravel()[worst_flat])
    worst_t = float(tg[np.unravel_index(worst_flat, shape)[1]])
    verdict = "pass" if worst <= 1 + _RATIO_TOL else "fail"
    notes = "" if cap is None else f"t capped at {tg[-1]:.3g} (density representability)"
    return ConditionReport("ellipticity-sandwich", verdict, worst, worst_t, notes=notes)


def check_growth_A(
    family: IntegrandFamily, triple: GrowthTriple, spec: SampleSpec
) -> ConditionReport:
    """sum_i |f_{xi_i x_k}| <= g3(|xi|) for the scaled density
    ``triple.f_scale * f``; the mixed derivative taken by central
    differences in x of the analytic xi-gradient, all x samples, directions
    and t at once."""
    xs, ys = spec.x_samples()
    ux, uy = spec.directions()
    tg = spec.t_grid(family.hessian_t_cap(spec.ball))
    tg = tg[tg > 0]
    g3v = triple.g3(tg)
    # axes: (x sample, direction, t); the difference axis is stacked third
    X = xs[:, None, None]
    Y = ys[:, None, None]
    H = 1e-5 * np.maximum(1.0, np.maximum(np.abs(X), np.abs(Y)))
    GX = tg * ux[:, None]
    GY = tg * uy[:, None]
    mixed = []
    for dx, dy in ((H, 0.0), (0.0, H)):
        try:
            fpx, fpy = family.grad(X + dx, Y + dy, GX, GY)
            fmx, fmy = family.grad(X - dx, Y - dy, GX, GY)
        except SaturationError as exc:
            return ConditionReport("growth-A", "inconclusive", math.nan, math.nan, notes=str(exc))
        mixed.append((np.abs(fpx - fmx) + np.abs(fpy - fmy)) / (2 * H))
    mixed = triple.f_scale * np.stack(mixed, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            g3v > 0, mixed / g3v, np.where(mixed <= 1e-9 * np.maximum(1.0, tg), 0.0, np.inf)
        ).reshape(-1, tg.size)
    # first maximum in (x, direction, axis, t) order, as a sequential scan
    # with a strict update finds it; a row whose maximum is NaN never wins
    rows = np.argmax(ratio, axis=1)
    best = ratio[np.arange(ratio.shape[0]), rows]
    best = np.where(np.isnan(best), 0.0, best)
    r = int(np.argmax(best))
    worst, worst_t = (float(best[r]), float(tg[rows[r]])) if best[r] > 0 else (0.0, 0.0)
    verdict = "pass" if worst <= 1 + _FD_TOL else "fail"
    return ConditionReport("growth-A", verdict, worst, worst_t)


def check_11M(
    triple: GrowthTriple, params: ExponentParams, t_grid=None
) -> ConditionReport:
    """g2(t)^(2 gamma - 1) t^2 <= M (1 + int_0^t sqrt(g1))^alpha on a grid
    plus a stabilized tail."""
    tg = default_t_grid() if t_grid is None else np.asarray(t_grid, float)
    gamma = float(params.gamma)
    alpha = float(params.alpha)

    def log_ratio(ts):
        ts = np.asarray(ts, float)
        with np.errstate(divide="ignore"):
            lt = np.where(ts > 0, np.log(np.where(ts > 0, ts, 1.0)), -np.inf)
        lhs = (2 * gamma - 1) * triple.g2.log(ts) + 2 * lt
        rhs = alpha * triple.log_one_plus_sqrt_g1_integral(ts)
        return lhs - rhs

    return _grid_tail_report("11M", tg, log_ratio, triple.M)


def check_12M(
    family: IntegrandFamily, triple: GrowthTriple, params: ExponentParams, spec: SampleSpec
) -> ConditionReport:
    """g2(|xi|)^(2 gamma - 1)|xi|^(2 gamma) <= M (1 + f)^beta with the worst
    x in the ball and the worst sampled direction."""
    xs, ys = spec.x_samples()
    ux, uy = spec.directions()
    gamma = float(params.gamma)
    beta = float(params.beta)
    scale = triple.f_scale

    def log_ratio(ts):
        ts = np.asarray(ts, float)
        with np.errstate(divide="ignore"):
            lt = np.where(ts > 0, np.log(np.where(ts > 0, ts, 1.0)), -np.inf)
        lhs = (2 * gamma - 1) * triple.g2.log(ts) + 2 * gamma * lt
        X = xs[:, None, None]
        Y = ys[:, None, None]
        GX = ts[None, :, None] * ux[None, None, :]
        GY = ts[None, :, None] * uy[None, None, :]
        if isinstance(family, Exponential):
            logf = family.log_value(X, Y, GX, GY) + math.log(scale)
        else:
            with np.errstate(over="ignore"):
                fv = np.asarray(family.value(X, Y, GX, GY), float) * scale
            with np.errstate(divide="ignore"):
                logf = np.where(fv > 0, np.log(np.maximum(fv, 1e-300)), -np.inf)
        log_rhs = beta * np.logaddexp(0.0, logf)
        worst_rhs = np.min(log_rhs, axis=(0, 2))
        return lhs - worst_rhs

    return _grid_tail_report("12M", spec.t_grid(), log_ratio, triple.M)


def check_A3(triple: GrowthTriple, params: ExponentParams, t_grid=None) -> ConditionReport:
    """g3(t) <= M (1 + t^gamma) g1(t)^(1/2) g2(t)^(gamma - 1/2), grid + tail."""
    tg = default_t_grid() if t_grid is None else np.asarray(t_grid, float)
    gamma = float(params.gamma)

    def log_ratio(ts):
        ts = np.asarray(ts, float)
        with np.errstate(divide="ignore"):
            lt = np.where(ts > 0, np.log(np.where(ts > 0, ts, 1.0)), -np.inf)
        lhs = triple.g3.log(ts)
        rhs = (
            np.logaddexp(0.0, gamma * lt)
            + 0.5 * triple.g1.log(ts)
            + (gamma - 0.5) * triple.g2.log(ts)
        )
        with np.errstate(invalid="ignore"):
            return lhs - rhs

    return _grid_tail_report("A3", tg, log_ratio, triple.M)


def check_exponent_bounds(params: ExponentParams) -> ConditionReport:
    """Strict bounds on alpha and beta; exact arithmetic on rational inputs."""
    a_ok = alpha_bound_holds(params)
    b_ok = beta_bound_holds(params)
    if a_ok and b_ok:
        return ConditionReport(
            "alpha-bound", "pass", 0.0, 0.0, notes="beta-bound verified as well"
        )
    cond = "alpha-bound" if not a_ok else "beta-bound"
    if not a_ok:
        note = f"alpha = {float(params.alpha):.6g} outside [2, {float(params.alpha_upper_bound()):.6g})"
    else:
        ub = params.beta_upper_bound()
        note = f"beta = {float(params.beta):.6g} outside [1, {float(ub):.6g})"
    return ConditionReport(cond, "fail", math.inf, 0.0, notes=note)


def exponent_bound_reports(params: ExponentParams) -> tuple:
    """One report per bound, for table output."""
    a_ok = alpha_bound_holds(params)
    b_ok = beta_bound_holds(params)
    ra = ConditionReport(
        "alpha-bound",
        "pass" if a_ok else "fail",
        0.0 if a_ok else math.inf,
        0.0,
        notes=f"2 <= {float(params.alpha):.6g} < {float(params.alpha_upper_bound()):.6g}",
    )
    ub = params.beta_upper_bound()
    rb = ConditionReport(
        "beta-bound",
        "pass" if b_ok else "fail",
        0.0 if b_ok else math.inf,
        0.0,
        notes=f"1 <= {float(params.beta):.6g} < "
        + ("inf (vacuous)" if math.isinf(float(ub)) else f"{float(ub):.6g}"),
    )
    return ra, rb


def run_all_checks(
    family: IntegrandFamily,
    triple: GrowthTriple,
    params: ExponentParams,
    spec: SampleSpec,
) -> list:
    """The full condition table in spec order."""
    reports = [
        check_ellipticity_sandwich(family, triple, spec),
        check_growth_A(family, triple, spec),
        check_11M(triple, params),
        check_12M(family, triple, params, spec),
        check_A3(triple, params),
    ]
    reports.extend(exponent_bound_reports(params))
    return reports


# ---------------------------------------------------------------------------
# Triple catalog: honest constants on a working ball
# ---------------------------------------------------------------------------


def _power_growth_fn(coef: float, expo: float, source="") -> GrowthFn:
    def fn(t):
        return coef * np.power(np.asarray(t, float), expo)

    def log_fn(t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore"):
            lt = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)
        if coef == 0:
            return np.full_like(t, -np.inf)
        if expo == 0:
            return np.full_like(t, math.log(coef))
        return math.log(coef) + expo * lt

    return GrowthFn(fn, log_fn, source or f"{coef:g} t^{expo:g}")


def _power_sum_fn(terms, source="") -> GrowthFn:
    """sum of c_i t^(e_i) with a stable log via the dominant term."""
    terms = [(float(c), float(e)) for c, e in terms if c != 0]

    def fn(t):
        t = np.asarray(t, float)
        out = np.zeros_like(t)
        for c, e in terms:
            out = out + c * np.power(t, e)
        return out

    def log_fn(t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore"):
            lt = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)
        if not terms:
            return np.full_like(t, -np.inf)
        parts = np.stack(
            [math.log(c) + (e * lt if e != 0 else np.zeros_like(lt)) for c, e in terms]
        )
        return special.logsumexp(parts, axis=0)

    return GrowthFn(fn, log_fn, source)


def _min_max_power_fns(coef_lo, coef_hi, e_small, e_big):
    """(g1, g2) = (coef_lo min(t^e_small, t^e_big), coef_hi max(...)).

    The min/max swap at t = 1 mirrors the inf/sup over the ball of a
    variable power t^(p(x) - 2) with exponent range [e_small, e_big] + 2.
    """

    def lo(t):
        t = np.asarray(t, float)
        return coef_lo * np.minimum(np.power(t, e_small), np.power(t, e_big))

    def hi(t):
        t = np.asarray(t, float)
        return coef_hi * np.maximum(np.power(t, e_small), np.power(t, e_big))

    def _elog(e, lt):
        return e * lt if e != 0 else np.zeros_like(lt)

    def lo_log(t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore"):
            lt = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)
        return math.log(coef_lo) + np.minimum(_elog(e_small, lt), _elog(e_big, lt))

    def hi_log(t):
        t = np.asarray(t, float)
        with np.errstate(divide="ignore"):
            lt = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)
        return math.log(coef_hi) + np.maximum(_elog(e_small, lt), _elog(e_big, lt))

    return GrowthFn(lo, lo_log), GrowthFn(hi, hi_log)


def paper_triple(family: IntegrandFamily, ball: Ball, omega: float = 0.01) -> GrowthTriple:
    """The growth triple for a catalog family on a working ball.

    Constants are honest bounds on the ball (inf/sup of coefficients taken
    there), so the sandwich holds pointwise; the scale conditions then carry
    a finite fitted M.
    """
    n_dim = 2
    sn = math.sqrt(n_dim)
    if isinstance(family, PLaplacian):
        p = family.p
        t = GrowthTriple(
            g1=_power_growth_fn(p, p - 2),
            g2=_power_growth_fn(p * (p - 1), p - 2),
            g3=_power_growth_fn(0.0, 0.0, source="0"),
            sqrt_g1_antiderivative=_power_growth_fn(math.sqrt(p) / (p / 2), p / 2),
            label=family.describe(),
        )
        return t
    if isinstance(family, MultiPhase):
        p, q, r = family.p, family.q, family.r
        a_lo, a_hi = family.a.range_on_ball(ball)
        b = family.b
        g1 = _power_sum_fn([(p, p - 2), (a_lo * q, q - 2), (b * r, r - 2)])
        g2 = _power_sum_fn(
            [(p * (p - 1), p - 2), (a_hi * q * (q - 1), q - 2), (b * r * (r - 1), r - 2)]
        )
        g3 = _power_growth_fn(sn * family.a.lipschitz * q, q - 1)
        return GrowthTriple(g1=g1, g2=g2, g3=g3, label=family.describe(),
                            coeff_range=(a_lo, a_hi))
    if isinstance(family, DoublePhase):
        p, q = family.p, family.q
        a_lo, a_hi = family.a.range_on_ball(ball)
        g1 = _power_sum_fn([(p, p - 2), (a_lo * q, q - 2)])
        g2 = _power_sum_fn([(p * (p - 1), p - 2), (a_hi * q * (q - 1), q - 2)])
        g3 = _power_growth_fn(sn * family.a.lipschitz * q, q - 1)
        return GrowthTriple(g1=g1, g2=g2, g3=g3, label=family.describe(),
                            coeff_range=(a_lo, a_hi))
    if isinstance(family, Exponential):
        if family.tau != 2:
            raise ValueError("the triple catalog certifies the exponential class at tau = 2 only")
        p, q = family.a.range_on_ball(ball)
        if p <= 0:
            raise ValueError("exponential coefficient must be positive on the ball")
        c1 = 2 * p
        c2 = max(4 * q * q, 2 * q)
        c3 = 2 * sn * family.a.lipschitz * max(1.0, q)

        def g1(t):
            t = np.asarray(t, float)
            s = p * t * t
            if np.max(s, initial=0.0) > LOG_MAX:
                raise SaturationError(float(np.max(s)))
            return c1 * np.exp(s)

        def g1_log(t):
            t = np.asarray(t, float)
            return math.log(c1) + p * t * t

        def g2(t):
            t = np.asarray(t, float)
            s = q * t * t
            if np.max(s, initial=0.0) > LOG_MAX:
                raise SaturationError(float(np.max(s)))
            return c2 * (1 + t * t) * np.exp(s)

        def g2_log(t):
            t = np.asarray(t, float)
            return math.log(c2) + np.log1p(t * t) + q * t * t

        def g3(t):
            t = np.asarray(t, float)
            s = q * t * t
            if np.max(s, initial=0.0) > LOG_MAX:
                raise SaturationError(float(np.max(s)))
            return c3 * t * (1 + t * t) * np.exp(s)

        def g3_log(t):
            t = np.asarray(t, float)
            with np.errstate(divide="ignore"):
                lt = np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)
            return math.log(c3) + lt + np.log1p(t * t) + q * t * t

        # int_0^t sqrt(c1) e^(p s^2 / 2) ds = sqrt(c1 pi/(2p)) erfi(sqrt(p/2) t);
        # erfi via dawsn keeps the log form overflow-free
        amp = math.sqrt(c1 * math.pi / (2 * p))

        def anti(t):
            t = np.asarray(t, float)
            return amp * special.erfi(np.sqrt(p / 2) * t)

        def anti_log(t):
            t = np.asarray(t, float)
            xx = np.sqrt(p / 2) * t
            with np.errstate(divide="ignore"):
                ld = np.where(xx > 0, np.log(np.maximum(special.dawsn(xx), 1e-300)), -np.inf)
            return math.log(amp) + math.log(2 / math.sqrt(math.pi)) + xx * xx + ld

        theta = q / p
        return GrowthTriple(
            g1=GrowthFn(g1, g1_log),
            g2=GrowthFn(g2, g2_log),
            g3=GrowthFn(g3, g3_log),
            sqrt_g1_antiderivative=GrowthFn(anti, anti_log),
            label=family.describe(),
            theta=theta,
            coeff_range=(p, q),
        )
    if isinstance(family, PxLaplacian):
        p, q = family.pfun.range_on_ball(ball)
        g1, g2 = _min_max_power_fns(p, q * (q - 1), p - 2, q - 2)
        c3 = sn * family.pfun.lipschitz * max(
            1 + q / omega, 1 + q / (math.e * max(p - 1, 1e-9))
        )
        g3 = _power_sum_fn([(c3, 0.0), (c3, q - 1 + omega)])
        return GrowthTriple(
            g1=g1, g2=g2, g3=g3, label=family.describe(), theta=q / p, coeff_range=(p, q)
        )
    if isinstance(family, LogPxLaplacian):
        p, q = family.pfun.range_on_ball(ball)

        def ell(t):
            return np.log1p(np.asarray(t, float) ** 2)

        base_lo, base_hi = _min_max_power_fns(1.0, 1.0, p - 2, q - 2)
        c2 = max(q * (q - 1), 4 * q) + 1.0

        def g1(t):
            return p * base_lo(t) * ell(t)

        def g2(t):
            return c2 * base_hi(t) * (ell(t) + 1)

        # |g_t x_k| has no clean closed constant; fit c3 on a dense scan
        c3 = _fit_logpx_g3_constant(family, ball, q, omega) * 1.05
        g3 = _power_sum_fn([(c3, 0.0), (c3, q - 1 + omega)])
        return GrowthTriple(
            g1=GrowthFn(g1),
            g2=GrowthFn(g2),
            g3=g3,
            label=family.describe(),
            theta=q / p,
            coeff_range=(p, q),
        )
    if isinstance(family, VeryDegenerate):
        pp = family.p

        def g1(t):
            t = np.asarray(t, float)
            s = np.maximum(t - 1.0, 0.0)
            return np.where(t > 1, np.power(s, pp - 1) / np.where(t > 0, t, 1.0), 0.0)

        def g2(t):
            t = np.asarray(t, float)
            s = np.maximum(t - 1.0, 0.0)
            return np.where(t > 1, (pp - 1) * np.power(np.where(t > 1, s, 1.0), pp - 2), 0.0)

        return GrowthTriple(
            g1=GrowthFn(g1),
            g2=GrowthFn(g2),
            g3=_power_growth_fn(0.0, 0.0, source="0"),
            label=family.describe(),
            degenerate=True,
        )
    if isinstance(family, Anisotropic):
        q = family.q
        if family.aij is not None:
            lo, hi = family.eigen_range_on_ball(ball)
            if lo <= 0:
                raise ValueError("anisotropic coefficient matrix must stay positive definite")
            c1 = 2 * lo
            c2 = 2 * hi
            L = max(c.lipschitz for c in family.aij)
            c3 = 2 * n_dim * sn * L
            p = 2.0
        else:
            p = family.base_p
            c1, c2_base, c3 = family.base_constants
            c2 = c2_base
        g1 = _power_growth_fn(c1, p - 2)
        g2 = _power_sum_fn([(max(c2, 1.0), p - 2), (q * (q - 1), q - 2)])
        g3 = _power_growth_fn(c3, p - 1) if c3 else _power_growth_fn(0.0, 0.0, source="0")
        triple = GrowthTriple(g1=g1, g2=g2, g3=g3, label=family.describe())
        return _normalize(triple)
    raise TypeError(f"no cataloged triple for {family!r}")


def _fit_logpx_g3_constant(family: LogPxLaplacian, ball: Ball, q: float, omega: float) -> float:
    xs, ys = ball.sample_points(6, 8)
    X, Y = xs[:, None], ys[:, None]
    ts = np.logspace(-3, 3, 160)
    h = 1e-6
    envelope = 1.0 + np.power(ts, q - 1 + omega)
    worst = 0.0
    for dx, dy in ((h, 0.0), (0.0, h)):
        gp = family.profile_dt(X + dx, Y + dy, ts)
        gm = family.profile_dt(X - dx, Y - dy, ts)
        mixed = math.sqrt(2.0) * np.abs(gp - gm) / (2 * h)
        worst = max(worst, float(np.max(mixed / envelope)))
    return max(worst, 1e-6)


def _normalize(triple: GrowthTriple) -> GrowthTriple:
    """Rescale (g1, g2, g3, f) together until g2(1) >= g1(1) >= 1."""
    v1 = float(triple.g1(1.0))
    if v1 >= 1.0 or triple.degenerate:
        return triple
    if v1 <= 0:
        raise ValueError("triple cannot be normalized: g1(1) = 0")
    s = 1.0 / v1

    def scaled(g, factor=s):
        return GrowthFn(
            lambda t: factor * g(t), lambda t: math.log(factor) + g.log(t), g.source
        )

    anti = triple.sqrt_g1_antiderivative
    if anti is not None:
        anti = scaled(anti, math.sqrt(s))
    return GrowthTriple(
        g1=scaled(triple.g1),
        g2=scaled(triple.g2),
        g3=scaled(triple.g3),
        M=triple.M,
        sqrt_g1_antiderivative=anti,
        f_scale=triple.f_scale * s,
        label=triple.label,
        degenerate=triple.degenerate,
        theta=triple.theta,
        coeff_range=triple.coeff_range,
    )
