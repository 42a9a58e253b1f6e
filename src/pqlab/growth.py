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
fitted M = sup ratio, and its verdict asks only that the ratio stay bounded.

Ratios for log-domain families (the exponential class) are formed in log
space throughout, so the tail probes at t = 10^k never overflow.

The sampled checks (sandwich, growth-A, 12M) sample x and t = |xi|.  The
sandwich tests the extreme eigenvalues of the 2x2 Hessian at each sample,
so it holds for every lam at once; nothing samples lam.  A radial family
(``family.radial``: f depends on xi through |xi| alone) is sampled along
the one direction of xi where the sampled quantity is exact: xi = (t, 0)
for the sandwich, whose eigenvalues g_tt and g_t/t do not depend on the
direction and whose Hessian is diagonal there, and for 12M, whose f does
not depend on it; xi = (t, t)/sqrt(2) for growth-A, whose
sum_i |f_{xi_i x_k}| = |d_{x_k}(g_t/t)| |xi|_1 peaks on the diagonal.
Other families (anisotropic) take the spec's seeded directions.  The
checks reduce their x samples one block of about ``_X_BLOCK_ELEMENTS``
(x, t, direction) entries at a time into the report of the whole sample
array, so their memory does not grow with the x count.

The x samples and directions are seeded uniforms: the doubles numpy's
``np.random.default_rng(seed).random(k)`` returns, bit for bit, computed
here (``_uniforms``) so that the checks never import ``numpy.random``.

Everything family-specific comes from the family (:mod:`pqlab.integrand`):
its triple, its Hessian t-cap and its radial and log-domain flags.  The
growth-function layer (GrowthFn, GrowthTriple) lives there and is
re-exported here.  The checks import no scipy, as no module of the package
does: quadrature, logsumexp and the Dawson function are numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exponents import ExponentParams
from .integrand import (  # noqa: F401  (GrowthFn: re-exported)
    Ball,
    GrowthFn,
    GrowthTriple,
    IntegrandFamily,
    ProfileDomainError,
    SaturationError,
    _log_t,
    default_t_grid,
)

_RATIO_TOL = 1e-9   # pointwise conditions (sandwich)
_FD_TOL = 1e-6      # conditions verified through finite differences
_TAIL_AGREE = 1e-3  # relative agreement declaring a stabilized tail
_X_BLOCK_ELEMENTS = 8192  # element budget of one x block of a sampled check
# The one direction of xi at which a radial family's sampled quantity is
# exact: along an axis for the Hessian and f, on the diagonal for growth-A.
_AXIS = (np.array([1.0]), np.array([0.0]))
_DIAGONAL = (np.array([math.sqrt(0.5)]), np.array([math.sqrt(0.5)]))
# lam = (1, 0), (0, 1), (1, 1) on a leading axis, stacked as the solver's
# _DIAGONAL_DIRECTIONS are: QF reads h11, h22 and h11 + 2 h12 + h22
_HESSIAN_LAMBDAS = (
    np.array([1.0, 0.0, 1.0])[:, None, None, None],
    np.array([0.0, 1.0, 1.0])[:, None, None, None],
)


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
    return TailResult(math.exp(min(float(logs[-1]), 700.0)), False, False, tuple(logs))


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


def _uniforms(seed: int, k: int) -> np.ndarray:
    """The k doubles of ``np.random.default_rng(seed).random(k)``, bit for bit,
    without importing ``numpy.random`` (which loads secrets, hashlib and
    OpenSSL).

    numpy's SeedSequence hashes the seed's little-endian uint32 words into a
    pool of 4 and draws 8 state words from it; they seed PCG64 (O'Neill 2014,
    XSL-RR 128/64), and each double is the top 53 bits of one 64-bit output.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    m32, m64, m128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * mult & m32
            value = value * const & m32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):  # MIX_MULT_L, MIX_MULT_R
        z = 0xCA01F9DD * x - 0x4973F715 * y & m32
        return z ^ z >> 16

    words = [seed >> 32 * i & m32 for i in range(max(1, (seed.bit_length() + 31) // 32))]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    w = [hashmix(pool[i % 4]) for i in range(8)]
    # uint32 pairs make uint64s little-endian; a uint64 pair is (high, low)
    init = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32) << 1 | 1
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    state = ((inc + init) * mult + inc) & m128  # from 0: step, add init, step
    out = np.empty(k)
    for i in range(k):
        state = (state * mult + inc) & m128
        x, rot = (state >> 64 ^ state) & m64, state >> 122
        out[i] = (((x >> rot | x << 64 - rot) & m64) >> 11) * 2.0 ** -53
    return out


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan for the pointwise condition checks.

    The jitter of the x samples is drawn from ``default_rng(seed)`` and the
    directions from ``default_rng(seed + 1)``: numpy's uniforms, computed by
    ``_uniforms`` without ``numpy.random``.
    """

    ball: Ball
    n_t: int = 160
    n_x: int = 12
    n_dirs: int = 6
    seed: int = 0

    def x_samples(self):
        """Deterministic polar grid (center included) plus seeded jitter."""
        gx, gy = self.ball.sample_points(3, 8)
        u = _uniforms(self.seed, 2 * self.n_x)
        r = self.ball.r * np.sqrt(u[: self.n_x])
        th = 2 * math.pi * u[self.n_x :]
        return (
            np.concatenate([gx, self.ball.cx + r * np.cos(th)]),
            np.concatenate([gy, self.ball.cy + r * np.sin(th)]),
        )

    def directions(self):
        """n_dirs seeded unit vectors (cos, sin)."""
        th = 2 * math.pi * _uniforms(self.seed + 1, self.n_dirs)
        return np.cos(th), np.sin(th)

    def t_grid(self, t_cap: Optional[float] = None):
        """{0} plus n_t log-spaced points on [1e-3, 1e3], capped at t_cap."""
        top = 1e3 if t_cap is None else min(1e3, t_cap)
        return np.concatenate([[0.0], np.logspace(-3, math.log10(top), self.n_t)])


def _grid_tail_report(
    condition: str,
    t_grid: np.ndarray,
    log_ratio_at,               # callable t-array -> log(LHS/RHS) array (M excluded)
) -> ConditionReport:
    """The grid-and-tail verdict of one condition; ``t_grid`` is {0} followed
    by increasing t > 0, as ``default_t_grid`` and ``SampleSpec.t_grid`` give.
    ``log_ratio_at`` is called once, on the grid followed by the 13 tail
    probes, and the origin, the grid and the probes are split out of it."""
    probes = 10.0 * math.sqrt(10.0) ** np.arange(13)
    ratios = np.asarray(log_ratio_at(np.concatenate([t_grid, probes])), float)
    d, dp = ratios[: t_grid.size], ratios[t_grid.size :]
    # +inf is a degenerate origin: RHS vanishes at exactly t = 0 while the
    # LHS does not; the conditions are checked on t > 0 plus the tail
    skipped_origin = d[0] == np.inf
    keep = ~np.isnan(d)  # NaN encodes 0 <= M * 0: satisfied, drop the sample
    keep[0] &= not skipped_origin
    pos, d = t_grid[keep], d[keep]
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

    dpn = np.where(dp == -np.inf, -1e9, dp)
    bounded_tail = tail.stabilized or (
        not tail.diverging and np.all(np.isfinite(dpn[-4:])) and np.all(np.diff(dpn[-4:]) <= 1e-9)
    )
    if tail.diverging or not math.isfinite(worst):
        verdict = "fail"
    elif bounded_tail:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    tail_est = math.inf if tail.diverging else (tail.estimate if (tail.stabilized or bounded_tail) else None)
    return ConditionReport(
        condition=condition,
        verdict=verdict,
        worst_ratio=worst,
        worst_t=worst_t,
        tail_limit_estimate=tail_est,
        fitted_M=fitted,
        notes="t=0 sample skipped (bound degenerate at the origin)" if skipped_origin else "",
    )


# ---------------------------------------------------------------------------
# The five checks
# ---------------------------------------------------------------------------


def _x_blocks(n_x: int, row_elements: int):
    """Consecutive slices of the x-sample axis, each of about
    _X_BLOCK_ELEMENTS elements at ``row_elements`` per x row and never fewer
    than two rows: a block result with one x row then comes from an x-free
    evaluation (or from the last block), and the checks let it stand for all x."""
    rows = max(2, _X_BLOCK_ELEMENTS // max(row_elements, 1))
    return [slice(i, i + rows) for i in range(0, n_x, rows)]


def _sandwich_ratios(lo_bound, qf, hi_bound) -> np.ndarray:
    """max(lo/qf, qf/hi) at the broadcast shape (the bounds share one shape),
    lo/qf being inf unless qf > 0 and 0 where lo <= 0, qf/hi inf unless hi > 0
    and 0 where qf <= 0.  One unmasked pass with lo = 0 where lo <= 0 and
    hi = +0 unless hi > 0 is exact where qf > 0; elsewhere the masked rule runs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lo_bound <= 0, 0.0, lo_bound) / qf
        np.maximum(ratios, qf / np.where(hi_bound > 0, hi_bound, 0.0), out=ratios)
        bad = np.broadcast_to(~(qf > 0), ratios.shape)
        if bad.any():
            lo, q, hi = (np.broadcast_to(v, ratios.shape)[bad] for v in (lo_bound, qf, hi_bound))
            r_hi = np.where(q <= 0, 0.0, np.where(hi > 0, q / hi, np.inf))
            ratios[bad] = np.maximum(np.where(lo <= 0, 0.0, np.inf), r_hi)
    return ratios


def _hessian_extremes(h11, h22, hd):
    """(lambda_min, lambda_max) of the symmetric 2x2 H = [[h11, h12], [h12, h22]]
    whose form on (1, 1) is hd, so h12 = (hd - h11 - h22) / 2.

    lambda = (h11 + h22)/2 -+ hypot(d, h12), d = (h11 - h22)/2, is formed as
    min(h11, h22) - c and max(h11, h22) + c, c = h12 (h12 / (hypot(d, h12) + |d|)).
    No two entries are multiplied (h11 h22 - h12^2 overflows where the
    exponential density nears float range), and a diagonal H, as every
    radial family has along xi = (t, 0), returns its entries bit for bit.
    A NaN or infinite entry makes h12, and so both eigenvalues, NaN."""
    with np.errstate(invalid="ignore"):  # inf - inf
        h12 = 0.5 * (hd - h11 - h22)
        d = 0.5 * (h11 - h22)
    r = np.hypot(d, h12)
    c = h12 * (h12 / np.where(r > 0, r + np.abs(d), 1.0))
    return np.minimum(h11, h22) - c, np.maximum(h11, h22) + c


def check_ellipticity_sandwich(
    family: IntegrandFamily, triple: GrowthTriple, spec: SampleSpec
) -> ConditionReport:
    """Pointwise sandwich g1 |lam|^2 <= QF <= g2 |lam|^2 over every lam at
    once: at each sampled (x, t, direction) the extreme eigenvalues of
    H = ``triple.f_scale`` D^2 f must lie in [g1(t), g2(t)].

    H comes from one ``hess_qf`` call with lam stacked as (1, 0), (0, 1),
    (1, 1) on a leading axis, its eigenvalues from :func:`_hessian_extremes`;
    each eigenvalue is rated by the masked rule of :func:`_sandwich_ratios`
    and the larger rating counts.  A radial family's Hessian at xi has the
    eigenvalues g_tt and g_t/t whatever the direction of xi, so it is
    sampled along xi = (t, 0) alone, where H is diagonal; other families
    take the spec's directions.  Axes are (x sample, t, direction), one x
    block at a time (:func:`_x_blocks`; the stack makes three QF arrays of
    a block's size); the first maximum in that order wins, a NaN first as
    under ``np.argmax``.  Where H does not depend on x (p-Laplacian, very
    degenerate) its one x row stands for all x.
    """
    xs, ys = spec.x_samples()
    ux, uy = _AXIS if family.radial else spec.directions()
    cap = family.hessian_t_cap(spec.ball)
    tg = spec.t_grid(cap)
    tg = tg[tg > 0]
    GX = tg[:, None] * ux
    GY = tg[:, None] * uy
    g1v = triple.g1(tg)[:, None]
    g2v = triple.g2(tg)[:, None]
    worst, worst_t = -math.inf, math.nan  # every ratio is >= 0 or NaN
    for blk in _x_blocks(xs.size, tg.size * ux.size):
        try:
            h = triple.f_scale * family.hess_qf(
                xs[blk, None, None], ys[blk, None, None], GX, GY, *_HESSIAN_LAMBDAS
            )
        except (ProfileDomainError, SaturationError) as exc:
            return ConditionReport(
                "ellipticity-sandwich", "inconclusive", math.nan, math.nan, notes=str(exc)
            )
        lo, hi = _hessian_extremes(*h)
        ratios = np.maximum(_sandwich_ratios(g1v, lo, g2v), _sandwich_ratios(g1v, hi, g2v))
        i = int(np.argmax(ratios))
        r = float(ratios.flat[i])
        if not math.isnan(worst) and (math.isnan(r) or r > worst):
            worst, worst_t = r, float(tg[np.unravel_index(i, ratios.shape)[1]])
        if ratios.shape[0] == 1:
            break
    verdict = "pass" if worst <= 1 + _RATIO_TOL else "fail"
    notes = "" if cap is None else f"t capped at {tg[-1]:.3g} (density representability)"
    return ConditionReport("ellipticity-sandwich", verdict, worst, worst_t, notes=notes)


def check_growth_A(
    family: IntegrandFamily, triple: GrowthTriple, spec: SampleSpec
) -> ConditionReport:
    """sum_i |f_{xi_i x_k}| <= g3(|xi|) for the scaled density
    ``triple.f_scale * f``; the mixed derivative taken by central
    differences in x of the analytic xi-gradient, all directions and t of
    one x block at a time (:func:`_x_blocks`).  A radial family's xi-gradient
    is (g_t/t)(x, t) xi, so the sum is |d_{x_k}(g_t/t)| |xi|_1, largest on
    the diagonal, where |xi|_1 = sqrt(2) t: it is sampled along
    xi = (t, t)/sqrt(2) alone; other families take the spec's directions.
    The report keeps the first maximum in (x, direction, axis, t) order;
    where the gradient does not depend on x, both differences vanish alike
    on every row and the first block stands for all x."""
    xs, ys = spec.x_samples()
    ux, uy = _DIAGONAL if family.radial else spec.directions()
    tg = spec.t_grid(family.hessian_t_cap(spec.ball))
    tg = tg[tg > 0]
    g3v = triple.g3(tg)
    # axes: (x sample, direction, t); the difference axis is stacked third
    GX = tg * ux[:, None]
    GY = tg * uy[:, None]
    worst = worst_t = 0.0
    for blk in _x_blocks(xs.size, ux.size * tg.size):
        X = xs[blk, None, None]
        Y = ys[blk, None, None]
        H = 1e-5 * np.maximum(1.0, np.maximum(np.abs(X), np.abs(Y)))
        mixed = []
        x_free = True
        for dx, dy in ((H, 0.0), (0.0, H)):
            try:
                fpx, fpy = family.grad(X + dx, Y + dy, GX, GY)
                fmx, fmy = family.grad(X - dx, Y - dy, GX, GY)
            except SaturationError as exc:
                return ConditionReport("growth-A", "inconclusive", math.nan, math.nan, notes=str(exc))
            diff = np.abs(fpx - fmx) + np.abs(fpy - fmy)
            x_free = x_free and (diff.ndim < 3 or diff.shape[0] == 1)
            mixed.append(diff / (2 * H))
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
        if best[r] > worst:
            worst, worst_t = float(best[r]), float(tg[rows[r]])
        if x_free:
            break
    verdict = "pass" if worst <= 1 + _FD_TOL else "fail"
    return ConditionReport("growth-A", verdict, worst, worst_t)


def check_11M(triple: GrowthTriple, params: ExponentParams) -> ConditionReport:
    """g2(t)^(2 gamma - 1) t^2 <= M (1 + int_0^t sqrt(g1))^alpha on a grid
    plus a stabilized tail."""
    gamma = float(params.gamma)
    alpha = float(params.alpha)

    def log_ratio(ts):
        lt = _log_t(ts)
        lhs = (2 * gamma - 1) * triple.g2.log(ts) + 2 * lt
        rhs = alpha * triple.log_one_plus_sqrt_g1_integral(ts)
        return lhs - rhs

    return _grid_tail_report("11M", default_t_grid(), log_ratio)


def check_12M(
    family: IntegrandFamily, triple: GrowthTriple, params: ExponentParams, spec: SampleSpec
) -> ConditionReport:
    """g2(|xi|)^(2 gamma - 1)|xi|^(2 gamma) <= M (1 + f)^beta with the worst
    x in the ball and the worst sampled direction; a radial f depends on
    |xi| alone, so it is sampled along xi = (t, 0) alone, other families
    along the spec's directions.  f is evaluated one x block at a time
    (:func:`_x_blocks`) and the running minimum over x and directions kept;
    where f does not depend on x, the first block stands for all x."""
    xs, ys = spec.x_samples()
    ux, uy = _AXIS if family.radial else spec.directions()
    gamma = float(params.gamma)
    beta = float(params.beta)
    scale = triple.f_scale

    def log_ratio(ts):
        ts = np.asarray(ts, float)
        lt = _log_t(ts)
        lhs = (2 * gamma - 1) * triple.g2.log(ts) + 2 * gamma * lt
        GX = ts[None, :, None] * ux[None, None, :]
        GY = ts[None, :, None] * uy[None, None, :]
        worst_rhs = np.inf
        for blk in _x_blocks(xs.size, ts.size * ux.size):
            X = xs[blk, None, None]
            Y = ys[blk, None, None]
            if family.log_domain:
                logf = family.log_value(X, Y, GX, GY) + math.log(scale)
            else:
                with np.errstate(over="ignore"):
                    fv = np.asarray(family.value(X, Y, GX, GY), float) * scale
                with np.errstate(divide="ignore"):
                    logf = np.where(fv > 0, np.log(np.maximum(fv, 1e-300)), -np.inf)
            log_rhs = beta * np.logaddexp(0.0, logf)
            # np.minimum, not fmin: a NaN anywhere in x stays NaN
            worst_rhs = np.minimum(worst_rhs, np.min(log_rhs, axis=(0, 2)))
            if log_rhs.shape[0] == 1:
                break
        return lhs - worst_rhs

    return _grid_tail_report("12M", spec.t_grid(), log_ratio)


def check_A3(triple: GrowthTriple, params: ExponentParams) -> ConditionReport:
    """g3(t) <= M (1 + t^gamma) g1(t)^(1/2) g2(t)^(gamma - 1/2), grid + tail."""
    gamma = float(params.gamma)

    def log_ratio(ts):
        lt = _log_t(ts)
        lhs = triple.g3.log(ts)
        rhs = (
            np.logaddexp(0.0, gamma * lt)
            + 0.5 * triple.g1.log(ts)
            + (gamma - 0.5) * triple.g2.log(ts)
        )
        with np.errstate(invalid="ignore"):
            return lhs - rhs

    return _grid_tail_report("A3", default_t_grid(), log_ratio)


def exponent_bound_reports(params: ExponentParams) -> tuple:
    """One report per bound, for table output."""
    a_ok = params.alpha_ok()
    b_ok = params.beta_ok()
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


def paper_triple(family: IntegrandFamily, ball: Ball) -> GrowthTriple:
    """The growth triple of a family on a working ball (``family.triple``)."""
    return family.triple(ball)
