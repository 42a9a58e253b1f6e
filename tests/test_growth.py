"""Structural growth conditions: checker fidelity on the cataloged classes."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from pqlab.exponents import (
    ExponentParams,
    anisotropic_params,
    auto_exponential_params,
    auto_px_params,
    default_params,
    double_phase_params,
    px_delta,
    sobolev_context,
)
from pqlab.growth import (
    _RATIO_TOL,
    _X_BLOCK_ELEMENTS,
    _classify_log_tail,
    _grid_tail_report,
    _sandwich_ratios,
    _uniforms,
    _x_blocks,
    ConditionReport,
    GrowthFn,
    GrowthTriple,
    SampleSpec,
    check_11M,
    check_12M,
    check_A3,
    check_ellipticity_sandwich,
    check_growth_A,
    default_t_grid,
    exponent_bound_reports,
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
    ProfileDomainError,
    PxLaplacian,
    SaturationError,
    VeryDegenerate,
    _dawson,
    _erfi,
    _gauss_legendre,
    _log_t,
    _power_sum_fn,
)

BALL = Ball(0.5, 0.5, 0.35)
SPEC = SampleSpec(ball=BALL, n_t=100, n_x=8, n_dirs=5, seed=3)


def power_fn(c, e):
    return GrowthFn(lambda t: c * np.power(np.asarray(t, float), e))


# --- tail classification -------------------------------------------------------


def classify_tail(h, t0):
    """The tail of h classified as the checks classify a ratio's: log h at
    13 probes from t0, two per decade."""
    ts = t0 * math.sqrt(10.0) ** np.arange(13)
    with np.errstate(divide="ignore"):
        return _classify_log_tail(np.log([float(h(t)) for t in ts]))


def test_tail_limit_rational_limit_one():
    est, stab = classify_tail(lambda t: t * t / (1 + t * t), 1.0)[:2]
    assert stab and est == pytest.approx(1.0, rel=1e-3)


def test_tail_limit_diverging_power():
    res = classify_tail(lambda t: math.sqrt(t), 1.0)
    assert res.diverging and math.isinf(res.estimate)


@pytest.mark.parametrize("c", [0.0, 1.0, 17.5])
def test_tail_limit_constant(c):
    est, stab = classify_tail(lambda t: c, 5.0)[:2]
    assert stab and est == pytest.approx(c, abs=1e-12)


def test_tail_limit_anisotropic_ratio_p_equals_q():
    # t^(p/2) / ((1 + t^gamma)(1 + t^(q-2))^(gamma - 1/2)) at p = q = 3, gamma = 1
    def h(t):
        return t**1.5 / ((1 + t) * (1 + t) ** 0.5)

    res = classify_tail(h, 10.0)
    assert res.stabilized and math.isfinite(res.estimate)


@pytest.mark.parametrize(
    "logs, want",
    [
        ([0.0, 1.0, np.inf, 2.0], (math.inf, False, True)),  # a +inf probe: blow-up
        ([0.5, 0.2, -np.inf], (0.0, True, False)),  # the last probe vanished
        ([-np.inf, 0.3, 0.2], (math.exp(0.2), False, False)),  # the last finite probe
        ([-np.inf, -np.inf], (0.0, True, False)),
    ],
)
def test_classify_log_tail_with_infinite_probes(logs, want):
    assert _classify_log_tail(np.array(logs))[:3] == want


GAMMA1 = ExponentParams(2, 1, 1, 0, sobolev_context(3))


def synthetic_A3(log_ratio):
    """check_A3 at gamma = 1 on a triple with g1 = g2 = 1, whose g3 is set so
    that the A3 log ratio is ``log_ratio(t)``."""
    one = GrowthFn(np.ones_like, np.zeros_like)

    def g3_log(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return log_ratio(t) + np.logaddexp(0.0, _log_t(t))

    g3 = GrowthFn(lambda t: np.exp(g3_log(t)), g3_log)
    return check_A3(GrowthTriple(g1=one, g2=one, g3=g3), GAMMA1)


def test_grid_tail_report_calls_its_ratio_once():
    # one call on the grid followed by the 13 tail probes; the origin, the
    # grid and the probes are split out of it
    grid = default_t_grid()
    probes = 10.0 * math.sqrt(10.0) ** np.arange(13)
    calls = []

    def log_ratio(t):
        calls.append(np.array(t))
        # +inf at the origin (skipped), t/(1+t) on the grid, 0 past it
        with np.errstate(divide="ignore"):
            return np.where(t == 0, np.inf, np.where(t > 1e3, -np.inf, np.log(t / (1 + t))))

    rep = _grid_tail_report("A3", grid, log_ratio)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.concatenate([grid, probes]))
    assert (rep.verdict, rep.worst_t, rep.tail_limit_estimate) == ("pass", 1e3, 0.0)
    assert rep.notes == "t=0 sample skipped (bound degenerate at the origin)"
    assert rep.worst_ratio == rep.fitted_M == pytest.approx(1e3 / (1 + 1e3), rel=1e-12)


def test_grid_tail_report_inconclusive_on_an_oscillating_tail():
    # sin(pi log10 t) at the probes t = 10^(1 + k/2): 0, -1, 0, 1, ... neither
    # settles nor grows, so the tail is neither bounded nor diverging
    rep = synthetic_A3(lambda t: 0.5 * np.sin(math.pi * np.log10(np.maximum(t, 1e-300))))
    assert rep.verdict == "inconclusive" and rep.tail_limit_estimate is None
    assert 1.0 < rep.worst_ratio <= math.exp(0.5)
    assert rep.row().split()[4] == "-"


def test_grid_tail_report_infinite_worst_ratio():
    # the ratio is +inf on [1, 2] of the grid and 1 elsewhere
    rep = synthetic_A3(lambda t: np.where((t >= 1) & (t <= 2), np.inf, 0.0))
    grid = default_t_grid()
    assert (rep.verdict, rep.worst_ratio, rep.worst_t) == ("fail", math.inf, grid[grid >= 1][0])
    assert (rep.tail_limit_estimate, rep.fitted_M) == (1.0, 1.0)
    assert rep.row().split()[2] == "inf"


@pytest.mark.parametrize(
    "log_ratio, verdict, tail",
    [
        (lambda t: np.where(t > 1e5, np.inf, 0.0), "fail", math.inf),  # blows up past the grid
        (lambda t: np.where(t > 1e5, -np.inf, 0.0), "pass", 0.0),  # vanishes past the grid
        (lambda t: np.where((t > 1e4) & (t < 1e6), -np.inf, 0.0), "inconclusive", None),
    ],
    ids=["probe-inf", "probe-vanishes", "probe-vanishes-then-returns"],
)
def test_grid_tail_report_on_partly_infinite_tails(log_ratio, verdict, tail):
    rep = synthetic_A3(log_ratio)
    assert (rep.verdict, rep.tail_limit_estimate, rep.worst_ratio) == (verdict, tail, 1.0)


# --- sandwich ------------------------------------------------------------------


def test_sandwich_plaplacian_paper_bounds():
    triple = GrowthTriple(g1=power_fn(3, 1), g2=power_fn(6, 1), g3=power_fn(0, 0))
    rep = check_ellipticity_sandwich(PLaplacian(3), triple, SPEC)
    assert rep.verdict == "pass"
    assert rep.worst_ratio <= 1 + 1e-9


def test_sandwich_fails_for_subquadratic_upper_bound():
    # p = 4: QF along xi || lam is 12 t^2 which outgrows g2(t) = t past t = 1/12
    triple = GrowthTriple(g1=power_fn(4, 2), g2=power_fn(1, 1), g3=power_fn(0, 0))
    rep = check_ellipticity_sandwich(PLaplacian(4), triple, SPEC)
    assert rep.verdict == "fail"
    assert rep.worst_t > 1.0


def test_sandwich_exponential_catalog():
    fam = Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x"))
    triple = paper_triple(fam, BALL)
    rep = check_ellipticity_sandwich(fam, triple, SPEC)
    assert rep.verdict == "pass"


def test_sandwich_and_growth_A_compare_against_scaled_density():
    # g1(1) = 2 * 0.2 < 1, so the triple is normalized by f_scale = 2.5 and
    # the density it bounds is 2.5 f
    a22 = Coefficient(lambda x, y: 0.2 + 0.1 * x, 0.1, "0.2+0.1*x")
    fam = Anisotropic(2.5, aij=(Coefficient.constant(0.2), Coefficient.constant(0.0), a22))
    triple = paper_triple(fam, BALL)
    assert triple.f_scale == pytest.approx(2.5)
    rep = check_ellipticity_sandwich(fam, triple, SPEC)
    assert rep.verdict == "pass", rep.row()
    unscaled = dataclasses.replace(triple, f_scale=1.0)
    ratio = check_growth_A(fam, triple, SPEC).worst_ratio
    assert ratio == pytest.approx(2.5 * check_growth_A(fam, unscaled, SPEC).worst_ratio, rel=1e-12)


AXIS = (np.array([1.0]), np.array([0.0]))
DIAGONAL = (np.array([math.sqrt(0.5)]), np.array([math.sqrt(0.5)]))


def sandwich_reference(family, triple, spec):
    """The sandwich on the 2x2 Hessians assembled over the whole (x, t,
    direction) product from three ``hess_qf`` calls, their eigenvalues by
    ``np.linalg.eigvalsh``; a radial family along xi = (t, 0) alone.

    Returns the report and the t at which some ratio comes within 1e-12
    relative of the worst: where g2 or g1 equals an eigenvalue over a range
    of t, the ratio is 1 there to the last bit, and eigvalsh's rounding and
    the check's pick different first maxima."""
    xs, ys = spec.x_samples()
    ux, uy = AXIS if family.radial else spec.directions()
    cap = family.hessian_t_cap(spec.ball)
    tg = spec.t_grid(cap)
    tg = tg[tg > 0]
    shape = (xs.size, tg.size, ux.size)
    X, Y = xs[:, None, None], ys[:, None, None]
    GX, GY = tg[None, :, None] * ux, tg[None, :, None] * uy
    try:
        h11, h22, hd = (
            np.broadcast_to(triple.f_scale * family.hess_qf(X, Y, GX, GY, lx, ly), shape)
            for lx, ly in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        )
    except (ProfileDomainError, SaturationError) as exc:
        return ConditionReport("ellipticity-sandwich", "inconclusive", math.nan, math.nan, notes=str(exc)), []
    h12 = (hd - h11 - h22) / 2
    H = np.stack([np.stack([h11, h12], axis=-1), np.stack([h12, h22], axis=-1)], axis=-2)
    # eigvalsh does not propagate a NaN entry: a matrix with a NaN or inf
    # entry reads NaN eigenvalues
    finite = np.all(np.isfinite(H), axis=(-2, -1))
    eig = np.linalg.eigvalsh(np.where(finite[..., None, None], H, 0.0))
    eig[~finite] = np.nan
    lo_bound = triple.g1(tg)[None, :, None, None]
    hi_bound = triple.g2(tg)[None, :, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r_lo = np.where(lo_bound <= 0, 0.0, np.where(eig > 0, lo_bound / eig, np.inf))
        r_hi = np.where(eig <= 0, 0.0, np.where(hi_bound > 0, eig / hi_bound, np.inf))
    r_lo[np.isnan(eig)] = np.nan
    ratios = np.max(np.maximum(r_lo, r_hi), axis=-1)  # NaN wins, as np.max keeps it
    worst_flat = int(np.argmax(ratios))
    worst = float(ratios.ravel()[worst_flat])
    worst_t = float(tg[np.unravel_index(worst_flat, shape)[1]])
    verdict = "pass" if worst <= 1 + _RATIO_TOL else "fail"
    notes = "" if cap is None else f"t capped at {tg[-1]:.3g} (density representability)"
    with np.errstate(invalid="ignore"):
        tied = tg[np.any(ratios >= worst * (1 - 1e-12), axis=(0, 2))]
    return ConditionReport("ellipticity-sandwich", verdict, worst, worst_t, notes=notes), list(tied)


def sampled_sandwich_reference(family, triple, spec):
    """The sandwich on n_dirs seeded lam (``default_rng(seed + 8)``) and the
    spec's directions, QF materialized to the full (x, t, direction, lam)
    shape: the sampled rule, which the eigenvalue sandwich must never read
    lower than."""
    xs, ys = spec.x_samples()
    ux, uy = spec.directions()
    th = 2 * math.pi * _uniforms(spec.seed + 8, spec.n_dirs)
    lx, ly = np.cos(th), np.sin(th)
    tg = spec.t_grid(family.hessian_t_cap(spec.ball))
    tg = tg[tg > 0]
    X = xs[:, None, None, None]
    Y = ys[:, None, None, None]
    T = tg[None, :, None, None]
    GX = T * ux[None, None, :, None]
    GY = T * uy[None, None, :, None]
    LX = np.broadcast_to(lx[None, None, None, :], (len(xs), len(tg), len(ux), len(lx)))
    LY = np.broadcast_to(ly[None, None, None, :], LX.shape)
    qf = triple.f_scale * family.hess_qf(X, Y, GX, GY, LX, LY)
    lam2 = LX**2 + LY**2
    lo_bound = triple.g1(tg)[None, :, None, None] * lam2
    hi_bound = triple.g2(tg)[None, :, None, None] * lam2
    with np.errstate(divide="ignore", invalid="ignore"):
        r_lo = np.where(lo_bound <= 0, 0.0, np.where(qf > 0, lo_bound / qf, np.inf))
        r_hi = np.where(qf <= 0, 0.0, np.where(hi_bound > 0, qf / hi_bound, np.inf))
    return float(np.max(np.maximum(r_lo, r_hi)))


def assert_matches_sandwich_reference(family, triple, spec):
    """The check against :func:`sandwich_reference`: the same verdict and
    notes, worst_ratio within 1e-12 relative, and the same worst_t, or at a
    tie one of the tied t; returns the check's report."""
    rep = check_ellipticity_sandwich(family, triple, spec)
    ref, tied = sandwich_reference(family, triple, spec)
    assert (rep.condition, rep.verdict, rep.notes) == (ref.condition, ref.verdict, ref.notes), (rep, ref)
    assert rep.worst_ratio == pytest.approx(ref.worst_ratio, rel=1e-12, nan_ok=True), (rep, ref)
    assert repr(rep.worst_t) == repr(ref.worst_t) or rep.worst_t in tied, (rep, ref)
    return rep


class SingularHessian(DoublePhase):
    """Double phase whose Hessian form is singular at one point; records the
    x-block shapes it is called with."""

    def __init__(self, point):
        super().__init__(2.0, 3.0, A_QUAD)
        self.point = point
        self.calls = []

    def hess_qf(self, x, y, gx, gy, lx, ly):
        self.calls.append(np.shape(x))
        if np.any((x == self.point[0]) & (y == self.point[1])):
            raise ProfileDomainError("Hessian form singular at the last sample")
        return super().hess_qf(x, y, gx, gy, lx, ly)


@pytest.mark.parametrize("seed", range(6))
def test_sandwich_matches_materialized_reference(seed):
    spec = dataclasses.replace(SPEC, seed=seed)
    for fam, _params in catalog_cases():
        triple = paper_triple(fam, BALL)
        rep = assert_matches_sandwich_reference(fam, triple, spec)
        assert ("t capped at" in rep.notes) == isinstance(fam, Exponential)
        # exact extremes never read below the sampled lam and directions
        assert rep.worst_ratio >= sampled_sandwich_reference(fam, triple, spec) * (1 - 1e-12), fam.kind
    # singular at the last x sample: the report comes from a later x block
    spec = dataclasses.replace(WIDE_SPEC, seed=seed)
    xs, ys = spec.x_samples()
    fam = SingularHessian((xs[-1], ys[-1]))
    rep = check_ellipticity_sandwich(fam, paper_triple(fam, BALL), spec)
    assert len(fam.calls) > 1 and sum(shape[0] for shape in fam.calls) == xs.size
    assert (rep.verdict, rep.notes) == ("inconclusive", "Hessian form singular at the last sample")
    assert math.isnan(rep.worst_ratio) and math.isnan(rep.worst_t)


def test_sandwich_fails_a_g2_cut_below_the_top_eigenvalue():
    # g2 = p (p - 1) t^(p - 2) is the p-Laplacian Hessian's top eigenvalue
    # g_tt; cut 0.01% below it, 6 seeded lam and directions read 0.99179 to
    # 0.99992 at seeds 0-5 (sampled_sandwich_reference), a pass
    fam = PLaplacian(3.0)
    triple = paper_triple(fam, BALL)
    cut = dataclasses.replace(triple, g2=GrowthFn(lambda t: 0.9999 * triple.g2(t)))
    for seed in range(6):
        rep = check_ellipticity_sandwich(fam, cut, SampleSpec(ball=BALL, seed=seed))
        assert rep.verdict == "fail", (seed, rep)
        assert rep.worst_ratio == pytest.approx(1 / 0.9999, rel=1e-12)


def masked_ratios(lo_bound, qf, hi_bound):
    """The masked ratio rule on the full broadcast shape: lo/qf is inf unless
    qf > 0, then 0 where lo <= 0; qf/hi is inf unless hi > 0, then 0 where
    qf <= 0."""
    shape = np.broadcast_shapes(lo_bound.shape, qf.shape, hi_bound.shape)
    qf = np.broadcast_to(qf, shape)
    with np.errstate(all="ignore"):
        r_lo = np.divide(lo_bound, qf, out=np.full(shape, np.inf), where=qf > 0)
        r_hi = np.divide(qf, hi_bound, out=np.full(shape, np.inf), where=hi_bound > 0)
    np.copyto(r_lo, 0.0, where=lo_bound <= 0)
    np.copyto(r_hi, 0.0, where=qf <= 0)
    return np.maximum(r_lo, r_hi, out=r_lo)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 3.5, 5e-324, -1e-300, 1e300, np.inf, -np.inf, np.nan]


@st.composite
def sandwich_kernel_inputs(draw):
    # qf on (x, t, direction, lam), one x row or several; bounds (1, t, 1, lam)
    nx, nt, nd, nl = (draw(st.integers(1, 3)) for _ in range(4))
    entry = st.one_of(st.sampled_from(_SPECIAL), st.floats())
    qf = draw(hnp.arrays(np.float64, (nx, nt, nd, nl), elements=entry))
    lo = draw(hnp.arrays(np.float64, (1, nt, 1, nl), elements=entry))
    hi = draw(hnp.arrays(np.float64, (1, nt, 1, nl), elements=entry))
    return lo, qf, hi


@settings(max_examples=300, deadline=None)
@given(sandwich_kernel_inputs())
@example((  # every qf <= 0 or NaN case, bounds <= 0 at the second t
    np.array([1.0, 0.0])[None, :, None, None],
    np.array([0.0, -0.0, -2.0, np.nan, 1.0, np.inf])[:, None, None, None],
    np.array([2.0, -0.0])[None, :, None, None],
))
def test_sandwich_ratios_match_masked_rule_elementwise(inputs):
    # element by element, since one inf or NaN hides every other ratio in a
    # report; the sign bit of zeros and NaNs included
    lo, qf, hi = inputs
    with np.errstate(over="ignore"):
        got = _sandwich_ratios(lo, qf, hi)
    want = masked_ratios(lo, qf, hi)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def traced_peak(fn):
    """tracemalloc peak of fn() in bytes, after one warm-up call so the
    cached Gauss-Legendre nodes and other first-use state are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LOG_PX = LogPxLaplacian(Coefficient(lambda x, y: 2.0 + 0.1 * (x + y), 0.2, "2+0.1*(x+y)"))
# log-px is among the radial catalog families with the largest peak; the
# anisotropic matrix case is the one the checks still sample along the
# spec's directions, so x blocks bound its memory
STREAMED = [LOG_PX, Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1),
                                          Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")))]


def test_sandwich_peak_memory_on_cli_sampling():
    # the CLI sampling plan: 37 x samples, 160 t, 6 directions; the
    # anisotropic sandwich on the whole (lam, x, t, direction) product
    # reaches ~2.6 MB, one x block ~0.8 MB
    for fam in STREAMED:
        triple = paper_triple(fam, BALL)
        peak = traced_peak(lambda: check_ellipticity_sandwich(fam, triple, SampleSpec(ball=BALL, seed=1)))
        assert peak < 2e6, (fam.kind, peak)


def test_sandwich_peak_memory_does_not_grow_with_the_plan():
    # 4x the CLI plan (320 t, 12 directions): the whole anisotropic product
    # reaches ~10 MB, one x block ~0.9 MB
    spec = SampleSpec(ball=BALL, n_t=320, n_dirs=12, seed=1)
    for fam in STREAMED:
        triple = paper_triple(fam, BALL)
        peak = traced_peak(lambda: check_ellipticity_sandwich(fam, triple, spec))
        assert peak < 6e6, (fam.kind, peak)


def test_growth_A_peak_memory_on_cli_sampling():
    # all x samples at once reach ~3.7 MB on the anisotropic case, one x
    # block ~1 MB
    for fam in STREAMED:
        triple = paper_triple(fam, BALL)
        peak = traced_peak(lambda: check_growth_A(fam, triple, SampleSpec(ball=BALL, seed=1)))
        assert peak < 1.5e6, (fam.kind, peak)


def test_12M_peak_memory_on_cli_sampling():
    # all x samples at once reach ~0.94 MB on the anisotropic case, one x
    # block ~0.46 MB
    params = anisotropic_params(2, F(5, 2), 3)  # the memory is f's: any exponents do
    for fam in STREAMED:
        triple = paper_triple(fam, BALL)
        peak = traced_peak(lambda: check_12M(fam, triple, params, SampleSpec(ball=BALL, seed=1)))
        assert peak < 7e5, (fam.kind, peak)


def test_hess_qf_broadcasts_lambda():
    # lam as (k, 1, 1, 1), the sandwich's (1, 0), (0, 1), (1, 1) followed by
    # seeded unit vectors, must give, element for element, what lam
    # materialized to the full (lam, x, t, direction) shape gives
    spec = SampleSpec(ball=BALL, seed=4)
    xs, ys = spec.x_samples()
    ux, uy = spec.directions()
    th = 2 * math.pi * _uniforms(12, 6)
    lx = np.concatenate([[1.0, 0.0, 1.0], np.cos(th)])
    ly = np.concatenate([[0.0, 1.0, 1.0], np.sin(th)])
    fams = [fam for fam, _params in catalog_cases()] + [Anisotropic(3.0, base_p=2.0)]
    for fam in fams:
        T = spec.t_grid(fam.hessian_t_cap(BALL))[:, None]
        args = (xs[:, None, None], ys[:, None, None], T * ux, T * uy)
        shape = (len(lx), len(xs), T.size, len(ux))
        LX, LY = lx[:, None, None, None], ly[:, None, None, None]
        thin = np.broadcast_to(fam.hess_qf(*args, LX, LY), shape)
        full = fam.hess_qf(*args, np.broadcast_to(LX, shape), np.broadcast_to(LY, shape))
        assert np.array_equal(thin, full), fam.describe()


# --- sampling ------------------------------------------------------------------


def polar_grid_with_center_ring(ball, n_radial=12, n_angular=16):
    """The polar grid with a radius-0 ring: n_angular more copies of the
    center right after the center itself."""
    rr = ball.r * np.sqrt(np.linspace(0.0, 1.0, n_radial + 1))
    th = np.linspace(0.0, 2 * math.pi, n_angular, endpoint=False)
    R, T = np.meshgrid(rr, th, indexing="ij")
    return (
        np.concatenate([[ball.cx], (ball.cx + R * np.cos(T)).ravel()]),
        np.concatenate([[ball.cy], (ball.cy + R * np.sin(T)).ravel()]),
    )


def test_sample_points_distinct():
    xs, ys = BALL.sample_points(3, 8)
    points = list(zip(xs.tolist(), ys.tolist()))
    assert len(points) == len(set(points)) == 1 + 3 * 8
    assert points.count((BALL.cx, BALL.cy)) == 1 and points[0] == (BALL.cx, BALL.cy)
    assert SampleSpec(ball=BALL).x_samples()[0].size == 37
    # every ring point of the grid with the radius-0 ring, in order
    gx, gy = polar_grid_with_center_ring(BALL, 3, 8)
    assert np.array_equal(xs, np.delete(gx, range(1, 9)))
    assert np.array_equal(ys, np.delete(gy, range(1, 9)))


# --- seeded uniforms: numpy's default_rng stream without numpy.random ------------


def test_uniforms_are_default_rng_bit_for_bit():
    # numpy.random is the reference here only; 2^128 and 2^200 + 12345 have
    # more than the pool's 4 seed words
    seeds = [*range(2001), 2**32, 2**64 + 3, 2**128, 2**200 + 12345]
    for seed in seeds:
        for k in (0, 1, 24):
            ref = np.random.default_rng(seed).random(k)
            assert np.array_equal(_uniforms(seed, k), ref), (seed, k)
    assert np.array_equal(_uniforms(np.int64(11), 100), np.random.default_rng(11).random(100))


def test_uniforms_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        _uniforms(-1, 3)


@pytest.mark.parametrize("seed", [0, 1, 3, 5, 11, 2**64 + 3])
@pytest.mark.parametrize("n_x", [0, 12, 13])
def test_sample_spec_draws_the_default_rng_samples(seed, n_x):
    # the formulas SampleSpec used when it drew through np.random.default_rng
    spec = SampleSpec(ball=BALL, n_x=n_x, seed=seed)
    rng = np.random.default_rng(seed)
    r = BALL.r * np.sqrt(rng.uniform(0, 1, n_x))
    th = rng.uniform(0, 2 * math.pi, n_x)
    gx, gy = BALL.sample_points(3, 8)
    xs, ys = spec.x_samples()
    assert np.array_equal(xs, np.concatenate([gx, BALL.cx + r * np.cos(th)]))
    assert np.array_equal(ys, np.concatenate([gy, BALL.cy + r * np.sin(th)]))
    th = np.random.default_rng(seed + 1).uniform(0, 2 * math.pi, spec.n_dirs)
    ux, uy = spec.directions()
    assert np.array_equal(ux, np.cos(th)) and np.array_equal(uy, np.sin(th))


@pytest.mark.parametrize("ball", [BALL, Ball(0.0, 0.0, 1.0), Ball(-0.3, 0.7, 0.05)])
def test_ball_ranges_match_grid_with_center_ring(ball):
    # dropping the repeated centers leaves every min and max as it was
    fams = [fam for fam, _params in catalog_cases()]
    coefficients = [c for fam in fams for c in vars(fam).values() if isinstance(c, Coefficient)]
    assert len(coefficients) >= 4
    xs, ys = polar_grid_with_center_ring(ball)
    for c in coefficients:
        vals = c(xs, ys)
        assert c.range_on_ball(ball) == (float(np.min(vals)), float(np.max(vals))), c
    aniso = next(fam for fam in fams if isinstance(fam, Anisotropic) and fam.aij is not None)
    m, o, d = (a(xs, ys) for a in aniso.aij)
    rad = np.sqrt(((m - d) / 2) ** 2 + o * o)
    want = (float(np.min((m + d) / 2 - rad)), float(np.max((m + d) / 2 + rad)))
    assert aniso.eigen_range_on_ball(ball) == want


# --- growth-A ------------------------------------------------------------------


def test_growth_A_x_independent_passes_with_zero_g3():
    triple = paper_triple(PLaplacian(3), BALL)
    rep = check_growth_A(PLaplacian(3), triple, SPEC)
    assert rep.verdict == "pass"
    assert rep.worst_ratio == 0.0


def test_growth_A_exponential_and_px():
    fam = Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x"))
    assert check_growth_A(fam, paper_triple(fam, BALL), SPEC).verdict == "pass"
    pfun = Coefficient(lambda x, y: 2.0 + 0.1 * (x + y), 0.2, "2+0.1*(x+y)")
    fam2 = PxLaplacian(pfun)
    assert check_growth_A(fam2, paper_triple(fam2, BALL), SPEC).verdict == "pass"


def growth_A_reference(family, triple, spec):
    """The per-point loop over (x sample, direction, axis) that check_growth_A
    batches; a radial family along xi = (t, t)/sqrt(2) alone."""
    xs, ys = spec.x_samples()
    ux, uy = DIAGONAL if family.radial else spec.directions()
    tg = spec.t_grid(family.hessian_t_cap(spec.ball))
    tg = tg[tg > 0]
    g3v = triple.g3(tg)
    worst = 0.0
    worst_t = 0.0
    for x0, y0 in zip(xs, ys):
        h = 1e-5 * max(1.0, abs(x0), abs(y0))
        for cx, cy in zip(ux, uy):
            gx, gy = tg * cx, tg * cy
            for dx, dy in ((h, 0.0), (0.0, h)):
                fpx, fpy = family.grad(x0 + dx, y0 + dy, gx, gy)
                fmx, fmy = family.grad(x0 - dx, y0 - dy, gx, gy)
                mixed = triple.f_scale * ((np.abs(fpx - fmx) + np.abs(fpy - fmy)) / (2 * h))
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(
                        g3v > 0, mixed / g3v, np.where(mixed <= 1e-9 * np.maximum(1.0, tg), 0.0, np.inf)
                    )
                i = int(np.argmax(ratio))
                if ratio[i] > worst:
                    worst = float(ratio[i])
                    worst_t = float(tg[i])
    verdict = "pass" if worst <= 1 + 1e-6 else "fail"
    return ConditionReport("growth-A", verdict, worst, worst_t)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_growth_A_matches_per_point_loop(seed):
    spec = dataclasses.replace(SPEC, seed=seed)
    for fam, _params in catalog_cases():
        triple = paper_triple(fam, BALL)
        assert check_growth_A(fam, triple, spec) == growth_A_reference(fam, triple, spec), fam.kind


def test_growth_A_fails_a_g3_cut_below_the_diagonal_peak():
    # double phase: sum_i |f_{xi_i x_k}| = q |d_k a| t^(q - 2) |xi|_1, which
    # peaks on the diagonal at 2 * 0.85 * sqrt(2) q t^(q - 1) = (1.7 / 3) g3;
    # 6 seeded directions of xi read 0.55604 at seed 2, a pass under 0.561 g3
    fam = DoublePhase(2.0, 3.0, A_QUAD)
    triple = paper_triple(fam, BALL)
    spec = SampleSpec(ball=BALL, seed=2)
    assert check_growth_A(fam, triple, spec).worst_ratio == pytest.approx(1.7 / 3, rel=1e-6)
    cut = dataclasses.replace(triple, g3=GrowthFn(lambda t: 0.561 * triple.g3(t)))
    rep = check_growth_A(fam, cut, spec)
    assert rep.verdict == "fail" and rep.worst_ratio == pytest.approx(1.7 / 3 / 0.561, rel=1e-6)


# x blocks: the streamed checks against their whole-array references, with
# sample counts that are no multiple of a block and NaN / inf only at the
# last x samples, so the winner must come from a later block

A_QUAD = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
# 105 x samples: a radial family's sandwich and growth-A take blocks of 51
# rows, its 12M blocks of 50, so the last 10 samples span two blocks of each
WIDE_SPEC = SampleSpec(ball=BALL, n_x=80, seed=1)
BLOCK_EDGE_SPECS = [  # 38 x samples at n_x = 13, 37 at the CLI default n_x = 12
    SampleSpec(ball=BALL, n_x=13, seed=0),
    SampleSpec(ball=BALL, n_x=13, seed=3),
    SampleSpec(ball=BALL, seed=5),
    WIDE_SPEC,
]
TAIL = 10  # poisoned samples
TAIL_POISONS = {
    "inf": (math.inf,) * TAIL,
    "nan-last": (math.inf,) * (TAIL - 1) + (math.nan,),
    "nan-first": (math.nan,) * (TAIL // 2) + (math.inf,) * (TAIL - TAIL // 2),
}


class PoisonedTail(DoublePhase):
    """Double phase whose value, xi-gradient and QF read a given NaN or inf
    at chosen x samples, from a t that falls with the sample's place in the
    list.  A point is hit at its sample and up to 1e-4 right of it, so in
    growth-A only the forward x difference sees the poison."""

    def __init__(self, points):
        super().__init__(2.0, 3.0, A_QUAD)
        self.points = points  # (x, y, first poisoned t, value)

    def _poisoned(self, x, y, gx, gy, out):
        t = np.hypot(gx, gy)
        out = np.array(np.broadcast_to(out, np.broadcast_shapes(np.shape(out), np.shape(x), t.shape)))
        for px, py, t0, v in self.points:
            hit = (x - px >= 0) & (x - px < 1e-4) & (np.abs(y - py) < 1e-12) & (t >= t0)
            out[np.broadcast_to(hit, out.shape)] = v
        return out

    def value(self, x, y, gx, gy):
        return self._poisoned(x, y, gx, gy, super().value(x, y, gx, gy))

    def grad(self, x, y, gx, gy):
        return tuple(self._poisoned(x, y, gx, gy, g) for g in super().grad(x, y, gx, gy))

    def hess_qf(self, x, y, gx, gy, lx, ly):
        return self._poisoned(x, y, gx, gy, super().hess_qf(x, y, gx, gy, lx, ly))


class PoisonedLogTail(PoisonedTail):
    """PoisonedTail checked through log f: a NaN f reaches 12M's worst
    right-hand side, which the linear path would read as f = 0."""

    log_domain = True

    def log_value(self, x, y, gx, gy):
        with np.errstate(divide="ignore"):
            return np.log(self.value(x, y, gx, gy))


def poisoned_tail(spec, values, cls=PoisonedTail):
    xs, ys = spec.x_samples()
    n = len(values)
    return cls(
        [(xs[k - n], ys[k - n], 10.0 ** (1 - 0.3 * k), v) for k, v in enumerate(values)]
    )


def same_report(a, b):
    # exact, NaN fields included (a NaN float never equals another)
    return repr(a) == repr(b)


def test_x_blocks_tile_the_sample_axis():
    for n_x, row in [(37, 5760), (38, 960), (38, 78), (1, 10**6), (7, 1), (0, 5)]:
        blocks = _x_blocks(n_x, row)
        assert [i for b in blocks for i in range(n_x)[b]] == list(range(n_x))
        rows = blocks[0].stop - blocks[0].start if blocks else 0
        assert all(b.stop - b.start == rows for b in blocks)
        assert rows == 0 or rows == max(2, _X_BLOCK_ELEMENTS // row)


@pytest.mark.parametrize("spec", BLOCK_EDGE_SPECS, ids=lambda s: f"nx{s.n_x}-seed{s.seed}")
def test_sandwich_matches_reference_at_block_edges(spec):
    for fam, _params in catalog_cases():
        triple = paper_triple(fam, BALL)
        assert_matches_sandwich_reference(fam, triple, spec)
    for name, values in TAIL_POISONS.items():
        # an infinite QF has no eigenvalues (h12 = inf - inf is NaN); a zero
        # QF where g1 > 0 rates inf
        fam = poisoned_tail(spec, [0.0 if v == math.inf else v for v in values])
        triple = paper_triple(fam, BALL)
        rep = check_ellipticity_sandwich(fam, triple, spec)
        assert same_report(rep, sandwich_reference(fam, triple, spec)[0]), name
        # the first NaN wins, else the first inf: the last sample or the first
        # poisoned one, each from its own t
        assert math.isnan(rep.worst_ratio) == (name != "inf"), name
        k = TAIL - 1 if name == "nan-last" else 0
        assert rep.worst_t == spec.t_grid()[spec.t_grid() >= 10.0 ** (1 - 0.3 * k)][0], name


@pytest.mark.parametrize("spec", BLOCK_EDGE_SPECS, ids=lambda s: f"nx{s.n_x}-seed{s.seed}")
def test_growth_A_matches_reference_at_block_edges(spec):
    for fam, _params in catalog_cases():
        triple = paper_triple(fam, BALL)
        rep = check_growth_A(fam, triple, spec)
        assert same_report(rep, growth_A_reference(fam, triple, spec)), fam.kind
    for name, values in TAIL_POISONS.items():
        fam = poisoned_tail(spec, values)
        triple = paper_triple(fam, BALL)
        rep = check_growth_A(fam, triple, spec)
        assert same_report(rep, growth_A_reference(fam, triple, spec)), name
        # rows reading NaN never win; the first inf does
        assert rep.worst_ratio == math.inf, name
        k = values.index(math.inf)
        assert rep.worst_t == spec.t_grid()[spec.t_grid() >= 10.0 ** (1 - 0.3 * k)][0], name


# --- 11M -----------------------------------------------------------------------


def natural_growth_triple(p):
    anti = GrowthFn(lambda t: np.power(np.asarray(t, float), p / 2) / (p / 2))
    return GrowthTriple(
        g1=power_fn(1, p - 2),
        g2=GrowthFn(lambda t: np.power(1 + np.asarray(t, float), p - 2)),
        g3=power_fn(0, 0),
        sqrt_g1_antiderivative=anti,
    )


def test_11M_natural_growth_alpha2():
    p = default_params(3, 2, 0)
    rep = check_11M(natural_growth_triple(3.0), p)
    assert rep.verdict == "pass"


def test_11M_pq_growth_threshold():
    # g1 = t^(p-2), g2 = (1+t)^(q-2): passes iff q <= alpha p / 2
    p_, q_ = 2.0, 3.0
    triple = GrowthTriple(
        g1=power_fn(1, p_ - 2),
        g2=GrowthFn(lambda t: np.power(1 + np.asarray(t, float), q_ - 2)),
        g3=power_fn(0, 0),
    )
    ctx = sobolev_context(3)
    ok = check_11M(triple, ExponentParams(3, F(3, 2), 1, 0, ctx))
    assert ok.verdict == "pass"
    bad = check_11M(triple, ExponentParams(F(29, 10), F(29, 20), 1, 0, ctx))
    assert bad.verdict == "fail"


def test_11M_monotone_in_alpha():
    triple = natural_growth_triple(3.0)
    ctx = sobolev_context(3)
    worst = [
        check_11M(triple, ExponentParams(a, a / 2, 1, 0, ctx)).worst_ratio
        for a in (F(2), F(22, 10), F(25, 10), F(28, 10))
    ]
    assert all(worst[i + 1] <= worst[i] * (1 + 1e-12) for i in range(len(worst) - 1))


def test_quadrature_matches_closed_form_antiderivative():
    rng = np.random.default_rng(7)
    for fam in (PLaplacian(2.0), PLaplacian(3.5)):
        triple = paper_triple(fam, BALL)
        for t in rng.uniform(0.05, 20.0, 20):
            closed = float(triple.sqrt_g1_antiderivative(t))
            quad = triple.sqrt_g1_quadrature(float(t))
            assert quad == pytest.approx(closed, rel=1e-8)
    fam = Exponential(Coefficient.constant(0.8))
    triple = paper_triple(fam, BALL)
    for t in rng.uniform(0.05, 5.0, 20):
        closed = float(triple.sqrt_g1_antiderivative(t))
        quad = triple.sqrt_g1_quadrature(float(t))
        assert quad == pytest.approx(closed, rel=1e-8)


def quadrature_triples():
    a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
    a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
    pfun = Coefficient(lambda x, y: 2.5 + 0.2 * x, 0.2, "2.5+0.2*x")
    fams = [
        DoublePhase(2.0, 3.0, a_quad),
        MultiPhase(2.0, 3.0, a_quad, 0.5),
        PxLaplacian(pfun),  # kink at t = 1
        LogPxLaplacian(pfun),
        VeryDegenerate(3.0),
        Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)),
    ]
    triples = [(fam.kind, paper_triple(fam, BALL)) for fam in fams]
    singular = GrowthTriple(g1=power_fn(1.5, -0.5), g2=power_fn(1.5, -0.5), g3=power_fn(0, 0))
    return triples + [("p=1.5", singular)]


def pointwise_sqrt_g1_integral(triple, t):
    """Per-point adaptive quadrature with a breakpoint at the kink t = 1,
    tighter (epsrel 1e-12) than ``sqrt_g1_quadrature`` (1e-9 relative)."""
    from scipy import integrate

    if t == 0:
        return 0.0
    val, _err = integrate.quad(
        lambda s: math.sqrt(max(float(triple.g1(s)), 0.0)), 0.0, t,
        epsabs=0.0, epsrel=1e-12, limit=1000, points=[1.0] if t > 1 else None,
    )
    return val


@pytest.mark.parametrize("name,triple", quadrature_triples(), ids=lambda v: v if isinstance(v, str) else "")
def test_cumulative_sqrt_g1_integral_matches_pointwise_quadrature(name, triple):
    assert triple.sqrt_g1_antiderivative is None
    rng = np.random.default_rng(11)
    grid = default_t_grid()
    probes = 10.0 * math.sqrt(10.0) ** np.arange(13)
    mixed = rng.permutation(np.concatenate([[0.0, 0.0], grid[::37], grid[::37], probes[:4]]))
    for ts, every in ((grid, 8), (probes, 1), (mixed, 1)):
        got = triple.sqrt_g1_integral(ts)
        logs = triple.log_one_plus_sqrt_g1_integral(ts)
        # every panel error feeds all later t, so a stride still sees each one
        ref = np.array([pointwise_sqrt_g1_integral(triple, float(t)) for t in ts[::every]])
        np.testing.assert_allclose(got[::every], ref, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(logs[::every], np.log1p(ref), rtol=1e-9, atol=0.0)
    assert triple.sqrt_g1_integral(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]


def gauss_legendre_sqrt_g1(triple, t, n_panels=3000):
    """int_0^t sqrt(g1) by 40-point Gauss-Legendre on panels split at t = 1:
    half of them uniform on [0, 1], half geometric on [1, t]."""
    x, w = special.roots_legendre(40)
    k = n_panels // 2
    edges = np.concatenate([np.linspace(0.0, 1.0, k + 1), np.geomspace(1.0, t, n_panels - k + 1)[1:]])
    a, b = edges[:-1, None], edges[1:, None]
    f = np.sqrt(np.maximum(triple.g1(0.5 * (a + b) + 0.5 * (b - a) * x), 0.0))
    return float(np.sum(0.5 * (b - a)[:, 0] * (f @ w)))


@pytest.mark.parametrize(
    "fam,t",
    [
        (PxLaplacian(Coefficient(lambda x, y: 2.0 + 0.1 * (x + y), 0.2, "2+0.1*(x+y)")), 1e4),
        (VeryDegenerate(3.0), 3.2e4),
    ],
    ids=["px_laplacian", "very_degenerate"],
)
def test_sqrt_g1_quadrature_meets_its_tolerance_across_the_kink(fam, t):
    # g1 switches power (or leaves 0) at t = 1, so the quadrature needs a
    # breakpoint there: a piece straddling the kink converges slowly
    triple = paper_triple(fam, BALL)
    assert triple.sqrt_g1_quadrature(t) == pytest.approx(gauss_legendre_sqrt_g1(triple, t), rel=1e-9, abs=0.0)


def test_cached_gauss_legendre_rules_match_scipy():
    nodes, w10, w20 = _gauss_legendre()
    x10, v10 = special.roots_legendre(10)
    x20, v20 = special.roots_legendre(20)
    np.testing.assert_allclose(nodes, np.concatenate([x10, x20]), rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(w10, v10, rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(w20, v20, rtol=0.0, atol=2e-15)
    assert _gauss_legendre() is _gauss_legendre()


def test_dawson_and_erfi_match_scipy():
    x = np.concatenate([[0.0, np.inf], np.logspace(-8, 4, 1201), np.linspace(5.9, 6.1, 401)])
    np.testing.assert_allclose(_dawson(x), special.dawsn(x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(_dawson(-x), special.dawsn(-x), rtol=1e-13, atol=0.0)
    # erfi overflows to inf on both sides past x^2 ~ 709.8
    np.testing.assert_allclose(_erfi(x), special.erfi(x), rtol=1e-13, atol=0.0)
    assert _dawson(np.float64(2.0)).shape == ()


def power_sum_log_cases():
    rng = np.random.default_rng(5)
    cases = [
        [(3.0, 1.0)],
        [(2.0, 0.0), (6.0, 1.0)],
        [(2.0, 0.0), (2.0, 1.2)],  # equal at t = 1: two largest terms
        [(2.0, 0.0), (6.0, 1.0), (1.5, 2.0)],
        [(1.0, -0.5), (1.0, 0.5), (1.0, 0.5)],
    ]
    for _ in range(200):
        cases.append([
            (float(rng.choice([1.0, 2.0, rng.uniform(0.01, 100.0)])),
             float(rng.choice([0.0, 1.0, rng.uniform(-1.0, 4.0)])))
            for _ in range(rng.integers(1, 4))
        ])
    return cases


def test_power_sum_log_is_scipy_logsumexp_bit_for_bit():
    t = np.concatenate([
        default_t_grid(), 10.0 * math.sqrt(10.0) ** np.arange(13),
        1e3 * math.sqrt(10.0) ** np.arange(13), [0.0, 5e-324], np.logspace(-300, 300, 601),
    ])
    lt = _log_t(t)
    for terms in power_sum_log_cases():
        parts = [math.log(c) + (e * lt if e != 0 else np.zeros_like(lt)) for c, e in terms]
        with np.errstate(divide="ignore", over="ignore"):
            ref = special.logsumexp(np.stack(parts), axis=0)
        got = _power_sum_fn(terms).log(t)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), terms


# --- 12M -----------------------------------------------------------------------


def check_12M_reference(family, triple, params, spec):
    """check_12M on every x sample at once, the worst over x and directions
    taken by one np.min, a radial family along xi = (t, 0) alone;
    check_12M must match it exactly."""
    xs, ys = spec.x_samples()
    ux, uy = AXIS if family.radial else spec.directions()
    gamma = float(params.gamma)
    beta = float(params.beta)

    def log_ratio(ts):
        ts = np.asarray(ts, float)
        lhs = (2 * gamma - 1) * triple.g2.log(ts) + 2 * gamma * _log_t(ts)
        X = xs[:, None, None]
        Y = ys[:, None, None]
        GX = ts[None, :, None] * ux[None, None, :]
        GY = ts[None, :, None] * uy[None, None, :]
        if family.log_domain:
            logf = family.log_value(X, Y, GX, GY) + math.log(triple.f_scale)
        else:
            with np.errstate(over="ignore"):
                fv = np.asarray(family.value(X, Y, GX, GY), float) * triple.f_scale
            with np.errstate(divide="ignore"):
                logf = np.where(fv > 0, np.log(np.maximum(fv, 1e-300)), -np.inf)
        return lhs - np.min(beta * np.logaddexp(0.0, logf), axis=(0, 2))

    return _grid_tail_report("12M", spec.t_grid(), log_ratio)


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_12M_matches_whole_array_reference(seed):
    for spec in (SampleSpec(ball=BALL, seed=seed), SampleSpec(ball=BALL, n_x=13, seed=seed)):
        for fam, params in catalog_cases():
            triple = paper_triple(fam, BALL)
            want = check_12M_reference(fam, triple, params, spec)
            assert same_report(check_12M(fam, triple, params, spec), want), fam.kind


@pytest.mark.parametrize("name", sorted(TAIL_POISONS))
def test_12M_keeps_a_nan_from_a_later_block(name):
    spec = WIDE_SPEC
    params = double_phase_params(2, 3, 2)
    for cls in (PoisonedTail, PoisonedLogTail):
        fam = poisoned_tail(spec, TAIL_POISONS[name], cls)
        triple = paper_triple(fam, BALL)
        with np.errstate(invalid="ignore"):  # logaddexp(0, NaN)
            rep = check_12M(fam, triple, params, spec)
            assert same_report(rep, check_12M_reference(fam, triple, params, spec)), cls
    # a NaN worst right-hand side drops its t samples, the tail probes included
    assert (rep.tail_limit_estimate == 0.0) == (name != "inf"), rep


def test_12M_natural_growth_beta1():
    fam = PLaplacian(3)
    triple = paper_triple(fam, BALL)
    rep = check_12M(fam, triple, default_params(3, 2, 0), SPEC)
    assert rep.verdict == "pass"


def test_12M_multi_phase_beta1():
    fam = MultiPhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2"), 0.5)
    triple = paper_triple(fam, BALL)
    params = double_phase_params(2, 3, 2, third_phase=True)
    rep = check_12M(fam, triple, params, SPEC)
    assert rep.verdict == "pass"


def test_12M_fails_with_undersized_beta():
    # double phase with the coefficient vanishing inside the ball: beta = 1 is
    # not enough for the q-power part of g2
    fam = DoublePhase(2.0, 3.0, Coefficient(lambda x, y: (x - 0.5) ** 2, 1.0, "(x-0.5)^2"))
    triple = paper_triple(fam, BALL)
    ctx = sobolev_context(2, alpha=4, gamma=1)
    weak = ExponentParams(4, 1, 1, 0, ctx)
    assert check_12M(fam, triple, weak, SPEC).verdict == "fail"
    good = ExponentParams(4, F(3, 2), 1, 0, ctx)
    assert check_12M(fam, triple, good, SPEC).verdict == "pass"


# --- A3 ------------------------------------------------------------------------


def px_paper_triple(p, theta, omega):
    # the variable-exponent triple in its large-t power form
    return GrowthTriple(
        g1=power_fn(p, p - 2),
        g2=power_fn(2 * p * (2 * p - 1), theta * p - 2),
        g3=GrowthFn(lambda t: 1.0 + np.power(np.asarray(t, float), theta * p - 1 + omega)),
    )


def test_A3_px_gamma1_fails_and_delta_fixes_it():
    p, theta, omega = 2.0, 1.01, 0.01
    triple = px_paper_triple(p, theta, omega)
    ctx = sobolev_context(2, alpha=2.5, gamma=1)
    gamma1 = ExponentParams(2.5, 1.25, 1, 0, ctx)
    assert check_A3(triple, gamma1).verdict == "fail"

    d = float(px_delta(p, theta, omega))
    ctx2 = sobolev_context(2, alpha=2.5, gamma=1 + d)
    fixed = ExponentParams(2.5, 1.25 + d, 1 + d, d, ctx2)
    assert check_A3(triple, fixed).verdict == "pass"


def test_A3_anisotropic_gamma1_passes():
    fam = Anisotropic(
        2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.0), Coefficient.constant(1.2))
    )
    triple = paper_triple(fam, BALL)
    params = anisotropic_params(2, F(5, 2), 3)
    assert check_A3(triple, params).verdict == "pass"


# --- exponent bounds -----------------------------------------------------------


def test_exponent_bounds_examples():
    ctx3 = sobolev_context(3)
    assert all(r.verdict == "pass" for r in exponent_bound_reports(ExponentParams(2, 1, 1, 0, ctx3)))
    boundary = ExponentParams(6, 1, 1, 0, ctx3)
    rep, _beta = exponent_bound_reports(boundary)
    assert rep.verdict == "fail" and rep.condition == "alpha-bound"
    ok = ExponentParams(F(5, 2), F(5, 4), 1, 0, ctx3)
    assert all(r.verdict == "pass" for r in exponent_bound_reports(ok))


# --- the whole catalog passes its own derivation --------------------------------


def catalog_cases():
    a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
    a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
    pfun = Coefficient(lambda x, y: 2.0 + 0.1 * (x + y), 0.2, "2+0.1*(x+y)")
    cases = []
    cases.append((PLaplacian(3.0), default_params(2, 2, 0)))
    fam = Anisotropic(
        2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)
    )
    cases.append((fam, anisotropic_params(2, F(5, 2), 3)))
    cases.append((Anisotropic(3.0, base_p=2.5), anisotropic_params(F(5, 2), 3, 3)))
    fam = DoublePhase(2.0, 3.0, a_quad)
    cases.append((fam, double_phase_params(2, 3, 2)))
    fam = MultiPhase(2.0, 3.0, a_quad, 0.4)
    cases.append((fam, double_phase_params(2, 3, 2, third_phase=True)))
    exp_fam = Exponential(a_lin)
    lo, hi = a_lin.range_on_ball(BALL)
    cases.append((exp_fam, auto_exponential_params(F(lo).limit_denominator(10**9),
                                                   F(hi).limit_denominator(10**9), n=2)))
    px_fam = PxLaplacian(pfun)
    plo, phi = pfun.range_on_ball(BALL)
    px_params = auto_px_params(F(plo).limit_denominator(10**9), F(phi).limit_denominator(10**9), n=2)
    cases.append((px_fam, px_params))
    cases.append((LogPxLaplacian(pfun), px_params))
    cases.append((VeryDegenerate(3.0), default_params(2, 2, 0)))
    return cases


GOLDEN_ROWS = Path(__file__).with_name("golden_check_rows.txt")


def test_catalog_report_rows_match_golden():
    # row() text of the whole table on the CLI sampling plan, every catalog
    # case at seeds 0 and 1, compared exactly; the 11M, 12M, A3 and bound
    # rows were recorded before the triples and exponent recipes moved onto
    # the families, the sandwich and growth-A rows when they took exact extremes
    lines = []
    for seed in (0, 1):
        for fam, params in catalog_cases():
            reports = run_all_checks(fam, paper_triple(fam, BALL), params, SampleSpec(ball=BALL, seed=seed))
            lines.append(f"[{fam.describe()} seed={seed}]")
            lines += [r.row() for r in reports]
    assert lines == GOLDEN_ROWS.read_text().splitlines()


@pytest.mark.parametrize("fam,params", catalog_cases(), ids=lambda v: getattr(v, "kind", ""))
def test_catalog_class_passes_all_checks(fam, params):
    if not isinstance(params, ExponentParams):
        pytest.fail(f"auto params rejected: {params}")
    triple = paper_triple(fam, BALL)
    reports = run_all_checks(fam, triple, params, SPEC)
    bad = [r for r in reports if r.verdict != "pass"]
    assert not bad, "\n".join(r.row() for r in bad)
    for r in reports[2:5]:
        assert r.fitted_M is not None and math.isfinite(r.fitted_M)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**64 - 1))
@example(0)
def test_every_catalog_family_passes_its_own_triple_at_any_seed(seed):
    # the CLI sampling plan at any seed: every row of every family's table
    spec = SampleSpec(ball=BALL, seed=seed)
    for fam, params in catalog_cases():
        reports = run_all_checks(fam, paper_triple(fam, BALL), params, spec)
        bad = [r.row() for r in reports if r.verdict != "pass"]
        assert not bad, (fam.describe(), seed, bad)


@pytest.mark.parametrize("fam,params", catalog_cases(), ids=lambda v: getattr(v, "kind", ""))
def test_run_all_checks_peak_memory_on_cli_sampling(fam, params):
    # the whole table on the CLI plan: 2.3-5.2 MB with every x sample at
    # once, at most ~1 MB with x blocks
    triple = paper_triple(fam, BALL)
    spec = SampleSpec(ball=BALL, seed=1)
    peak = traced_peak(lambda: run_all_checks(fam, triple, params, spec))
    assert peak < 1.5e6, (fam.describe(), peak)


def test_report_rows_render():
    triple = paper_triple(PLaplacian(2.0), BALL)
    rep = check_11M(triple, default_params(2, 2, 0))
    assert rep.condition in ConditionReport.header() or "11M" in rep.row()


def test_catalog_triples_sampled_valid():
    # nonnegative, nondecreasing, g2 >= g1, normalized g2(1) >= g1(1) >= 1
    a_lin = Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1, "0.5+0.1*x")
    a_quad = Coefficient(lambda x, y: x * x + y * y, 3.0, "x^2+y^2")
    pfun = Coefficient(lambda x, y: 2.0 + 0.1 * (x + y), 0.2, "2+0.1*(x+y)")
    grid = np.concatenate([[0.0], np.logspace(-3, 1.2, 120)])  # exponential-safe
    fams = [
        PLaplacian(2.0),
        PLaplacian(3.5),
        Exponential(a_lin),
        PxLaplacian(pfun),
        DoublePhase(2.0, 3.0, a_quad),
        MultiPhase(2.0, 3.0, a_quad, 0.5),
        Anisotropic(2.5, aij=(Coefficient.constant(1.0), Coefficient.constant(0.1), a_lin)),
    ]
    for fam in fams:
        triple = paper_triple(fam, BALL)
        assert triple.sample_valid(grid), fam.kind
    vd = paper_triple(VeryDegenerate(2.0), BALL)
    assert vd.degenerate
    assert vd.sample_valid(grid)  # monotone and ordered, normalization waived
    assert float(vd.g1(1.0)) == 0.0
