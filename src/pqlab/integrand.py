"""Catalog of energy densities f(x, xi) with analytic gradients and Hessians.

Every family evaluates the density, its xi-gradient, and the Hessian
quadratic form sum_ij f_{xi_i xi_j} lam_i lam_j.  Families whose
xi-dependence goes through the modulus t = |xi| use the radial
decomposition

    QF = (g_tt - g_t/t) (xi.lam)^2 / t^2  +  (g_t/t) |lam|^2,

where g(x, t) is the radial profile.  All evaluators are vectorized over
numpy arrays and pure: a family is immutable once built.

The exponential family exp(a(x) |xi|^2) stores the density in log space
and refuses to silently return IEEE infinities; it raises
:class:`SaturationError` instead so callers (the condition checkers) can
switch to log-domain arithmetic.

Family protocol: the checks, the solver, the schedule resolver and the
validator use a family only through what it supplies here, never through
its type.  A family must supply ``value``, ``grad`` and ``hess_qf`` (a
radial family subclasses ``RadialFamily``, supplies the three profile
methods ``profile_value`` (g), ``profile_slope`` (g_t/t) and
``profile_dtt`` (g_tt) and inherits them; ``radial`` is False on the base
class and True on ``RadialFamily``),
``triple(ball)`` - its growth triple with honest constants on the ball -
and ``auto_params(ball, n, two_star, *, alpha, delta)`` - its exponent
recipe, an ExponentParams or a ParamRejection.  It may override
the class defaults ``log_domain`` (minimize and check through log f, which
needs ``log_value`` and ``grad_coeff_over_f``; ``minimize``'s start guard
scales a too steep initial state by (2 / peak log f)^(1/2), which brings a
log-density quadratic in |xi| to a peak of 2),
``oscillating_coefficient`` (the coefficient whose oscillation on a ball the
schedule's theta must cover) and ``hessian_t_cap(ball)``.  The p-Laplacian,
double phase and multi phase families share one power-sum profile
sum_i c_i(x) t^(e_i) over their ``_terms()``.

The growth-function layer (GrowthFn, GrowthTriple and the power-law
builders) lives here, ahead of the families that build their triples
from it; :mod:`pqlab.growth` re-exports it.  It needs no scipy, as no
module of the package does: the Gauss-Legendre rules, the power-sum
logsumexp and the Dawson function of the exponential antiderivative are
numpy.  Nor does a check load ``numpy.polynomial`` or
``numpy.ma``: the Gauss-Legendre nodes and weights are float literals equal
to ``leggauss``'s, and the cumulative integral dedupes its panel ends
without ``np.unique``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exponents import (
    OMEGA,
    ParamRejection,
    anisotropic_params,
    auto_exponential_params,
    auto_px_params,
    default_params,
    double_phase_params,
)

# Largest exponent exp() can take before overflowing a double, with margin.
LOG_MAX = 700.0
# The plane: dimension and sqrt(n) in the mixed-derivative constants.
_N_DIM = 2
_SQRT_N = math.sqrt(_N_DIM)


def _const_like(value: float, *arrays):
    """Array filled with ``value``, broadcast to the common shape of ``arrays``."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return np.full(shape, float(value)) if shape else float(value)


def _frozen(a) -> bool:
    """A read-only array that owns its memory: no view of it can write to it."""
    return isinstance(a, np.ndarray) and not a.flags.writeable and a.base is None


class SaturationError(ArithmeticError):
    """An exponential density exceeded the representable range."""

    def __init__(self, exponent: float):
        super().__init__(
            f"exponential energy density saturated: required exp({exponent:.3g}) "
            f"> exp({LOG_MAX:.0f})"
        )
        self.exponent = exponent


class ProfileDomainError(ValueError):
    """Hessian form requested where the radial profile is singular."""


@dataclass(frozen=True)
class Ball:
    """Disk in the plane; the compact subdomain on which conditions are checked."""

    cx: float
    cy: float
    r: float

    def sample_points(self, n_radial: int = 12, n_angular: int = 16):
        """Polar grid of 1 + n_radial * n_angular points: the center once, then rings."""
        rr = self.r * np.sqrt(np.linspace(0.0, 1.0, n_radial + 1)[1:])
        th = np.linspace(0.0, 2 * math.pi, n_angular, endpoint=False)
        R, T = np.meshgrid(rr, th, indexing="ij")
        xs = np.concatenate([[self.cx], (self.cx + R * np.cos(T)).ravel()])
        ys = np.concatenate([[self.cy], (self.cy + R * np.sin(T)).ravel()])
        return xs, ys


class Coefficient:
    """Scalar field of position with a user-declared Lipschitz constant.

    The Lipschitz constant is declared, not estimated: the growth-condition
    constants (e.g. c3 for the exponential family) use it directly.

    ``fn`` must depend on (x, y) only.  A call keeps its result when x and y
    are read-only arrays that own their memory, such as a grid's shared
    coordinates, and the next call on those very two objects, still
    read-only, returns it (read-only) without evaluating ``fn``.  Any other
    call evaluates ``fn``; a call on writeable arrays or views neither uses
    nor replaces the kept result.  An array that is made writeable, changed
    and made read-only again is the caller's error, as it is for the grid's
    coordinates themselves.
    """

    def __init__(self, fn: Callable, lipschitz: float = 0.0, source: str = "<callable>"):
        self._fn = fn
        self.lipschitz = float(lipschitz)
        self.source = source
        self._memo = (None, None, None)  # (x, y, value) of the last call on frozen arrays

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        v = float(value)
        return cls(lambda x, y: _const_like(v, x, y), lipschitz=0.0, source=repr(v))

    def __call__(self, x, y):
        frozen = _frozen(x) and _frozen(y)
        mx, my, value = self._memo
        if frozen and x is mx and y is my:
            return value
        value = np.asarray(self._fn(np.asarray(x, float), np.asarray(y, float)), float)
        if frozen:
            value = value.view()  # read-only without freezing an array fn may hold
            value.flags.writeable = False
            self._memo = (x, y, value)
        return value

    def on_ball(self, ball: Ball) -> np.ndarray:
        """The values at ``ball.sample_points()``; a ValueError naming the
        coefficient when one is not finite."""
        with np.errstate(all="ignore"):
            vals = self(*ball.sample_points())
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"coefficient {self.source} is not finite on the ball")
        return vals

    def range_on_ball(self, ball: Ball) -> tuple[float, float]:
        """(min, max) of :meth:`on_ball`."""
        vals = self.on_ball(ball)
        return float(np.min(vals)), float(np.max(vals))

    def __repr__(self):
        return f"Coefficient({self.source}, L={self.lipschitz})"


# ---------------------------------------------------------------------------
# Growth functions and triples
# ---------------------------------------------------------------------------


# The positive nodes and their weights of the 10- and 20-point Gauss-Legendre
# rules, as numpy's leggauss(10) and leggauss(20) give them; both are bitwise
# symmetric about 0, so the negative halves are these mirrored.
_GL_HALVES = (
    (
        (0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717),
        (0.2955242247147528, 0.2692667193099965, 0.219086362515982, 0.1494513491505804, 0.06667134430868814),
    ),
    (
        (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271, 0.636053680726515,
         0.7463319064601508, 0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095),
        (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
         0.1019301198172407, 0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893),
    ),
)


@functools.cache
def _gauss_legendre():
    """The 10- and 20-point Gauss-Legendre nodes on [-1, 1], concatenated,
    and their weights: numpy's ``leggauss`` values bit for bit, mirrored from
    ``_GL_HALVES`` on first use, without importing ``numpy.polynomial``."""
    (x10, w10), (x20, w20) = (
        (np.concatenate([-np.array(x[::-1]), x]), np.concatenate([w[::-1], w])) for x, w in _GL_HALVES
    )
    return np.concatenate([x10, x20]), w10, w20


def _dawson(x) -> np.ndarray:
    """Dawson's integral F(x) = e^(-x^2) int_0^x e^(s^2) ds, odd in x.

    Up to |x| = 6 the all-positive series e^(-x^2) sum x^(2n+1) / (n! (2n+1)),
    summed until its terms fall below 1e-17 of the sum; beyond, the first 36
    terms of the asymptotic series 1/(2x) sum (2k-1)!!/(2x^2)^k, whose terms
    keep falling up to k = x^2 and are below 4e-16 there."""
    x = np.asarray(x, float)
    ax = np.abs(x).ravel()
    out = np.empty_like(ax)
    small = ax <= 6.0
    xs = ax[small]
    x2 = xs * xs
    term, total, n = xs, xs, 0
    while np.any(term > 1e-17 * total):
        n += 1
        term = term * x2 / n
        total = total + term / (2 * n + 1)
    out[small] = np.exp(-x2) * total
    xl = ax[~small]
    inv = 0.5 / (xl * xl)
    term, total = np.ones_like(xl), np.ones_like(xl)
    for k in range(1, 37):
        term = term * (2 * k - 1) * inv
        total = total + term
    out[~small] = total / (2 * xl)
    return np.copysign(out, x.ravel()).reshape(x.shape)


def _erfi(x) -> np.ndarray:
    """The imaginary error function erfi(x) = 2/sqrt(pi) e^(x^2) F(x); inf past overflow."""
    x = np.asarray(x, float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = 2.0 / math.sqrt(math.pi) * np.exp(x * x) * _dawson(x)
    return np.where(np.isinf(x), x, out)  # inf * F(inf) = inf * 0


class GrowthFn:
    """Monotone scalar function on [0, inf) with an optional exact log form."""

    def __init__(self, fn: Callable, log_fn: Optional[Callable] = None):
        self._fn = fn
        self._log_fn = log_fn

    def __call__(self, t):
        return np.asarray(self._fn(np.asarray(t, float)), float)

    def log(self, t):
        """Natural log of the value; -inf where the function vanishes."""
        if self._log_fn is not None:
            return np.asarray(self._log_fn(np.asarray(t, float)), float)
        with np.errstate(divide="ignore"):
            return np.log(self(t))


@dataclass
class GrowthTriple:
    """The triple (g1, g2, g3) with its antiderivative metadata.

    ``f_scale`` multiplies the density inside the energy condition: the
    normalization g2(1) >= g1(1) >= 1 is achieved by scaling f and the
    triple together, and the scale is recorded here.  ``degenerate`` marks
    triples (the very degenerate class) that cannot meet the normalization.
    """

    g1: GrowthFn
    g2: GrowthFn
    g3: GrowthFn
    sqrt_g1_antiderivative: Optional[GrowthFn] = None
    f_scale: float = 1.0
    degenerate: bool = False

    def sqrt_g1_integral(self, t) -> np.ndarray:
        """int_0^t sqrt(g1(s)) ds at every entry of ``t`` (any order, repeats
        and zeros allowed); closed form when supplied, else one cumulative
        integral over the sorted distinct t > 0.

        The cumulative integral splits [0, max t] into panels at those t and
        integrates all panels at once with the 10- and 20-point Gauss-Legendre
        rules (``_gauss_legendre``; one vectorized g1 call).  A panel keeps its
        20-point value when the two rules agree to 1e-11 relative; otherwise,
        and always on the first panel [0, t_1], where g1 may be singular
        (t^(p-2), p < 2), it falls back to adaptive quadrature
        (``sqrt_g1_quadrature``).  The fallback catches panels holding a kink,
        such as t = 1 for the min/max-power and very degenerate triples.  The
        distinct t come from a sort and an adjacent-duplicate mask, not
        ``np.unique``, which imports ``numpy.ma``.
        """
        t = np.atleast_1d(np.asarray(t, float))
        if self.sqrt_g1_antiderivative is not None:
            return self.sqrt_g1_antiderivative(t)
        out = np.zeros_like(t)
        pos = t > 0
        ends = np.sort(t[pos])
        if ends.size == 0:
            return out
        ends = ends[np.concatenate([[True], ends[1:] != ends[:-1]])]
        starts = np.concatenate([[0.0], ends[:-1]])
        lo, panels = self._gauss_pair(starts, ends)
        refine = ~(np.abs(panels - lo) <= 1e-11 * np.abs(panels))
        refine[0] = True
        for k in np.flatnonzero(refine):
            panels[k] = self.sqrt_g1_quadrature(ends[k], starts[k])
        out[pos] = np.cumsum(panels)[np.searchsorted(ends, t[pos])]
        return out

    def _gauss_pair(self, a, b):
        """The 10- and 20-point Gauss-Legendre values of int_a^b sqrt(g1) on
        each interval [a_i, b_i], from one g1 call."""
        x, w10, w20 = _gauss_legendre()
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        f = np.sqrt(np.maximum(self.g1(mid + half * x), 0.0))
        return half[:, 0] * np.sum(f[:, :10] * w10, axis=1), half[:, 0] * np.sum(f[:, 10:] * w20, axis=1)

    def sqrt_g1_quadrature(self, t: float, t0: float = 0.0) -> float:
        """int_t0^t sqrt(g1(s)) ds by adaptive bisection to 1e-9 relative,
        split at the kink t = 1 of the min/max-power and very degenerate
        triples when [t0, t] holds it.

        Each round takes the 10- and 20-point Gauss-Legendre values of every
        live piece from one g1 call.  A piece is done when they differ by at
        most 1e-9 of its value (sqrt(g1) >= 0, so these bounds add up to 1e-9
        of the total); the rest are halved.  It also stops once all the
        differences sum to 1e-9 of the total, which a piece at an integrable
        singularity (t^(p-2), p < 2, at 0) reaches by shrinking, never by its
        own test; and after 60 rounds or past 100 live pieces.
        """
        if t == t0:
            return 0.0
        edges = np.array([t0, 1.0, t] if t0 < 1.0 < t else [t0, t], float)
        a, b = edges[:-1], edges[1:]
        done = err_done = 0.0
        for _ in range(60):
            lo, hi = self._gauss_pair(a, b)
            err = np.abs(hi - lo)
            live = err > 1e-9 * hi
            done += float(np.sum(hi[~live]))
            err_done += float(np.sum(err[~live]))
            rest = float(np.sum(hi[live]))
            n_live = np.count_nonzero(live)
            if n_live == 0 or n_live > 100 or err_done + np.sum(err[live]) <= 1e-9 * (done + rest):
                break
            a, b = a[live], b[live]
            mid = 0.5 * (a + b)
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        return done + rest

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


def default_t_grid() -> np.ndarray:
    """{0} plus 400 log-spaced points on [1e-3, 1e3]."""
    return np.concatenate([[0.0], np.logspace(-3, 3, 400)])


def _log_t(t) -> np.ndarray:
    """log t on t >= 0, -inf at t = 0."""
    t = np.asarray(t, float)
    return np.where(t > 0, np.log(np.where(t > 0, t, 1.0)), -np.inf)


def _power_sum_fn(terms) -> GrowthFn:
    """sum of c_i t^(e_i) over the nonzero c_i; its log is the single term's
    own when one is left, a logsumexp when more are, -inf when none is."""
    terms = [(float(c), float(e)) for c, e in terms if c != 0]

    def fn(t):
        out = np.zeros_like(t)
        for c, e in terms:
            out = out + c * np.power(t, e)
        return out

    def log_fn(t):
        lt = _log_t(t)
        parts = [math.log(c) + (e * lt if e != 0 else np.zeros_like(lt)) for c, e in terms]
        if len(parts) < 2:
            return parts[0] if parts else np.full_like(lt, -np.inf)
        # scipy.special.logsumexp's algorithm, bit for bit: every term equal
        # to the largest, m of them, is split off and log1p takes the rest
        parts = np.stack(parts)
        top = np.max(parts, axis=0)
        is_top = parts == top
        m = np.sum(is_top, axis=0, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rest = np.sum(np.exp(np.where(is_top, -np.inf, parts) - top), axis=0)
            out = np.log1p(np.where(rest == 0, rest, rest / m)) + np.log(m) + top
            # all terms -inf (t = 0) or one +inf: the direct form
            return np.where(np.isfinite(out), out, np.log(np.sum(np.exp(parts), axis=0)))

    return GrowthFn(fn, log_fn)


def _min_max_power_fns(coef_lo, coef_hi, e_small, e_big):
    """(g1, g2) = (coef_lo min(t^e_small, t^e_big), coef_hi max(...)).

    The min/max swap at t = 1 mirrors the inf/sup over the ball of a
    variable power t^(p(x) - 2) with exponent range [e_small, e_big] + 2.
    """

    def lo(t):
        return coef_lo * np.minimum(np.power(t, e_small), np.power(t, e_big))

    def hi(t):
        return coef_hi * np.maximum(np.power(t, e_small), np.power(t, e_big))

    def _elog(e, lt):
        return e * lt if e != 0 else np.zeros_like(lt)

    def lo_log(t):
        lt = _log_t(t)
        return math.log(coef_lo) + np.minimum(_elog(e_small, lt), _elog(e_big, lt))

    def hi_log(t):
        lt = _log_t(t)
        return math.log(coef_hi) + np.maximum(_elog(e_small, lt), _elog(e_big, lt))

    return GrowthFn(lo, lo_log), GrowthFn(hi, hi_log)


def _normalize(triple: GrowthTriple) -> GrowthTriple:
    """Rescale (g1, g2, g3, f) together until g2(1) >= g1(1) >= 1.  The
    triple has no antiderivative, is not degenerate and has f_scale 1."""
    v1 = float(triple.g1(1.0))
    if v1 >= 1.0:
        return triple
    if v1 <= 0:
        raise ValueError("triple cannot be normalized: g1(1) = 0")
    s = 1.0 / v1

    def scaled(g):
        return GrowthFn(lambda t: s * g(t), lambda t: math.log(s) + g.log(t))

    return GrowthTriple(g1=scaled(triple.g1), g2=scaled(triple.g2), g3=scaled(triple.g3), f_scale=s)


# ---------------------------------------------------------------------------
# Family base machinery
# ---------------------------------------------------------------------------


class IntegrandFamily:
    """Base interface; concrete families fill in the evaluators."""

    kind: str = ""
    radial: bool = False
    # minimized and checked through log f (log_value, grad_coeff_over_f)
    log_domain: bool = False
    # the coefficient whose oscillation on a ball the schedule's theta covers
    oscillating_coefficient: Optional[Coefficient] = None

    def value(self, x, y, gx, gy):
        raise NotImplementedError

    def grad(self, x, y, gx, gy):
        raise NotImplementedError

    def hess_qf(self, x, y, gx, gy, lx, ly):
        raise NotImplementedError

    def hessian_t_cap(self, ball: Ball) -> Optional[float]:
        """Largest |xi| at which the Hessian is representable on the ball; None if unbounded."""
        return None

    def triple(self, ball: Ball) -> GrowthTriple:
        """The growth triple on a working ball.

        Constants are honest bounds on the ball (inf/sup of coefficients taken
        there), so the sandwich holds pointwise; the scale conditions then
        carry a finite fitted M.  The variable exponent triples take the
        margin ``OMEGA`` of their schedule recipe.
        """
        raise TypeError(f"no cataloged triple for {self!r}")

    def auto_params(self, ball: Ball, n: int, two_star, *, alpha, delta):
        """The certified exponent recipe on the ball: ExponentParams or a
        ParamRejection.  ``alpha`` and ``delta`` feed the natural-growth one."""
        raise NotImplementedError(f"no auto schedule for family kind {self.kind!r}")

    def describe(self) -> str:
        return self.kind

    def __repr__(self):
        return self.describe()


class RadialFamily(IntegrandFamily):
    """A density g(x, |xi|) given by three profile methods: ``profile_value``
    (g), ``profile_slope`` (g_t/t) and ``profile_dtt`` (g_tt), the two
    eigenvalues of its xi-Hessian.  ``value``, ``grad`` and ``hess_qf`` come
    from them through the radial decomposition."""

    radial = True

    def profile_value(self, x, y, t):
        raise NotImplementedError

    def profile_dtt(self, x, y, t):
        raise NotImplementedError

    def profile_slope(self, x, y, t):
        """g_t(x,t)/t with the correct t = 0 limit."""
        raise NotImplementedError

    def value(self, x, y, gx, gy):
        t = np.hypot(gx, gy)
        return self.profile_value(x, y, t)

    def grad(self, x, y, gx, gy):
        t = np.hypot(gx, gy)
        w = self.profile_slope(x, y, t)
        return w * gx, w * gy

    def hess_qf(self, x, y, gx, gy, lx, ly):
        t = np.hypot(gx, gy)
        s = self.profile_slope(x, y, t)
        r = self.profile_dtt(x, y, t)
        s_lam2 = s * (lx * lx + ly * ly)
        aligned = gx * lx + gy * ly
        with np.errstate(divide="ignore", invalid="ignore"):
            aligned /= t
        aligned *= aligned
        out = (r - s) * aligned
        out += s_lam2
        # at t = 0 slope and dtt coincide for every smooth catalog profile,
        # so the formula degenerates to the constant form s * |lam|^2
        zero = t == 0
        return np.where(zero, s_lam2, out) if np.any(zero) else out


class _PowerSum(RadialFamily):
    """Profile g(x, t) = sum_i c_i(x) t^(e_i) over ``_terms()``, the
    (exponent, coefficient or None for 1) pairs of the subclass."""

    def _power_sum(self, x, y, t, factors, shift):
        # sum_i c_i e_i (e_i - 1) ... t^(e_i - shift), one factor per derivative.
        # A bare t^e is not multiplied by 1.0 and the first term is not added
        # to 0.0: both are exact no-ops for t >= 0, and their array passes
        # cost the p-Laplacian value + gradient kernels ~25%
        t = np.asarray(t, float)
        out = None
        for e, c in self._terms():
            w = 1.0 if c is None else c(x, y)
            for k in range(factors):
                w = w * (e - k)
            term = np.power(t, e - shift)
            if c is not None or factors:
                term = w * term
            out = term if out is None else out + term
        return out

    def profile_value(self, x, y, t):
        return self._power_sum(x, y, t, 0, 0)

    def profile_dtt(self, x, y, t):
        return self._power_sum(x, y, t, 2, 2)

    def profile_slope(self, x, y, t):
        # np.power(0, 0) == 1 gives the correct e = 2 limit at t = 0
        return self._power_sum(x, y, t, 1, 2)


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


class PLaplacian(_PowerSum):
    """f(xi) = |xi|^p, p >= 2.  Uniformly elliptic benchmark."""

    kind = "p_laplacian"

    def __init__(self, p: float):
        if p < 2:
            raise ValueError(f"p must be at least 2 for the p-Laplacian family, got {p}")
        self.p = float(p)

    def describe(self):
        return f"p_laplacian(p={self.p:g})"

    def _terms(self):
        return [(self.p, None)]

    def triple(self, ball):
        p = self.p
        return GrowthTriple(
            g1=_power_sum_fn([(p, p - 2)]),
            g2=_power_sum_fn([(p * (p - 1), p - 2)]),
            g3=_power_sum_fn([]),
            sqrt_g1_antiderivative=_power_sum_fn([(math.sqrt(p) / (p / 2), p / 2)]),
        )

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        return default_params(n, alpha, delta, two_star)


class Exponential(RadialFamily):
    """f(x, xi) = exp(a(x) |xi|^2), a > 0 locally Lipschitz.

    Stored in log space: ``log_value`` never overflows, the linear
    evaluators raise :class:`SaturationError` past exp(LOG_MAX).
    """

    kind = "exponential"
    log_domain = True

    def __init__(self, a: Coefficient):
        self.a = a
        self.oscillating_coefficient = a

    def describe(self):
        return f"exponential(a={self.a.source}, tau=2)"

    def hessian_t_cap(self, ball: Ball) -> Optional[float]:
        return 0.9 * ((LOG_MAX - 60.0) / max(self.a.range_on_ball(ball)[1], 1e-12)) ** 0.5

    def log_value(self, x, y, gx, gy):
        t = np.hypot(gx, gy)
        return self.a(x, y) * np.power(t, 2.0)

    def _exp_guarded(self, logv):
        m = float(np.max(logv)) if np.size(logv) else 0.0
        if m > LOG_MAX:
            raise SaturationError(m)
        return np.exp(logv)

    def profile_value(self, x, y, t):
        return self._exp_guarded(self.a(x, y) * np.power(np.asarray(t, float), 2.0))

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        a = self.a(x, y)
        return (2.0 * a + (2.0 * a) ** 2 * np.power(t, 2.0)) * self._exp_guarded(a * np.power(t, 2.0))

    def profile_slope(self, x, y, t):
        a = self.a(x, y)
        return 2.0 * a * self._exp_guarded(a * np.power(np.asarray(t, float), 2.0))

    def grad_coeff_over_f(self, x, y, gx, gy):
        """(grad f)/f = 2 a xi; finite for any xi."""
        w = 2.0 * self.a(x, y)
        return w * gx, w * gy

    def triple(self, ball):
        p, q = self.a.range_on_ball(ball)
        if p <= 0:
            raise ValueError("exponential coefficient must be positive on the ball")
        c1 = 2 * p
        c2 = max(4 * q * q, 2 * q)
        c3 = 2 * _SQRT_N * self.a.lipschitz * max(1.0, q)

        def g1(t):
            return c1 * self._exp_guarded(p * t * t)

        def g1_log(t):
            return math.log(c1) + p * t * t

        def g2(t):
            return c2 * (1 + t * t) * self._exp_guarded(q * t * t)

        def g2_log(t):
            return math.log(c2) + np.log1p(t * t) + q * t * t

        def g3(t):
            return c3 * t * (1 + t * t) * self._exp_guarded(q * t * t)

        def g3_log(t):
            return math.log(c3) + _log_t(t) + np.log1p(t * t) + q * t * t

        # int_0^t sqrt(c1) e^(p s^2 / 2) ds = sqrt(c1 pi/(2p)) erfi(sqrt(p/2) t);
        # erfi through the Dawson function keeps the log form overflow-free
        amp = math.sqrt(c1 * math.pi / (2 * p))

        def anti(t):
            return amp * _erfi(np.sqrt(p / 2) * t)

        def anti_log(t):
            xx = np.sqrt(p / 2) * t
            with np.errstate(divide="ignore"):
                ld = np.where(xx > 0, np.log(np.maximum(_dawson(xx), 1e-300)), -np.inf)
            return math.log(amp) + math.log(2 / math.sqrt(math.pi)) + xx * xx + ld

        return GrowthTriple(
            g1=GrowthFn(g1, g1_log),
            g2=GrowthFn(g2, g2_log),
            g3=GrowthFn(g3, g3_log),
            sqrt_g1_antiderivative=GrowthFn(anti, anti_log),
        )

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        lo, hi = self.a.range_on_ball(ball)
        return auto_exponential_params(lo, hi, n, two_star)


class PxLaplacian(RadialFamily):
    """f(x, xi) = |xi|^p(x) with a variable exponent p(x) >= 2."""

    kind = "px_laplacian"

    def __init__(self, p: Coefficient):
        self.pfun = p
        self.oscillating_coefficient = p

    def describe(self):
        return f"px_laplacian(p={self.pfun.source})"

    def profile_value(self, x, y, t):
        return np.power(np.asarray(t, float), self.pfun(x, y))

    def profile_dtt(self, x, y, t):
        p = self.pfun(x, y)
        # np.power(0, 0) == 1 gives the correct p = 2 limit at t = 0
        return p * (p - 1) * np.power(np.asarray(t, float), p - 2)

    def profile_slope(self, x, y, t):
        p = self.pfun(x, y)
        return p * np.power(np.asarray(t, float), p - 2)

    def triple(self, ball):
        p, q = self.pfun.range_on_ball(ball)
        g1, g2 = _min_max_power_fns(p, q * (q - 1), p - 2, q - 2)
        c3 = _SQRT_N * self.pfun.lipschitz * max(
            1 + q / float(OMEGA), 1 + q / (math.e * max(p - 1, 1e-9))
        )
        g3 = _power_sum_fn([(c3, 0.0), (c3, q - 1 + float(OMEGA))])
        return GrowthTriple(g1=g1, g2=g2, g3=g3)

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        lo, hi = self.pfun.range_on_ball(ball)
        return auto_px_params(lo, hi, n, two_star)


class LogPxLaplacian(RadialFamily):
    """Orlicz variant f(x, xi) = |xi|^p(x) log(1 + |xi|^2), p(x) >= 2."""

    kind = "log_px_laplacian"

    def __init__(self, p: Coefficient):
        self.pfun = p

    def describe(self):
        return f"log_px_laplacian(p={self.pfun.source})"

    def profile_value(self, x, y, t):
        t = np.asarray(t, float)
        return np.power(t, self.pfun(x, y)) * np.log1p(t * t)

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        p = self.pfun(x, y)
        t2 = t * t
        ell = np.log1p(t2)
        return np.power(t, p - 2) * (
            p * (p - 1) * ell + 4 * p * t2 / (1 + t2) + 2 * t2 * (1 - t2) / (1 + t2) ** 2
        )

    def profile_slope(self, x, y, t):
        t = np.asarray(t, float)
        p = self.pfun(x, y)
        return np.power(t, p - 2) * (p * np.log1p(t * t) + 2 * t * t / (1 + t * t))

    def triple(self, ball):
        p, q = self.pfun.range_on_ball(ball)

        def ell(t):
            return np.log1p(np.asarray(t, float) ** 2)

        base_lo, base_hi = _min_max_power_fns(1.0, 1.0, p - 2, q - 2)
        c2 = max(q * (q - 1), 4 * q) + 1.0

        def g1(t):
            return p * base_lo(t) * ell(t)

        def g2(t):
            return c2 * base_hi(t) * (ell(t) + 1)

        # |g_t x_k| has no clean closed constant; fit c3 on a dense scan
        c3 = self._fit_g3_constant(ball, q) * 1.05
        g3 = _power_sum_fn([(c3, 0.0), (c3, q - 1 + float(OMEGA))])
        return GrowthTriple(g1=GrowthFn(g1), g2=GrowthFn(g2), g3=g3)

    def _fit_g3_constant(self, ball: Ball, q: float) -> float:
        xs, ys = ball.sample_points(6, 8)
        X, Y = xs[:, None], ys[:, None]
        ts = np.logspace(-3, 3, 160)
        h = 1e-6
        envelope = 1.0 + np.power(ts, q - 1 + float(OMEGA))
        worst = 0.0
        for dx, dy in ((h, 0.0), (0.0, h)):
            gp = ts * self.profile_slope(X + dx, Y + dy, ts)
            gm = ts * self.profile_slope(X - dx, Y - dy, ts)
            mixed = math.sqrt(2.0) * np.abs(gp - gm) / (2 * h)
            worst = max(worst, float(np.max(mixed / envelope)))
        return max(worst, 1e-6)

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        return ParamRejection(
            "resolve_params",
            "no certified auto recipe for the log-variant exponent class; "
            "supply an explicit schedule",
        )


class DoublePhase(_PowerSum):
    """f(x, xi) = |xi|^p + a(x) |xi|^q with 2 <= p <= q and a >= 0."""

    kind = "double_phase"

    def __init__(self, p: float, q: float, a: Coefficient):
        if not 2 <= p <= q:
            raise ValueError(f"p must satisfy 2 <= p <= q for double phase, got p={p}, q={q}")
        self.p = float(p)
        self.q = float(q)
        self.a = a

    def describe(self):
        return f"double_phase(p={self.p:g}, q={self.q:g}, a={self.a.source})"

    def _terms(self):
        return [(self.p, None), (self.q, self.a)]

    def triple(self, ball):
        ranges = [(e, (1.0, 1.0) if c is None else c.range_on_ball(ball)) for e, c in self._terms()]
        a_lo = ranges[1][1][0]  # the q term carries a
        if a_lo < 0:
            raise ValueError(f"a = {self.a.source} must be non-negative on the ball, got {a_lo:.6g}")
        g1 = _power_sum_fn([(lo * e, e - 2) for e, (lo, _hi) in ranges])
        g2 = _power_sum_fn([(hi * e * (e - 1), e - 2) for e, (_lo, hi) in ranges])
        g3 = _power_sum_fn([(_SQRT_N * self.a.lipschitz * self.q, self.q - 1)])
        return GrowthTriple(g1=g1, g2=g2, g3=g3)

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        params = double_phase_params(self.p, self.q, n, two_star)
        # n = 2 puts no bound on q/p, but beta = q/p must still meet its own
        if n == 2 and not params.beta_ok():
            return ParamRejection(
                "double_phase_params", "beta = q/p breaks its bound at n = 2", params.beta,
                params.beta_upper_bound(),
            )
        return params


class MultiPhase(DoublePhase):
    """Double phase plus the auxiliary constant term b |xi|^(2q - p).

    The third exponent sits at the same distance q - p above q; it is
    derived from (p, q), never supplied.
    """

    kind = "multi_phase"

    def __init__(self, p: float, q: float, a: Coefficient, b: float):
        super().__init__(p, q, a)
        if b < 0:
            raise ValueError(f"b must be non-negative for multi phase, got {b}")
        self.b = float(b)
        self.r = 2 * self.q - self.p

    def describe(self):
        return f"multi_phase(p={self.p:g}, q={self.q:g}, a={self.a.source}, b={self.b:g})"

    def _terms(self):
        bcoef = Coefficient.constant(self.b)
        return [(self.p, None), (self.q, self.a), (self.r, bcoef)]

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        return double_phase_params(self.p, self.q, n, two_star, third_phase=True)


class VeryDegenerate(RadialFamily):
    """f(xi) = (1/p) (|xi| - 1)_+^p: ellipticity vanishes on |xi| <= 1.

    Any field with |Du| <= 1 in the right set minimizes; the solver returns
    one minimizer and downstream statistics must not read meaning into the
    plateau values.
    """

    kind = "very_degenerate"

    def __init__(self, p: float):
        if p < 2:
            raise ValueError(f"p must be at least 2 for the very degenerate family, got {p}")
        self.p = float(p)

    def describe(self):
        return f"very_degenerate(p={self.p:g})"

    def profile_value(self, x, y, t):
        s = np.maximum(np.asarray(t, float) - 1.0, 0.0)
        return np.power(s, self.p) / self.p

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        s = np.maximum(t - 1.0, 0.0)
        return np.where(t > 1.0, (self.p - 1) * np.power(np.where(t > 1, s, 1.0), self.p - 2), 0.0)

    def profile_slope(self, x, y, t):
        t = np.asarray(t, float)
        s = np.maximum(t - 1.0, 0.0)
        safe = np.where(t > 0, t, 1.0)
        return np.where(t > 1.0, np.power(s, self.p - 1) / safe, 0.0)

    def triple(self, ball):
        # x-independent: g1 = g_t/t and g2 = g_tt themselves
        return GrowthTriple(
            g1=GrowthFn(lambda t: self.profile_slope(0.0, 0.0, t)),
            g2=GrowthFn(lambda t: self.profile_dtt(0.0, 0.0, t)),
            g3=_power_sum_fn([]),
            degenerate=True,
        )

    # natural growth: the p-Laplacian recipe
    auto_params = PLaplacian.auto_params


class Anisotropic(IntegrandFamily):
    """Anisotropic density h(x, xi) + |xi_2|^q (the last component carries q).

    Two base forms:

    * ``aij``: h = sum a_ij(x) xi_i xi_j, the quadratic base (p = 2);
    * ``power``: h = |xi|^p with p >= 2 and the standard-condition
      constants (c1, c2, c3) = (p, p (p - 1), 0).
    """

    kind = "anisotropic"

    def __init__(
        self,
        q: float,
        aij: Optional[tuple[Coefficient, Coefficient, Coefficient]] = None,
        base_p: Optional[float] = None,
    ):
        if q < 2:
            raise ValueError(f"q must be at least 2 for the anisotropic family, got {q}")
        if (aij is None) == (base_p is None):
            raise ValueError("supply exactly one of aij or base_p")
        if base_p is not None and not 2 <= base_p <= q:
            raise ValueError(
                f"base_p must satisfy 2 <= base_p <= q for the anisotropic family, got base_p={base_p}, q={q}"
            )
        self.q = float(q)
        self.aij = aij
        self.base_p = None if base_p is None else float(base_p)

    @property
    def p(self) -> float:
        return 2.0 if self.aij is not None else self.base_p

    def describe(self):
        if self.aij is not None:
            a11, a12, a22 = self.aij
            return (
                f"anisotropic(q={self.q:g}, a11={a11.source}, a12={a12.source}, "
                f"a22={a22.source})"
            )
        return f"anisotropic(q={self.q:g}, h=|xi|^{self.base_p:g})"

    def value(self, x, y, gx, gy):
        q = self.q
        if self.aij is not None:
            a11, a12, a22 = self.aij
            h = a11(x, y) * gx * gx + 2 * a12(x, y) * gx * gy + a22(x, y) * gy * gy
        else:
            h = np.power(np.hypot(gx, gy), self.base_p)
        return h + np.power(np.abs(gy), q)

    def grad(self, x, y, gx, gy):
        q = self.q
        tail = q * np.power(np.abs(gy), q - 2) * gy if q != 2 else 2.0 * gy
        if self.aij is not None:
            a11, a12, a22 = self.aij
            return (
                2 * (a11(x, y) * gx + a12(x, y) * gy),
                2 * (a12(x, y) * gx + a22(x, y) * gy) + tail,
            )
        p = self.base_p
        t = np.hypot(gx, gy)
        w = p * np.power(t, p - 2) if p != 2 else 2.0
        return w * gx, w * gy + tail

    def hess_qf(self, x, y, gx, gy, lx, ly):
        q = self.q
        tail = q * (q - 1) * np.power(np.abs(gy), q - 2) * ly * ly
        if self.aij is not None:
            a11, a12, a22 = self.aij
            return 2 * (a11(x, y) * lx * lx + 2 * a12(x, y) * lx * ly + a22(x, y) * ly * ly) + tail
        p = self.base_p
        t = np.hypot(gx, gy)
        lam2 = lx * lx + ly * ly
        dot = gx * lx + gy * ly
        if p == 2:
            head = 2.0 * lam2
        else:
            head = np.where(
                t > 0,
                p * (t * t * lam2 + (p - 2) * dot * dot) * np.power(np.where(t > 0, t, 1.0), p - 4),
                0.0,
            )
        return head + tail

    def eigen_range_on_ball(self, ball: Ball) -> tuple[float, float]:
        """(min, max) eigenvalue of the 2x2 matrix (a_ij) over the ball; a
        ValueError naming a coefficient that is not finite there."""
        m, o, d = (c.on_ball(ball) for c in self.aij)
        mid = (m + d) / 2
        rad = np.sqrt(((m - d) / 2) ** 2 + o * o)
        return float(np.min(mid - rad)), float(np.max(mid + rad))

    def triple(self, ball):
        q = self.q
        if self.aij is not None:
            lo, hi = self.eigen_range_on_ball(ball)
            if lo <= 0:
                raise ValueError("anisotropic coefficient matrix must stay positive definite")
            c1 = 2 * lo
            c2 = 2 * hi
            L = max(c.lipschitz for c in self.aij)
            c3 = 2 * _N_DIM * _SQRT_N * L
            p = 2.0
        else:
            p = self.base_p
            c1, c2, c3 = p, p * (p - 1), 0.0
        g1 = _power_sum_fn([(c1, p - 2)])
        g2 = _power_sum_fn([(max(c2, 1.0), p - 2), (q * (q - 1), q - 2)])
        g3 = _power_sum_fn([(c3, p - 1)])
        return _normalize(GrowthTriple(g1=g1, g2=g2, g3=g3))

    def auto_params(self, ball, n, two_star, *, alpha, delta):
        return anisotropic_params(self.p, self.q, n, two_star)


# ---------------------------------------------------------------------------
# Module-level operations on points
# ---------------------------------------------------------------------------


def radial_bounds(family: IntegrandFamily, x, t: float):
    """Pointwise Hessian bounds and the monotonicity case of g_t/t at x.

    Returns ``(lower, upper, case)`` where case is 'ii' when g_t/t is
    increasing in t at this x, 'iii' when decreasing, 'i' otherwise, and
    (lower, upper) = (min, max) of {g_t/t, g_tt} at the given t, read from
    the family's radial profile.
    """
    if not family.radial:
        raise ProfileDomainError(f"{family.kind} has no radial profile")
    if t <= 0:
        raise ProfileDomainError("radial bounds need t > 0")
    px, py = float(x[0]), float(x[1])
    s = float(family.profile_slope(px, py, t))
    r = float(family.profile_dtt(px, py, t))
    if not (math.isfinite(s) and math.isfinite(r)):
        raise ProfileDomainError(f"profile not finite at t={t}")
    t_scan = np.logspace(-3, 3, 121)
    # shrink the scan range until the profile is representable on it
    # (exponential profiles overflow well below the default upper end)
    for _ in range(24):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                slope = family.profile_slope(px, py, t_scan)
                d = family.profile_dtt(px, py, t_scan) - slope
                scale = np.abs(slope) * t_scan
            finite = np.isfinite(d) & np.isfinite(scale)
            if np.all(finite):
                break
            t_scan = t_scan[: max(int(np.argmin(finite)), 0)]
        except (SaturationError, OverflowError, FloatingPointError):
            t_scan = t_scan[t_scan <= t_scan[-1] / 2.0]
        if t_scan.size < 8:
            raise ProfileDomainError("profile not representable on any usable t range")
    # d/dt (g_t/t) = (g_tt - g_t/t) / t, relative to g_t/t
    rel = d / np.maximum(scale, 1e-300)
    tol = 1e-9
    if np.all(rel >= -tol):
        case = "ii"
    elif np.all(rel <= tol):
        case = "iii"
    else:
        case = "i"
    return min(s, r), max(s, r), case
