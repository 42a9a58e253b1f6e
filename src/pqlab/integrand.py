"""Catalog of energy densities f(x, xi) with analytic gradients and Hessians.

Every family evaluates the density, its xi-gradient, and the Hessian
quadratic form sum_ij f_{xi_i xi_j} lam_i lam_j.  Families whose
xi-dependence goes through the modulus t = |xi| use the radial
decomposition

    QF = (g_tt - g_t/t) (xi.lam)^2 / t^2  +  (g_t/t) |lam|^2,

where g(x, t) is the radial profile.  All evaluators are vectorized over
numpy arrays and pure: a family is immutable once built.

The exponential family stores the density in log space and refuses to
silently return IEEE infinities; it raises :class:`SaturationError` instead
so callers (the solver's line search, the condition checkers) can switch to
log-domain arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Largest exponent exp() can take before overflowing a double, with margin.
LOG_MAX = 700.0


def _const_like(value: float, *arrays):
    """Array filled with ``value``, broadcast to the common shape of ``arrays``."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    return np.full(shape, float(value)) if shape else float(value)


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

    def contains(self, x, y):
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 <= self.r**2

    def sample_points(self, n_radial: int = 12, n_angular: int = 16):
        """Deterministic polar sampling grid (includes the center)."""
        rr = self.r * np.sqrt(np.linspace(0.0, 1.0, n_radial + 1))
        th = np.linspace(0.0, 2 * math.pi, n_angular, endpoint=False)
        R, T = np.meshgrid(rr, th, indexing="ij")
        xs = np.concatenate([[self.cx], (self.cx + R * np.cos(T)).ravel()])
        ys = np.concatenate([[self.cy], (self.cy + R * np.sin(T)).ravel()])
        return xs, ys


class Coefficient:
    """Scalar field of position with a user-declared Lipschitz constant.

    The Lipschitz constant is declared, not estimated: the growth-condition
    constants (e.g. c3 for the exponential family) use it directly.
    """

    def __init__(self, fn: Callable, lipschitz: float = 0.0, source: str = "<callable>"):
        self._fn = fn
        self.lipschitz = float(lipschitz)
        self.source = source

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        v = float(value)
        return cls(lambda x, y: _const_like(v, x, y), lipschitz=0.0, source=repr(v))

    def __call__(self, x, y):
        return np.asarray(self._fn(np.asarray(x, float), np.asarray(y, float)), float)

    def range_on_ball(self, ball: Ball) -> tuple[float, float]:
        xs, ys = ball.sample_points()
        vals = self(xs, ys)
        return float(np.min(vals)), float(np.max(vals))

    def __repr__(self):
        return f"Coefficient({self.source}, L={self.lipschitz})"


@dataclass(frozen=True)
class RadialProfile:
    """Radial profile g(x, t) with its first two t-derivatives.

    ``dt(x, y, 0)`` must vanish; ``dt(x,y,t)/t`` and ``dtt`` must be finite
    for t > 0.  ``singular_at_origin`` marks profiles whose Hessian form has
    no limit at xi = 0 (then the form raises :class:`ProfileDomainError`).
    """

    value: Callable
    dt: Callable
    dtt: Callable
    label: str = ""
    singular_at_origin: bool = False
    slope0: Optional[Callable] = None

    def slope(self, x, y, t):
        """g_t / t, computed without dividing at t = 0 when a limit exists."""
        t = np.asarray(t, float)
        safe = np.where(t > 0, t, 1.0)
        return np.where(t > 0, self.dt(x, y, safe) / safe, self._slope_at_zero(x, y))

    def _slope_at_zero(self, x, y):
        if self.slope0 is not None:
            return self.slope0(x, y)
        if self.singular_at_origin:
            return _const_like(np.nan, x, y)
        # limit of g_t/t at 0 by a small-t probe; families with exact limits
        # install slope0 instead
        eps = 1e-8
        return self.dt(x, y, eps) / eps


# ---------------------------------------------------------------------------
# Family base machinery
# ---------------------------------------------------------------------------


class IntegrandFamily:
    """Base interface; concrete families fill in the evaluators."""

    kind: str = ""
    radial: bool = True
    # solver hint: profile has kinks/plateaus worth smoothing during iteration
    needs_smoothing: bool = False

    def value(self, x, y, gx, gy):
        raise NotImplementedError

    def grad(self, x, y, gx, gy):
        raise NotImplementedError

    def hess_qf(self, x, y, gx, gy, lx, ly):
        raise NotImplementedError

    def hessian_t_cap(self, ball: Ball) -> Optional[float]:
        """Largest |xi| at which the Hessian is representable on the ball; None if unbounded."""
        return None

    def describe(self) -> str:
        return self.kind

    def __repr__(self):
        return self.describe()


class _RadialFamily(IntegrandFamily):
    """Radial families implement profile_* and inherit the decomposition."""

    def profile_value(self, x, y, t):
        raise NotImplementedError

    def profile_dt(self, x, y, t):
        raise NotImplementedError

    def profile_dtt(self, x, y, t):
        raise NotImplementedError

    def profile_slope(self, x, y, t):
        """g_t(x,t)/t with the correct t = 0 limit."""
        raise NotImplementedError

    def profile(self) -> RadialProfile:
        return RadialProfile(
            value=self.profile_value,
            dt=self.profile_dt,
            dtt=self.profile_dtt,
            label=self.describe(),
            slope0=lambda x, y: self.profile_slope(x, y, 0.0),
        )

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
        dot = gx * lx + gy * ly
        tsafe = np.where(t > 0, t, 1.0)
        aligned = np.where(t > 0, (dot / tsafe) ** 2, 0.0)
        # at t = 0 slope and dtt coincide for every smooth catalog profile,
        # so the formula degenerates to the constant form s * |lam|^2
        return np.where(t > 0, (r - s) * aligned + s_lam2, s_lam2)

    # value with the smoothed modulus (|xi|^2 + eps^2)^(1/2); used by the solver
    def value_smoothed(self, x, y, gx, gy, eps):
        t = np.sqrt(gx * gx + gy * gy + eps * eps)
        return self.profile_value(x, y, t)

    def grad_smoothed(self, x, y, gx, gy, eps):
        t = np.sqrt(gx * gx + gy * gy + eps * eps)
        w = self.profile_dt(x, y, t) / t
        return w * gx, w * gy


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


class PLaplacian(_RadialFamily):
    """f(xi) = |xi|^p, p >= 2.  Uniformly elliptic benchmark."""

    kind = "p_laplacian"

    def __init__(self, p: float):
        if p < 2:
            raise ValueError(f"p-Laplacian family requires p >= 2, got {p}")
        self.p = float(p)

    def describe(self):
        return f"p_laplacian(p={self.p:g})"

    def profile_value(self, x, y, t):
        return np.power(np.asarray(t, float), self.p)

    def profile_dt(self, x, y, t):
        return self.p * np.power(np.asarray(t, float), self.p - 1)

    def profile_dtt(self, x, y, t):
        p = self.p
        if p == 2:
            return _const_like(2.0, t, x)
        return p * (p - 1) * np.power(np.asarray(t, float), p - 2)

    def profile_slope(self, x, y, t):
        p = self.p
        if p == 2:
            return _const_like(2.0, t, x)
        return p * np.power(np.asarray(t, float), p - 2)


class Exponential(_RadialFamily):
    """f(x, xi) = exp(a(x) |xi|^tau), a > 0 locally Lipschitz, tau >= 2.

    Stored in log space: ``log_value`` never overflows, the linear
    evaluators raise :class:`SaturationError` past exp(LOG_MAX).
    """

    kind = "exponential"

    def __init__(self, a: Coefficient, tau: float = 2.0):
        if tau < 2:
            raise ValueError(f"exponential family requires tau >= 2, got {tau}")
        self.a = a
        self.tau = float(tau)

    def describe(self):
        return f"exponential(a={self.a.source}, tau={self.tau:g})"

    def hessian_t_cap(self, ball: Ball) -> Optional[float]:
        return 0.9 * ((LOG_MAX - 60.0) / max(self.a.range_on_ball(ball)[1], 1e-12)) ** (1.0 / self.tau)

    def log_value(self, x, y, gx, gy):
        t = np.hypot(gx, gy)
        return self.a(x, y) * np.power(t, self.tau)

    def _exp_guarded(self, logv):
        m = float(np.max(logv)) if np.size(logv) else 0.0
        if m > LOG_MAX:
            raise SaturationError(m)
        return np.exp(logv)

    def profile_value(self, x, y, t):
        return self._exp_guarded(self.a(x, y) * np.power(np.asarray(t, float), self.tau))

    def profile_dt(self, x, y, t):
        t = np.asarray(t, float)
        a = self.a(x, y)
        s = a * np.power(t, self.tau)
        return a * self.tau * np.power(t, self.tau - 1) * self._exp_guarded(s)

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        a = self.a(x, y)
        tau = self.tau
        s = a * np.power(t, tau)
        poly = a * tau * (tau - 1) * np.power(t, tau - 2) + (a * tau) ** 2 * np.power(t, 2 * tau - 2)
        return poly * self._exp_guarded(s)

    def profile_slope(self, x, y, t):
        t = np.asarray(t, float)
        a = self.a(x, y)
        s = a * np.power(t, self.tau)
        if self.tau == 2:
            return 2.0 * a * self._exp_guarded(s)
        return a * self.tau * np.power(t, self.tau - 2) * self._exp_guarded(s)

    def grad_coeff_over_f(self, x, y, gx, gy):
        """(grad f)/f = tau a |xi|^(tau-2) xi; finite for any xi."""
        t = np.hypot(gx, gy)
        w = self.a(x, y) * self.tau * np.power(t, self.tau - 2) if self.tau != 2 else 2.0 * self.a(x, y)
        return w * gx, w * gy


class PxLaplacian(_RadialFamily):
    """f(x, xi) = |xi|^p(x) with a variable exponent p(x) >= 2."""

    kind = "px_laplacian"

    def __init__(self, p: Coefficient):
        self.pfun = p

    def describe(self):
        return f"px_laplacian(p={self.pfun.source})"

    def profile_value(self, x, y, t):
        return np.power(np.asarray(t, float), self.pfun(x, y))

    def profile_dt(self, x, y, t):
        p = self.pfun(x, y)
        return p * np.power(np.asarray(t, float), p - 1)

    def profile_dtt(self, x, y, t):
        p = self.pfun(x, y)
        # np.power(0, 0) == 1 gives the correct p = 2 limit at t = 0
        return p * (p - 1) * np.power(np.asarray(t, float), p - 2)

    def profile_slope(self, x, y, t):
        p = self.pfun(x, y)
        return p * np.power(np.asarray(t, float), p - 2)


class LogPxLaplacian(_RadialFamily):
    """Orlicz variant f(x, xi) = |xi|^p(x) log(1 + |xi|^2), p(x) >= 2."""

    kind = "log_px_laplacian"

    def __init__(self, p: Coefficient):
        self.pfun = p

    def describe(self):
        return f"log_px_laplacian(p={self.pfun.source})"

    def profile_value(self, x, y, t):
        t = np.asarray(t, float)
        return np.power(t, self.pfun(x, y)) * np.log1p(t * t)

    def profile_dt(self, x, y, t):
        t = np.asarray(t, float)
        p = self.pfun(x, y)
        ell = np.log1p(t * t)
        return np.power(t, p - 1) * (p * ell + 2 * t * t / (1 + t * t))

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


class DoublePhase(_RadialFamily):
    """f(x, xi) = |xi|^p + a(x) |xi|^q with 2 <= p <= q and a >= 0."""

    kind = "double_phase"

    def __init__(self, p: float, q: float, a: Coefficient):
        if not 2 <= p <= q:
            raise ValueError(f"double phase requires 2 <= p <= q, got p={p}, q={q}")
        self.p = float(p)
        self.q = float(q)
        self.a = a

    def describe(self):
        return f"double_phase(p={self.p:g}, q={self.q:g}, a={self.a.source})"

    def _terms(self):
        # (exponent, coefficient-callable) pairs of the power sum
        return [(self.p, None), (self.q, self.a)]

    def profile_value(self, x, y, t):
        t = np.asarray(t, float)
        out = 0.0
        for e, c in self._terms():
            w = 1.0 if c is None else c(x, y)
            out = out + w * np.power(t, e)
        return out

    def profile_dt(self, x, y, t):
        t = np.asarray(t, float)
        out = 0.0
        for e, c in self._terms():
            w = 1.0 if c is None else c(x, y)
            out = out + w * e * np.power(t, e - 1)
        return out

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        out = 0.0
        for e, c in self._terms():
            w = 1.0 if c is None else c(x, y)
            out = out + w * e * (e - 1) * np.power(t, e - 2)
        return out

    def profile_slope(self, x, y, t):
        t = np.asarray(t, float)
        out = 0.0
        for e, c in self._terms():
            w = 1.0 if c is None else c(x, y)
            out = out + w * e * np.power(t, e - 2)
        return out


class MultiPhase(DoublePhase):
    """Double phase plus the auxiliary constant term b |xi|^(2q - p).

    The third exponent sits at the same distance q - p above q; it is
    derived from (p, q), never supplied.
    """

    kind = "multi_phase"

    def __init__(self, p: float, q: float, a: Coefficient, b: float):
        super().__init__(p, q, a)
        if b < 0:
            raise ValueError(f"multi phase requires b >= 0, got {b}")
        self.b = float(b)
        self.r = 2 * self.q - self.p

    def describe(self):
        return f"multi_phase(p={self.p:g}, q={self.q:g}, a={self.a.source}, b={self.b:g})"

    def _terms(self):
        bcoef = Coefficient.constant(self.b)
        return [(self.p, None), (self.q, self.a), (self.r, bcoef)]


class VeryDegenerate(_RadialFamily):
    """f(xi) = (1/p) (|xi| - 1)_+^p: ellipticity vanishes on |xi| <= 1.

    Any field with |Du| <= 1 in the right set minimizes; the solver returns
    one minimizer and downstream statistics must not read meaning into the
    plateau values.
    """

    kind = "very_degenerate"
    needs_smoothing = True

    def __init__(self, p: float):
        if p < 2:
            raise ValueError(f"very degenerate family requires p >= 2, got {p}")
        self.p = float(p)

    def describe(self):
        return f"very_degenerate(p={self.p:g})"

    def profile_value(self, x, y, t):
        s = np.maximum(np.asarray(t, float) - 1.0, 0.0)
        return np.power(s, self.p) / self.p

    def profile_dt(self, x, y, t):
        s = np.maximum(np.asarray(t, float) - 1.0, 0.0)
        return np.power(s, self.p - 1)

    def profile_dtt(self, x, y, t):
        t = np.asarray(t, float)
        s = np.maximum(t - 1.0, 0.0)
        return np.where(t > 1.0, (self.p - 1) * np.power(np.where(t > 1, s, 1.0), self.p - 2), 0.0)

    def profile_slope(self, x, y, t):
        t = np.asarray(t, float)
        s = np.maximum(t - 1.0, 0.0)
        safe = np.where(t > 0, t, 1.0)
        return np.where(t > 1.0, np.power(s, self.p - 1) / safe, 0.0)


class Anisotropic(IntegrandFamily):
    """Anisotropic density h(x, xi) + |xi_2|^q (the last component carries q).

    Two base forms:

    * ``aij``: h = sum a_ij(x) xi_i xi_j, the quadratic base (p = 2);
    * ``power``: h = |xi|^p with p >= 2 and standard-condition constants
      (c1, c2, c3) supplied by the caller or derived from p.
    """

    kind = "anisotropic"
    radial = False

    def __init__(
        self,
        q: float,
        aij: Optional[tuple[Coefficient, Coefficient, Coefficient]] = None,
        base_p: Optional[float] = None,
        base_constants: Optional[tuple[float, float, float]] = None,
    ):
        if q < 2:
            raise ValueError(f"anisotropic family requires q >= 2, got {q}")
        if (aij is None) == (base_p is None):
            raise ValueError("supply exactly one of aij or base_p")
        if base_p is not None and not 2 <= base_p <= q:
            raise ValueError(f"anisotropic base requires 2 <= p <= q, got p={base_p}")
        self.q = float(q)
        self.aij = aij
        self.base_p = None if base_p is None else float(base_p)
        if base_p is not None and base_constants is None:
            base_constants = (base_p, base_p * (base_p - 1), 0.0)
        self.base_constants = base_constants

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
        """(min, max) eigenvalue of the 2x2 matrix (a_ij) over the ball."""
        a11, a12, a22 = self.aij
        xs, ys = ball.sample_points()
        m, d, o = a11(xs, ys), a22(xs, ys), a12(xs, ys)
        mid = (m + d) / 2
        rad = np.sqrt(((m - d) / 2) ** 2 + o * o)
        return float(np.min(mid - rad)), float(np.max(mid + rad))


# ---------------------------------------------------------------------------
# Module-level operations on points
# ---------------------------------------------------------------------------


def eval_f(family: IntegrandFamily, x, xi) -> float:
    """Energy density f(x, xi) at a single point."""
    px, py = float(x[0]), float(x[1])
    return float(family.value(px, py, float(xi[0]), float(xi[1])))


def eval_grad_xi(family: IntegrandFamily, x, xi) -> np.ndarray:
    """Analytic xi-gradient of f at a single point."""
    px, py = float(x[0]), float(x[1])
    fx, fy = family.grad(px, py, float(xi[0]), float(xi[1]))
    return np.array([float(fx), float(fy)])


def hessian_quadratic_form(family: IntegrandFamily, x, xi, lam) -> float:
    """sum_ij f_{xi_i xi_j}(x, xi) lam_i lam_j at a single point."""
    px, py = float(x[0]), float(x[1])
    return float(
        family.hess_qf(px, py, float(xi[0]), float(xi[1]), float(lam[0]), float(lam[1]))
    )


def radial_bounds(profile: RadialProfile, x, t: float, t_scan=None):
    """Pointwise Hessian bounds and the monotonicity case of g_t/t at x.

    Returns ``(lower, upper, case)`` where case is 'ii' when g_t/t is
    increasing in t at this x, 'iii' when decreasing, 'i' otherwise, and
    (lower, upper) = (min, max) of {g_t/t, g_tt} at the given t.
    """
    if t <= 0:
        raise ProfileDomainError("radial bounds need t > 0")
    px, py = float(x[0]), float(x[1])
    s = float(profile.dt(px, py, t) / t)
    r = float(profile.dtt(px, py, t))
    if not (math.isfinite(s) and math.isfinite(r)):
        raise ProfileDomainError(f"profile not finite at t={t}")
    if t_scan is None:
        t_scan = np.logspace(-3, 3, 121)
    t_scan = np.asarray(t_scan, float)
    # shrink the scan range until the profile is representable on it
    # (exponential profiles overflow well below the default upper end)
    for _ in range(24):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                d = profile.dtt(px, py, t_scan) * t_scan - profile.dt(px, py, t_scan)
                scale = np.abs(profile.dt(px, py, t_scan))
            finite = np.isfinite(d) & np.isfinite(scale)
            if np.all(finite):
                break
            t_scan = t_scan[: max(int(np.argmin(finite)), 0)]
        except (SaturationError, OverflowError, FloatingPointError):
            t_scan = t_scan[t_scan <= t_scan[-1] / 2.0]
        if t_scan.size < 8:
            raise ProfileDomainError("profile not representable on any usable t range")
    rel = d / (np.maximum(scale, 1e-300) * t_scan + 1e-300)
    tol = 1e-9
    if np.all(rel >= -tol):
        case = "ii"
    elif np.all(rel <= tol):
        case = "iii"
    else:
        case = "i"
    return min(s, r), max(s, r), case


def power_profile(p: float, coeff: Coefficient | None = None) -> RadialProfile:
    """Profile of a(x) t^p for any p > 1; p < 2 is singular at the origin."""
    c = coeff if coeff is not None else Coefficient.constant(1.0)

    def value(x, y, t):
        return c(x, y) * np.power(np.asarray(t, float), p)

    def dt(x, y, t):
        return c(x, y) * p * np.power(np.asarray(t, float), p - 1)

    def dtt(x, y, t):
        return c(x, y) * p * (p - 1) * np.power(np.asarray(t, float), p - 2)

    return RadialProfile(
        value=value, dt=dt, dtt=dtt, label=f"{c.source}*t^{p:g}", singular_at_origin=p < 2
    )


def exp_profile(coeff: Coefficient | None = None) -> RadialProfile:
    """Profile of exp(a(x) t^2)."""
    c = coeff if coeff is not None else Coefficient.constant(1.0)

    def value(x, y, t):
        return np.exp(c(x, y) * np.asarray(t, float) ** 2)

    def dt(x, y, t):
        t = np.asarray(t, float)
        a = c(x, y)
        return 2 * a * t * np.exp(a * t * t)

    def dtt(x, y, t):
        t = np.asarray(t, float)
        a = c(x, y)
        return (4 * a * a * t * t + 2 * a) * np.exp(a * t * t)

    return RadialProfile(value=value, dt=dt, dtt=dtt, label=f"exp({c.source}*t^2)")
