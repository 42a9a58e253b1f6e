"""Admissible exponent parameters and the sup-bound iteration bookkeeping.

Three layers:

* parameter recipes per integrand class (natural growth, anisotropic,
  exponential, variable exponent, double phase) returning either an
  :class:`ExponentParams` or a :class:`ParamRejection` value carrying the
  violated bound;
* the strict inequality region 2 <= alpha < 2* - 2(gamma - 1),
  1 <= beta < 2(alpha + 2 gamma - 2) / (n (alpha + 2 gamma - 4));
* the iteration exponents: the sequence lambda_k, the pair (nu, mu), and
  theta_0 ... theta_4 entering the gradient and second-derivative estimates.

Exponent algebra runs in exact rational arithmetic only, so strict
inequalities at region boundaries never flip on roundoff.  Every entry point
converts its inputs once: an integer or rational becomes the equal
``Fraction``, a float x becomes ``Fraction(x).limit_denominator(10**9)``
(so 2.6 is 13/5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

Number = Union[int, float, Fraction]

#: Sentinel for the mu -> infinity limit used when beta = 1.
MU_UNBOUNDED = math.inf

#: The margin omega of the variable-exponent class: g3 grows like
#: t^(q - 1 + omega), and the schedule's delta (``px_delta``) covers it.
OMEGA = Fraction(1, 100)

#: Number of lambda_k in a schedule.
DEFAULT_K = 8


def _as_number(x: Number) -> Fraction:
    """The exact rational the exponent algebra takes for ``x``."""
    if isinstance(x, bool):
        raise TypeError("booleans are not exponent values")
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a number, got {type(x).__name__}")


@dataclass(frozen=True)
class SobolevContext:
    """Dimension n and the Sobolev exponent 2*.

    For n > 2 the exponent is exactly 2n/(n-2); for n = 2 it is a free
    large number, defaulted with enough slack for the paired parameters.
    """

    n: int
    two_star: Fraction

    def __post_init__(self):
        object.__setattr__(self, "two_star", _as_number(self.two_star))
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.n > 2 and self.two_star != Fraction(2 * self.n, self.n - 2):
            raise ValueError(f"for n = {self.n} the Sobolev exponent is 2n/(n-2) exactly")
        if self.n == 2 and self.two_star <= 2:
            raise ValueError("for n = 2 pick a Sobolev exponent > 2")


def sobolev_context(
    n: int, two_star: Optional[Number] = None, *, alpha: Number = 2, gamma: Number = 1
) -> SobolevContext:
    """Build the context; for n = 2 defaults 2* = max(2a, 2(2g + a - 2)) + 4."""
    if n > 2:
        return SobolevContext(n, Fraction(2 * n, n - 2))
    if two_star is not None:
        ts = _as_number(two_star)
        a, g = _as_number(alpha), _as_number(gamma)
        if not a < ts:
            raise ValueError(f"n = 2 requires alpha < 2*: {a} vs {ts}")
        if not g < (ts - a + 2) / 2:
            raise ValueError(f"n = 2 requires gamma < (2* - alpha + 2)/2: {g} vs {(ts - a + 2) / 2}")
        return SobolevContext(n, ts)
    a, g = _as_number(alpha), _as_number(gamma)
    return SobolevContext(n, max(2 * a, 2 * (2 * g + a - 2)) + 4)


@dataclass(frozen=True)
class ExponentParams:
    """The exponent tuple (alpha, beta, gamma, delta) with its Sobolev context.

    ``theta`` records the coefficient-oscillation ratio q/p on the working
    ball for the exponential and variable-exponent recipes; it is None for
    the x-homogeneous classes.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    ctx: SobolevContext
    theta: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "theta"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_number(getattr(self, name)))
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        if self.gamma != 1 + self.delta:
            raise ValueError(f"gamma must equal 1 + delta, got gamma={self.gamma}, delta={self.delta}")

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def two_star(self) -> Fraction:
        return self.ctx.two_star

    def beta_upper_bound(self) -> Number:
        """Upper strict bound for beta; +inf when the denominator is <= 0."""
        denom = self.n * (self.alpha + 2 * self.gamma - 4)
        if denom <= 0:
            return math.inf
        return 2 * (self.alpha + 2 * self.gamma - 2) / denom

    def alpha_upper_bound(self) -> Number:
        return self.two_star - 2 * (self.gamma - 1)

    def alpha_ok(self) -> bool:
        return 2 <= self.alpha < self.alpha_upper_bound()

    def beta_ok(self) -> bool:
        return 1 <= self.beta < self.beta_upper_bound()

    def bounds_ok(self) -> bool:
        return self.alpha_ok() and self.beta_ok()

    def rows(self):
        yield "n", self.n
        yield "two_star", self.two_star
        yield "alpha", self.alpha
        yield "beta", self.beta
        yield "gamma", self.gamma
        yield "delta", self.delta
        if self.theta is not None:
            yield "theta", self.theta


@dataclass(frozen=True)
class ParamRejection:
    """A recipe declined the inputs; carries the violated bound."""

    op: str
    reason: str
    value: Optional[Number] = None
    bound: Optional[Number] = None

    def describe(self) -> str:
        extra = ""
        if self.value is not None and self.bound is not None:
            extra = f" ({float(self.value):.6g} vs bound {float(self.bound):.6g})"
        return f"{self.op}: {self.reason}{extra}"


def is_rejected(obj) -> bool:
    return isinstance(obj, ParamRejection)


# ---------------------------------------------------------------------------
# Parameter recipes
# ---------------------------------------------------------------------------


def default_params(
    n: int, alpha: Number, delta: Number = 0, two_star: Optional[Number] = None
) -> ExponentParams:
    """The generic recipe beta = alpha/2 + delta, gamma = 1 + delta.

    Admissible for 0 <= delta < 4/(n(n-2)) (vacuous at n = 2) and
    2 <= alpha < 2* - 2 delta.  Raises on inputs outside the region.
    """
    a, d = _as_number(alpha), _as_number(delta)
    if d < 0:
        raise ValueError(f"delta must be >= 0, got {d}")
    if n > 2:
        dmax = Fraction(4, n * (n - 2))
        if not d < dmax:
            raise ValueError(f"delta must satisfy delta < 4/(n(n-2)) = {dmax}, got {d}")
    g = 1 + d
    ctx = sobolev_context(n, two_star, alpha=a, gamma=g)
    if not 2 <= a < ctx.two_star - 2 * d:
        raise ValueError(
            f"alpha must satisfy 2 <= alpha < 2* - 2 delta = {ctx.two_star - 2 * d}, got {a}"
        )
    params = ExponentParams(alpha=a, beta=a / 2 + d, gamma=g, delta=d, ctx=ctx)
    # the delta range above does not by itself keep beta = alpha/2 + delta
    # under its strict bound; reject the leftover corner explicitly
    if not params.bounds_ok():
        raise ValueError(
            f"beta = alpha/2 + delta = {params.beta} violates its bound "
            f"{params.beta_upper_bound()}; shrink delta or alpha"
        )
    return params


def anisotropic_params(
    p: Number, q: Number, n: int, two_star: Optional[Number] = None
) -> Union[ExponentParams, ParamRejection]:
    """Anisotropic recipe alpha = 2q/p, beta = q/p, gamma = 1.

    Accepted exactly when q/p < 1 + 2/n.
    """
    p, q = _as_number(p), _as_number(q)
    if not 2 <= p <= q:
        raise ValueError(f"anisotropic recipe needs 2 <= p <= q, got p={p}, q={q}")
    ratio = q / p
    bound = 1 + Fraction(2, n)
    if not ratio < bound:
        return ParamRejection(
            "anisotropic_params", "q/p must satisfy q/p < 1 + 2/n", ratio, bound
        )
    alpha = 2 * ratio
    ctx = sobolev_context(n, two_star, alpha=alpha, gamma=1)
    return ExponentParams(alpha=alpha, beta=ratio, gamma=Fraction(1), delta=Fraction(0), ctx=ctx)


def double_phase_params(
    p: Number,
    q: Number,
    n: int,
    two_star: Optional[Number] = None,
    third_phase: bool = False,
) -> Union[ExponentParams, ParamRejection]:
    """Double/multi phase recipe: gamma = 1, alpha = 2(2q - p)/p.

    Accepted exactly when q/p < n/(n-2) for n > 2, and for every q/p at
    n = 2, where 2* is a free large number.  With the auxiliary third power
    present beta = 1 suffices; for the plain two-phase density beta = q/p
    covers the subsets where the modulating coefficient vanishes.  That beta
    breaks its own bound (``beta_ok()`` fails) once q/p >= 1 + 1/sqrt(2) at
    n = 2, and ``DoublePhase.auto_params`` rejects those params.
    """
    p, q = _as_number(p), _as_number(q)
    if not 2 <= p <= q:
        raise ValueError(f"double phase recipe needs 2 <= p <= q, got p={p}, q={q}")
    ratio = q / p
    if n > 2:
        bound = Fraction(n, n - 2)
        if not ratio < bound:
            return ParamRejection(
                "double_phase_params", "q/p must satisfy q/p < n/(n-2)", ratio, bound
            )
    alpha = 2 * (2 * q - p) / p
    beta = Fraction(1) if third_phase else max(Fraction(1), ratio)
    ctx = sobolev_context(n, two_star, alpha=alpha, gamma=1)
    return ExponentParams(alpha=alpha, beta=beta, gamma=Fraction(1), delta=Fraction(0), ctx=ctx)


def px_delta(p_min: Number, theta: Number, omega: Number) -> Fraction:
    """Minimal delta for the variable-exponent class:

        delta = ((theta - 1) p + 2 omega) / (2 (theta p - 1)),

    with p the minimum of the exponent field on the working ball.
    """
    p, th, om = map(_as_number, (p_min, theta, omega))
    if th <= 1 or om <= 0 or p < 2:
        raise ValueError("px_delta needs theta > 1, omega > 0, p_min >= 2")
    return ((th - 1) * p + 2 * om) / (2 * (th * p - 1))


def exponential_params(
    alpha: Number,
    theta: Number,
    delta: Number,
    n: int = 2,
    two_star: Optional[Number] = None,
) -> Union[ExponentParams, ParamRejection]:
    """Exponential-growth recipe with beta = alpha/2 + delta, gamma = 1 + delta.

    Requires alpha > 2, theta > 1 and delta > 0 strictly, and accepts iff

        2 theta delta <= alpha/2 - theta   and   beta > theta (2 delta + 1).
    """
    a, th, d = map(_as_number, (alpha, theta, delta))
    if not 2 < a:
        return ParamRejection("exponential_params", "alpha must be > 2 strictly", a, 2)
    if not 1 < th:
        return ParamRejection("exponential_params", "theta must be > 1 strictly", th, 1)
    if not 0 < d:
        return ParamRejection("exponential_params", "delta must be > 0 strictly", d, 0)
    if not 2 * th * d <= a / 2 - th:
        return ParamRejection(
            "exponential_params",
            "need 2 theta delta <= alpha/2 - theta",
            2 * th * d,
            a / 2 - th,
        )
    beta = a / 2 + d
    if not th * (2 * d + 1) < beta:
        return ParamRejection(
            "exponential_params", "need beta > theta (2 delta + 1)", beta, th * (2 * d + 1)
        )
    gamma = 1 + d
    if n > 2 and not d < Fraction(4, n * (n - 2)):
        return ParamRejection(
            "exponential_params", "delta must be < 4/(n(n-2))", d, Fraction(4, n * (n - 2))
        )
    ctx = sobolev_context(n, two_star, alpha=a, gamma=gamma)
    if not a < ctx.two_star - 2 * d:
        return ParamRejection(
            "exponential_params", "alpha must be < 2* - 2 delta", a, ctx.two_star - 2 * d
        )
    return ExponentParams(alpha=a, beta=beta, gamma=gamma, delta=d, ctx=ctx, theta=th)


def auto_px_params(
    p_min: Number,
    p_max: Number,
    n: int = 2,
    two_star: Optional[Number] = None,
) -> Union[ExponentParams, ParamRejection]:
    """Variable-exponent recipe from the exponent range on the working ball.

    theta = p_max/p_min; delta is the minimal admissible value at the margin
    ``OMEGA``; alpha is pushed just far enough above 2 theta to absorb the
    delta terms.
    """
    p, pq = _as_number(p_min), _as_number(p_max)
    if not 2 <= p <= pq:
        raise ValueError("need 2 <= p_min <= p_max")
    th = pq / p if pq > p else 1 + Fraction(1, 10**6)
    d = px_delta(p, th, OMEGA)
    if n > 2 and not d < Fraction(4, n * (n - 2)):
        return ParamRejection(
            "auto_px_params",
            "minimal delta exceeds 4/(n(n-2)); shrink the ball",
            d,
            Fraction(4, n * (n - 2)),
        )
    # alpha covering both power-scale conditions with a small margin
    a = 2 * th + 4 * d * (th * p - 1) / p + Fraction(1, 10)
    gamma = 1 + d
    ctx = sobolev_context(n, two_star, alpha=a, gamma=gamma)
    if not a < ctx.two_star - 2 * d:
        return ParamRejection("auto_px_params", "alpha exceeds 2* - 2 delta", a, ctx.two_star - 2 * d)
    params = ExponentParams(alpha=a, beta=a / 2 + d, gamma=gamma, delta=d, ctx=ctx, theta=th)
    if not params.bounds_ok():
        return ParamRejection(
            "auto_px_params",
            "exponent oscillation too steep for the admissible region; shrink the ball",
            params.beta,
            params.beta_upper_bound(),
        )
    return params


def auto_exponential_params(
    a_min: Number, a_max: Number, n: int = 2, two_star: Optional[Number] = None
) -> Union[ExponentParams, ParamRejection]:
    """Exponential recipe from the coefficient range on the working ball.

    alpha and delta are chosen jointly so that, besides the acceptance
    conditions of :func:`exponential_params`, the mixed-derivative scale
    margin theta (1/2 - delta) <= 1/2 holds with slack; that keeps the
    whole condition suite for the recipe's own triple decidable.
    """
    p, q = _as_number(a_min), _as_number(a_max)
    if p <= 0:
        raise ValueError("exponential coefficient must be strictly positive on the ball")
    th = q / p if q > p else 1 + Fraction(1, 10**6)
    # delta must cover (theta-1)/(2 theta) from the mixed-derivative side and
    # stay below (alpha/2 - theta)/(2 theta) from the scale side
    alpha = max(2 * th + 1, 4 * th - 2 + Fraction(1, 2))
    delta = (alpha / 2 - 1) / (4 * th)
    params = exponential_params(alpha, th, delta, n=n, two_star=two_star)
    if is_rejected(params):
        return params
    if not params.bounds_ok():
        return ParamRejection(
            "auto_exponential_params",
            "coefficient oscillation too steep for the admissible exponent region; "
            "shrink the working ball",
            params.beta,
            params.beta_upper_bound(),
        )
    return params


# ---------------------------------------------------------------------------
# Iteration exponents
# ---------------------------------------------------------------------------


def lambda_sequence(params: ExponentParams, K: int):
    """lambda_1 ... lambda_K from the recursion

        lambda_1 = 0,  lambda_{k+1} = (2*/2) lambda_k + (2* - alpha + 2)/2 - gamma,

    cross-checked against the closed form
    (2* - alpha - 2(gamma-1))/(2* - 2) * ((2*/2)^(k-1) - 1) and the shift
    relation 2*(lambda_k + 1) - alpha + 2 = 2(lambda_{k+1} + gamma).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    ts, a, g = params.two_star, params.alpha, params.gamma
    lam = [Fraction(0)]
    for _ in range(K - 1):
        lam.append((ts * lam[-1]) / 2 + (ts - a + 2) / 2 - g)
    front = (ts - a - 2 * (g - 1)) / (ts - 2)
    for k, lk in enumerate(lam, start=1):
        if front * ((ts / 2) ** (k - 1) - 1) != lk:
            raise ArithmeticError(f"closed form mismatch at k={k}")
    for k in range(K - 1):
        if ts * (lam[k] + 1) - a + 2 != 2 * (lam[k + 1] + g):
            raise ArithmeticError(f"shift relation fails at k={k + 1}")
    return tuple(lam)


@dataclass(frozen=True)
class MoserSchedule:
    """Everything the estimate validator needs: (nu, mu), lambdas, thetas."""

    params: ExponentParams
    nu: Fraction
    mu: Fraction  # MU_UNBOUNDED encodes the beta = 1 limit mu -> infinity
    lambdas: tuple
    theta0: Fraction
    theta1: Fraction
    theta2: Fraction
    theta3: Fraction
    theta4: Fraction

    def rows(self):
        yield from self.params.rows()
        yield "nu", self.nu
        yield "mu", "unbounded" if self.mu == MU_UNBOUNDED else self.mu
        for k, lam in enumerate(self.lambdas, start=1):
            yield f"lambda_{k}", lam
        for name in ("theta0", "theta1", "theta2", "theta3", "theta4"):
            yield name, getattr(self, name)


def nu_upper_bound(params: ExponentParams) -> Fraction:
    return params.two_star / (params.alpha - 2 + 2 * params.gamma)


def moser_exponents(params: ExponentParams, nu: Number, mu: Number, K: int = DEFAULT_K) -> MoserSchedule:
    """theta_0 ... theta_4 for a chosen pair (nu, mu).

    theta0 = 2 * 2s * mu / ((2 mu - 2s) nu)   (2s = Sobolev exponent)
    theta3 = 2s (mu - 1) / ((2 mu - 2s) nu)
    theta1 = theta3 * (2s - 2) / (2s - alpha - 2(gamma - 1))
    theta2 = theta0 * (2s - 2) / (2s - alpha - 2(gamma - 1))
    theta4 = 2 + theta0

    mu = MU_UNBOUNDED takes the mu -> infinity limits.
    """
    ts, a, g, b = params.two_star, params.alpha, params.gamma, params.beta
    nu = _as_number(nu)
    if not 1 <= nu < nu_upper_bound(params):
        raise ValueError(
            f"nu must lie in [1, 2*/(alpha - 2 + 2 gamma)) = [1, {nu_upper_bound(params)}), got {nu}"
        )
    shrink = (ts - 2) / (ts - a - 2 * (g - 1))  # positive: the nu interval is not empty
    if mu == MU_UNBOUNDED:
        theta0 = ts / nu
        theta3 = ts / (2 * nu)
    else:
        mu = _as_number(mu)
        if not ts / 2 < mu:
            raise ValueError(f"mu must exceed 2*/2 = {ts / 2}, got {mu}")
        implied = (mu - 1) / (mu - nu)
        if abs(float(implied) - float(b)) > 1e-9 * max(1.0, abs(float(b))):
            raise ValueError(
                f"(mu - 1)/(mu - nu) = {float(implied):.12g} does not reproduce beta = {float(b):.12g}"
            )
        theta0 = 2 * ts * mu / ((2 * mu - ts) * nu)
        theta3 = ts * (mu - 1) / ((2 * mu - ts) * nu)
    theta1 = theta3 * shrink
    theta2 = theta0 * shrink
    theta4 = 2 + theta0
    sched = MoserSchedule(
        params=params,
        nu=nu,
        mu=mu,
        lambdas=lambda_sequence(params, K),
        theta0=theta0,
        theta1=theta1,
        theta2=theta2,
        theta3=theta3,
        theta4=theta4,
    )
    if not (1 < sched.theta1 and 1 < sched.theta3):
        raise ArithmeticError(
            f"theta1, theta3 must exceed 1; got {float(sched.theta1)}, {float(sched.theta3)}"
        )
    return sched


def select_mu_nu(
    params: ExponentParams, nu: Optional[Number] = None
) -> Union[tuple, ParamRejection]:
    """Pick (nu, mu) consistent with beta = (mu - 1)/(mu - nu), mu > 2*/2.

    beta = 1 gives the unbounded-mu sentinel (nu defaults to 1).  For
    beta > 1 the default nu is the midpoint of [1, 2*/(alpha - 2 + 2 gamma));
    when solving for mu lands at or below 2*/2 it is the midpoint of the
    feasible part, where mu > 2*/2 exactly.  If no nu admits a valid mu the
    rejection reports the attainable beta interval.
    A rejection passed in as ``params`` is returned unchanged.
    """
    if is_rejected(params):
        return params
    b = params.beta
    ts = params.two_star
    vsup = nu_upper_bound(params)
    if not 1 < vsup:
        return ParamRejection(
            "select_mu_nu", "nu interval [1, 2*/(alpha-2+2gamma)) is empty", 1, vsup
        )
    if b == 1:
        chosen = _as_number(nu) if nu is not None else Fraction(1)
        if not 1 <= chosen < vsup:
            return ParamRejection("select_mu_nu", "nu outside its interval", chosen, vsup)
        return chosen, MU_UNBOUNDED
    if not 1 < b:
        return ParamRejection("select_mu_nu", "beta must be >= 1", b, 1)

    half = ts / 2

    def mu_of(v):
        return (b * v - 1) / (b - 1)

    if nu is not None:
        v = _as_number(nu)
        if not 1 <= v < vsup:
            return ParamRejection("select_mu_nu", "nu outside its interval", v, vsup)
        m = mu_of(v)
        if half < m:
            return v, m
        return ParamRejection(
            "select_mu_nu", f"mu = {float(m):.6g} not above 2*/2 for the given nu", m, half
        )

    # attainability: mu > 2*/2 needs nu > 1/beta + (1 - 1/beta) 2*/2
    nu_min = 1 / b + (1 - 1 / b) * half
    if not nu_min < vsup:
        beta_max = (half - 1) / (half - vsup) if vsup < half else math.inf
        return ParamRejection(
            "select_mu_nu",
            f"beta outside the attainable interval [1, {float(beta_max):.6g})",
            b,
            beta_max,
        )
    v = (1 + vsup) / 2
    m = mu_of(v)
    if half < m:
        return v, m
    # the midpoint of the full interval undershoots: take the midpoint of the
    # feasible subinterval (keeps mu comfortably above the 2*/2 pole)
    v = (nu_min + vsup) / 2
    return v, mu_of(v)
