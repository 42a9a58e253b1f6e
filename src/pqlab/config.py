"""Sectioned key-value problem configurations.

Format::

    # comment; every key belongs to a section

    [family]
    kind = double_phase
    p = 2
    q = 3
    a = x^2 + y^2
    a_lipschitz = 3.0

    [grid]
    side = 1.0
    n = 65

    [boundary]
    expr = x^2 - y^2

    [ball]
    center = 0.5, 0.5
    rho = 0.2
    R = 0.35

    [schedule]             # mode, n, two_star, alpha, delta, nu, mu and K;
    mode = auto            # explicit mode also beta, gamma and theta
    n = 2

    [sweep]                # amplitudes or pairs, not both
    amplitudes = 0.5, 1, 2, 4, 8
    # or: pairs = (0.05, 0.45), (0.25, 0.45), (0.33, 0.45), (0.41, 0.45)

    [solver]               # tolerance and max_iter only
    tolerance = 1e-8
    max_iter = 20000

Arithmetic expressions are allowed only in coefficient and boundary fields
(variables x, y; operators + - * / ^; functions exp, log, min, max).
Parse errors carry the config line (and column, for expressions).  A section
other than these seven, and a key that its section does not read, is a config
error; [family] reads ``kind`` and the keys of that kind, a coefficient key
``c`` with its ``c_lipschitz``.  An anisotropic [family] takes ``q`` and
either ``base_p`` (the base |xi|^p) or ``a11``, ``a12`` and ``a22`` (the
base sum a_ij xi_i xi_j), not keys of both forms.  A value that a family,
the grid or the solver options reject is an error at its key's line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .expressions import parse_expression
from .exponents import (
    DEFAULT_K,
    ExponentParams,
    MU_UNBOUNDED,
    MoserSchedule,
    ParamRejection,
    is_rejected,
    moser_exponents,
    select_mu_nu,
    sobolev_context,
)
from .integrand import (
    Anisotropic,
    Ball,
    Coefficient,
    DoublePhase,
    Exponential,
    IntegrandFamily,
    LogPxLaplacian,
    MultiPhase,
    PLaplacian,
    PxLaplacian,
    VeryDegenerate,
)
from .solver import Grid, SolveOptions


class ConfigError(ValueError):
    """Anchored parse/validation error: path, 1-based line, optional column."""

    def __init__(self, message: str, path: str = "<config>", line: int = 0, column: Optional[int] = None):
        anchor = f"{path}:{line}" + (f":{column}" if column is not None else "")
        super().__init__(f"{anchor}: {message}")
        self.path = path
        self.line = line
        self.column = column
        self.reason = message


@dataclass
class _Entry:
    value: str
    line: int


def _number(text: str):
    """Fraction when the text is exact (int, ratio, or decimal), else float."""
    try:
        return Fraction(text) if "/" in text or "e" not in text.lower() else float(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _pairs(text: str) -> list:
    chunks = [c for c in text.replace("(", " ").split(")") if c.strip()]
    return [(a, b) for a, b in map(_floats, chunks)]


def _numbers(value) -> list:
    """The numbers of a parsed value: itself, or those of its list or pairs."""
    return [v for item in value for v in _numbers(item)] if isinstance(value, (list, tuple)) else [value]


# The value kinds of ProblemConfig.get: a parser, the message for a text it
# rejects with a ValueError, and whether the numbers it returns must be finite
# (``1e400`` is inf).  An expression's error also carries its column.
_KINDS = {
    "str": (str, None, False),
    "int": (int, "{key} = {text!r} is not an integer", False),
    "float": (float, "{key} = {text!r} is not a number", True),
    "number": (_number, "{key} = {text!r} is not a number", True),
    "floats": (_floats, "{key} = {text!r} is not a number list", True),
    "pairs": (_pairs, "{key} must be a list of (rho, R) pairs, got {text!r}", True),
    "expr": (parse_expression, "bad expression for {key}: {exc.reason}", False),
}


@dataclass
class ProblemConfig:
    """Parsed config: sections of key -> (value, line), and the line of each
    section's first header, where an error about a missing key points."""

    path: str
    sections: dict
    headers: dict

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def require_section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"missing [{name}] section", self.path, 0)
        return self.sections[name]

    def get(self, sect: str, key: str, kind: str = "str", default=None, required=False):
        """[sect] ``key`` parsed as ``kind`` (a key of ``_KINDS``); ``default``
        when the key is absent, a ConfigError when it is also ``required``."""
        entry = self.section(sect).get(key)
        if entry is None:
            if required:
                raise ConfigError(f"[{sect}] is missing the key {key!r}", self.path, self.headers.get(sect, 0))
            return default
        parse, message, finite = _KINDS[kind]
        try:
            value = parse(entry.value)
        except ValueError as exc:
            reason = message.format(key=key, text=entry.value, exc=exc)
            raise ConfigError(reason, self.path, entry.line, getattr(exc, "column", None)) from None
        if finite and not all(isinstance(v, Fraction) or math.isfinite(v) for v in _numbers(value)):
            raise ConfigError(f"{key} = {entry.value!r} must be finite", self.path, entry.line)
        return value

    def read(self, sect: str, **schema) -> list:
        """The values of the schema's keys in its order, once ``_known_keys``
        has checked [sect] against them.  A schema entry is a kind, for a
        required key, or a ``(kind, default)`` pair."""
        _known_keys(self, sect, tuple(schema))
        return [
            self.get(sect, key, spec, required=True) if isinstance(spec, str) else self.get(sect, key, *spec)
            for key, spec in schema.items()
        ]


def parse_config(text: str, path: str = "<config>") -> ProblemConfig:
    sections: dict = {}
    headers: dict = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {raw.strip()!r}", path, lineno)
            current = line[1:-1].strip()
            if current not in ("family", "grid", "boundary", "ball", "schedule", "sweep", "solver"):
                raise ConfigError(f"unknown section [{current}]", path, lineno)
            sections.setdefault(current, {})
            headers.setdefault(current, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path, lineno)
        if current is None:
            raise ConfigError(f"key {key!r} comes before the first section", path, lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", path, lineno)
        sections[current][key] = _Entry(value=value, line=lineno)
    return ProblemConfig(path=path, sections=sections, headers=headers)


def load_config(path) -> ProblemConfig:
    with open(path) as fh:
        return parse_config(fh.read(), path=str(path))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_family(cfg: ProblemConfig) -> IntegrandFamily:
    """The [family] of its ``kind``, each kind's keys named once in its read
    schema; an anisotropic section is either ``base_p`` or the matrix form.
    A value the family's constructor rejects is a ConfigError at its key
    (:func:`_checked`)."""
    cfg.require_section("family")
    return _checked(cfg, "family", lambda: _family(cfg, cfg.get("family", "kind", required=True)))


def _family(cfg: ProblemConfig, kind: str) -> IntegrandFamily:
    lip = ("float", 0.0)
    if kind in ("p_laplacian", "very_degenerate"):
        _, p = cfg.read("family", kind="str", p="float")
        return (PLaplacian if kind == "p_laplacian" else VeryDegenerate)(p)
    if kind == "exponential":
        _, a, a_lip = cfg.read("family", kind="str", a="expr", a_lipschitz=lip)
        return Exponential(Coefficient(a, a_lip, a.source))
    if kind in ("px_laplacian", "log_px_laplacian"):
        _, p, p_lip = cfg.read("family", kind="str", p_expr="expr", p_expr_lipschitz=lip)
        return (PxLaplacian if kind == "px_laplacian" else LogPxLaplacian)(Coefficient(p, p_lip, p.source))
    if kind == "double_phase":
        _, p, q, a, a_lip = cfg.read("family", kind="str", p="float", q="float", a="expr", a_lipschitz=lip)
        return DoublePhase(p, q, Coefficient(a, a_lip, a.source))
    if kind == "multi_phase":
        _, p, q, a, a_lip, b = cfg.read(
            "family", kind="str", p="float", q="float", a="expr", a_lipschitz=lip, b="float"
        )
        return MultiPhase(p, q, Coefficient(a, a_lip, a.source), b)
    if kind == "anisotropic" and "base_p" in cfg.section("family"):
        _, q, base_p = cfg.read("family", kind="str", q="float", base_p="float")
        return Anisotropic(q, base_p=base_p)
    if kind == "anisotropic":
        _, q, *aij = cfg.read(
            "family", kind="str", q="float", a11="expr", a11_lipschitz=lip,
            a12="expr", a12_lipschitz=lip, a22="expr", a22_lipschitz=lip,
        )
        return Anisotropic(q, aij=tuple(Coefficient(a, L, a.source) for a, L in zip(aij[::2], aij[1::2])))
    raise ConfigError(f"unknown family kind {kind!r}", cfg.path, cfg.section("family")["kind"].line)


def build_boundary(cfg: ProblemConfig):
    (expr,) = cfg.read("boundary", expr="expr")
    return expr


def _checked(cfg: ProblemConfig, sect: str, make):
    """make(), whose ValueError names the rejected field first: that is the
    [sect] key, so the error is raised again as a ConfigError at its line.
    A ConfigError from make's own reads passes through."""
    try:
        return make()
    except ConfigError:
        raise
    except ValueError as exc:
        entry = cfg.section(sect).get(str(exc).split()[0])
        raise ConfigError(str(exc), cfg.path, entry.line if entry else 0) from None


def build_grid_spec(cfg: ProblemConfig):
    side, n, x0, y0 = cfg.read("grid", side="float", n="int", x0=("float", 0.0), y0=("float", 0.0))
    _checked(cfg, "grid", lambda: Grid(side, n, None, x0, y0))  # Grid's own rules
    return side, n, x0, y0


def build_ball(cfg: ProblemConfig):
    sect = cfg.require_section("ball")
    center, rho, R = cfg.read("ball", center="floats", rho="float", R="float")
    if len(center) != 2:
        raise ConfigError("ball center must be two numbers", cfg.path, sect["center"].line)
    if not 0 < rho < R:
        raise ConfigError(f"need 0 < rho < R, got rho={rho}, R={R}", cfg.path, sect["rho"].line)
    return (center[0], center[1]), rho, R


def _known_keys(cfg: ProblemConfig, sect: str, keys: tuple):
    """A ConfigError at the first key of [sect] that is not one of ``keys``."""
    for key, entry in cfg.section(sect).items():
        if key not in keys:
            names = " and ".join(filter(None, [", ".join(keys[:-1]), keys[-1]]))
            raise ConfigError(f"[{sect}] takes {names} only, not {key!r}", cfg.path, entry.line)


def build_sweep(cfg: ProblemConfig):
    """The [sweep] ``(amplitudes, pairs)``: one of them, the other None."""
    amplitudes, pairs = cfg.read("sweep", amplitudes=("floats", None), pairs=("pairs", None))
    if amplitudes is not None and pairs is not None:
        line = max(entry.line for entry in cfg.section("sweep").values())
        raise ConfigError("[sweep] takes amplitudes or pairs, not both", cfg.path, line)
    if amplitudes is None and pairs is None:
        raise ConfigError("[sweep] must define either amplitudes or pairs", cfg.path, cfg.headers.get("sweep", 0))
    return amplitudes, pairs


def build_solver_options(cfg: ProblemConfig, tolerance_override: Optional[float] = None) -> SolveOptions:
    tol, max_iter = cfg.read(
        "solver", tolerance=("float", SolveOptions.tolerance), max_iter=("int", SolveOptions.max_iter)
    )
    if tolerance_override is not None:
        tol = tolerance_override
    return _checked(cfg, "solver", lambda: SolveOptions(max_iter=max_iter, tolerance=tol))


def resolve_params(cfg: ProblemConfig, family: IntegrandFamily, ball: Ball):
    """ExponentParams from the [schedule] section: 'auto' asks the family for
    its recipe (``auto_params``), 'explicit' gives (alpha, beta, gamma, delta).
    Values a recipe or the exponent region declines give a ParamRejection."""
    mode = cfg.get("schedule", "mode", default="auto")
    explicit = ("beta", "gamma", "theta") if mode == "explicit" else ()
    _known_keys(cfg, "schedule", ("mode", "n", "two_star", "alpha", *explicit, "delta", "nu", "mu", "K"))

    def number(key, default=None, required=False):
        return cfg.get("schedule", key, "number", default, required)

    try:
        n = cfg.get("schedule", "n", "int", 2)
        ts = number("two_star")
        if mode == "explicit":
            alpha = number("alpha", required=True)
            gamma = number("gamma")
            delta = number("delta")
            if gamma is None and delta is None:
                gamma, delta = Fraction(1), Fraction(0)
            elif gamma is None:
                gamma = 1 + delta
            elif delta is None:
                delta = gamma - 1
            beta = number("beta", required=True)
            ctx = sobolev_context(n, ts, alpha=alpha, gamma=gamma)
            return ExponentParams(alpha, beta, gamma, delta, ctx, theta=number("theta"))
        if mode != "auto":
            line = cfg.section("schedule")["mode"].line
            raise ConfigError(f"schedule mode must be auto or explicit, got {mode!r}", cfg.path, line)
        return family.auto_params(ball, n, ts, alpha=number("alpha", Fraction(2)), delta=number("delta", Fraction(0)))
    except ConfigError:
        raise
    except ValueError as exc:
        return ParamRejection("resolve_params", str(exc))


@dataclass
class ResolvedSchedule:
    """Either a full schedule or params whose iteration machinery degenerates;
    ``K`` is the [schedule] number of lambda_k."""

    params: ExponentParams
    schedule: Optional[MoserSchedule]
    K: int
    degenerate_reason: Optional[str] = None


def resolve_schedule(cfg: ProblemConfig, family: IntegrandFamily, ball: Ball):
    """MoserSchedule (or ParamRejection / degenerate ResolvedSchedule)."""
    params = resolve_params(cfg, family, ball)
    if is_rejected(params):
        return params
    K = cfg.get("schedule", "K", "int", DEFAULT_K)
    if K < 1:  # lambda_sequence's rule, ahead of the degenerate-schedule outcomes
        raise ConfigError(f"K must be >= 1, got {K}", cfg.path, cfg.section("schedule")["K"].line)
    nu_cfg = cfg.get("schedule", "nu", "number")
    mu_txt = cfg.get("schedule", "mu")
    if mu_txt is not None and mu_txt.lower() in ("unbounded", "inf", "infinity"):
        pair = (nu_cfg if nu_cfg is not None else Fraction(1), MU_UNBOUNDED)
    elif mu_txt is not None:
        pair = (nu_cfg if nu_cfg is not None else Fraction(1), cfg.get("schedule", "mu", "number"))
    else:
        pair = select_mu_nu(params, nu=nu_cfg)
    if is_rejected(pair):
        return ResolvedSchedule(params=params, schedule=None, K=K, degenerate_reason=pair.describe())
    nu, mu = pair
    try:
        sched = moser_exponents(params, nu, mu, K=K)
    except (ValueError, ArithmeticError) as exc:
        return ResolvedSchedule(params=params, schedule=None, K=K, degenerate_reason=str(exc))
    return ResolvedSchedule(params=params, schedule=sched, K=K)
