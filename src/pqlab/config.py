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

    [sweep]
    amplitudes = 0.5, 1, 2, 4, 8
    # or: pairs = (0.05, 0.45), (0.25, 0.45), (0.33, 0.45), (0.41, 0.45)

    [solver]               # tolerance and max_iter only
    tolerance = 1e-8
    max_iter = 20000

Arithmetic expressions are allowed only in coefficient and boundary fields
(variables x, y; operators + - * / ^; functions exp, log, min, max).
Parse errors carry the config line (and column, for expressions).  A key
that its section does not read is a config error, in every section; [family]
reads ``kind`` and the keys of that kind, a coefficient key ``c`` with its
``c_lipschitz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .expressions import Expression, ExpressionError, parse_expression
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


@dataclass
class ProblemConfig:
    """Parsed config: sections of key -> (value, line)."""

    path: str
    sections: dict

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def require_section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"missing [{name}] section", self.path, 0)
        return self.sections[name]

    # --- typed getters ------------------------------------------------------

    def _entry(self, sect: str, key: str, default=None, required=False) -> Optional[_Entry]:
        entry = self.section(sect).get(key)
        if entry is None:
            if required:
                raise ConfigError(f"[{sect}] is missing the key {key!r}", self.path, 0)
            return default
        return entry

    def get_str(self, sect, key, default=None, required=False):
        e = self._entry(sect, key, None, required)
        return default if e is None else e.value

    def _require_finite(self, key, e: _Entry, values):
        """A ConfigError at the line of entry ``e`` when one of the numbers
        read from it is inf or nan (``1e400`` included)."""
        if not all(isinstance(v, Fraction) or math.isfinite(v) for v in values):
            raise ConfigError(f"{key} = {e.value!r} must be finite", self.path, e.line)

    def get_float(self, sect, key, default=None, required=False):
        e = self._entry(sect, key, None, required)
        if e is None:
            return default
        try:
            value = float(e.value)
        except ValueError:
            raise ConfigError(f"{key} = {e.value!r} is not a number", self.path, e.line) from None
        self._require_finite(key, e, [value])
        return value

    def get_number(self, sect, key, default=None, required=False):
        """Fraction when the text is exact (int, ratio, or decimal), else float."""
        e = self._entry(sect, key, None, required)
        if e is None:
            return default
        txt = e.value
        try:
            value = Fraction(txt) if "/" in txt or "e" not in txt.lower() else float(txt)
        except (ValueError, ZeroDivisionError):
            try:
                value = float(txt)
            except ValueError:
                raise ConfigError(f"{key} = {txt!r} is not a number", self.path, e.line) from None
        self._require_finite(key, e, [value])
        return value

    def get_int(self, sect, key, default=None, required=False):
        e = self._entry(sect, key, None, required)
        if e is None:
            return default
        try:
            return int(e.value)
        except ValueError:
            raise ConfigError(f"{key} = {e.value!r} is not an integer", self.path, e.line) from None

    def get_expression(self, sect, key, required=False) -> Optional[Expression]:
        e = self._entry(sect, key, None, required)
        if e is None:
            return None
        try:
            return parse_expression(e.value)
        except ExpressionError as exc:
            raise ConfigError(
                f"bad expression for {key}: {exc.reason}", self.path, e.line, exc.column
            ) from None

    def get_float_list(self, sect, key, required=False):
        e = self._entry(sect, key, None, required)
        if e is None:
            return None
        try:
            values = [float(tok) for tok in e.value.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"{key} = {e.value!r} is not a number list", self.path, e.line) from None
        self._require_finite(key, e, values)
        return values

    def get_pair_list(self, sect, key):
        e = self._entry(sect, key)
        if e is None:
            return None
        txt = e.value
        pairs = []
        try:
            chunks = [c.strip() for c in txt.replace("(", " ").split(")") if c.strip()]
            for c in chunks:
                a, b = [float(tok) for tok in c.replace(",", " ").split()]
                pairs.append((a, b))
        except ValueError:
            raise ConfigError(
                f"{key} must be a list of (rho, R) pairs, got {txt!r}", self.path, e.line
            ) from None
        self._require_finite(key, e, [v for pair in pairs for v in pair])
        return pairs


def parse_config(text: str, path: str = "<config>") -> ProblemConfig:
    sections: dict = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError(f"malformed section header {raw.strip()!r}", path, lineno)
            current = line[1:-1].strip()
            sections.setdefault(current, {})
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
    return ProblemConfig(path=path, sections=sections)


def load_config(path) -> ProblemConfig:
    with open(path) as fh:
        return parse_config(fh.read(), path=str(path))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _coefficient(cfg: ProblemConfig, sect: str, key: str, required=True) -> Optional[Coefficient]:
    expr = cfg.get_expression(sect, key, required=required)
    if expr is None:
        return None
    lip = cfg.get_float(sect, f"{key}_lipschitz", default=0.0)
    return Coefficient(expr, lipschitz=lip, source=expr.source)


# The [family] keys each kind reads besides ``kind``.
_FAMILY_KEYS = {
    "p_laplacian": ("p",),
    "very_degenerate": ("p",),
    "exponential": ("a", "a_lipschitz", "tau"),
    "px_laplacian": ("p_expr", "p_expr_lipschitz"),
    "log_px_laplacian": ("p_expr", "p_expr_lipschitz"),
    "double_phase": ("p", "q", "a", "a_lipschitz"),
    "multi_phase": ("p", "q", "a", "a_lipschitz", "b"),
    "anisotropic": ("q", "base_p", "a11", "a11_lipschitz", "a12", "a12_lipschitz", "a22", "a22_lipschitz"),
}


def build_family(cfg: ProblemConfig) -> IntegrandFamily:
    sect = cfg.require_section("family")
    kind = cfg.get_str("family", "kind", required=True)
    line = sect["kind"].line
    if kind not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family kind {kind!r}", cfg.path, line)
    _known_keys(cfg, "family", ("kind", *_FAMILY_KEYS[kind]))
    try:
        if kind == "p_laplacian":
            return PLaplacian(cfg.get_float("family", "p", required=True))
        if kind == "very_degenerate":
            return VeryDegenerate(cfg.get_float("family", "p", required=True))
        if kind == "exponential":
            return Exponential(
                _coefficient(cfg, "family", "a"), cfg.get_float("family", "tau", default=2.0)
            )
        if kind == "px_laplacian":
            return PxLaplacian(_coefficient(cfg, "family", "p_expr"))
        if kind == "log_px_laplacian":
            return LogPxLaplacian(_coefficient(cfg, "family", "p_expr"))
        if kind == "double_phase":
            return DoublePhase(
                cfg.get_float("family", "p", required=True),
                cfg.get_float("family", "q", required=True),
                _coefficient(cfg, "family", "a"),
            )
        if kind == "multi_phase":
            return MultiPhase(
                cfg.get_float("family", "p", required=True),
                cfg.get_float("family", "q", required=True),
                _coefficient(cfg, "family", "a"),
                cfg.get_float("family", "b", required=True),
            )
        if kind == "anisotropic":
            q = cfg.get_float("family", "q", required=True)
            if cfg.get_str("family", "base_p") is not None:
                return Anisotropic(q, base_p=cfg.get_float("family", "base_p"))
            aij = (
                _coefficient(cfg, "family", "a11"),
                _coefficient(cfg, "family", "a12"),
                _coefficient(cfg, "family", "a22"),
            )
            return Anisotropic(q, aij=aij)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid family parameters: {exc}", cfg.path, line) from None


def build_boundary(cfg: ProblemConfig):
    _known_keys(cfg, "boundary", ("expr",))
    expr = cfg.get_expression("boundary", "expr", required=True)
    return lambda x, y: expr(x, y)


def _checked(cfg: ProblemConfig, sect: str, make):
    """make(), whose ValueError names the rejected field first: that is the
    [sect] key, so the error is raised again as a ConfigError at its line."""
    try:
        return make()
    except ValueError as exc:
        entry = cfg.section(sect).get(str(exc).split()[0])
        raise ConfigError(str(exc), cfg.path, entry.line if entry else 0) from None


def build_grid_spec(cfg: ProblemConfig):
    _known_keys(cfg, "grid", ("side", "n", "x0", "y0"))
    side = cfg.get_float("grid", "side", required=True)
    n = cfg.get_int("grid", "n", required=True)
    x0 = cfg.get_float("grid", "x0", default=0.0)
    y0 = cfg.get_float("grid", "y0", default=0.0)
    _checked(cfg, "grid", lambda: Grid(side, n, None, x0, y0))  # Grid's own rules
    return side, n, x0, y0


def build_ball(cfg: ProblemConfig):
    sect = cfg.require_section("ball")
    _known_keys(cfg, "ball", ("center", "rho", "R"))
    center = cfg.get_float_list("ball", "center", required=True)
    if len(center) != 2:
        raise ConfigError("ball center must be two numbers", cfg.path, sect["center"].line)
    rho = cfg.get_float("ball", "rho", required=True)
    R = cfg.get_float("ball", "R", required=True)
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
    """The [sweep] ``(amplitudes, pairs)``; either is None when not given."""
    _known_keys(cfg, "sweep", ("amplitudes", "pairs"))
    return cfg.get_float_list("sweep", "amplitudes"), cfg.get_pair_list("sweep", "pairs")


def build_solver_options(cfg: ProblemConfig, tolerance_override: Optional[float] = None) -> SolveOptions:
    _known_keys(cfg, "solver", ("tolerance", "max_iter"))
    tol = cfg.get_float("solver", "tolerance", default=SolveOptions.tolerance)
    if tolerance_override is not None:
        tol = tolerance_override
    max_iter = cfg.get_int("solver", "max_iter", default=SolveOptions.max_iter)
    return _checked(cfg, "solver", lambda: SolveOptions(max_iter=max_iter, tolerance=tol))


def resolve_params(cfg: ProblemConfig, family: IntegrandFamily, ball: Ball):
    """ExponentParams from the [schedule] section: 'auto' asks the family for
    its recipe (``auto_params``), 'explicit' gives (alpha, beta, gamma, delta).
    Values a recipe or the exponent region declines give a ParamRejection."""
    mode = cfg.get_str("schedule", "mode", default="auto")
    explicit = ("beta", "gamma", "theta") if mode == "explicit" else ()
    _known_keys(cfg, "schedule", ("mode", "n", "two_star", "alpha", *explicit, "delta", "nu", "mu", "K"))
    try:
        n = cfg.get_int("schedule", "n", default=2)
        ts = cfg.get_number("schedule", "two_star", default=None)
        if mode == "explicit":
            alpha = cfg.get_number("schedule", "alpha", required=True)
            gamma = cfg.get_number("schedule", "gamma", default=None)
            delta = cfg.get_number("schedule", "delta", default=None)
            if gamma is None and delta is None:
                gamma, delta = Fraction(1), Fraction(0)
            elif gamma is None:
                gamma = 1 + delta
            elif delta is None:
                delta = gamma - 1
            beta = cfg.get_number("schedule", "beta", required=True)
            ctx = sobolev_context(n, ts, alpha=alpha, gamma=gamma)
            theta = cfg.get_number("schedule", "theta", default=None)
            return ExponentParams(alpha, beta, gamma, delta, ctx, theta=theta)
        if mode != "auto":
            raise ConfigError(f"schedule mode must be auto or explicit, got {mode!r}", cfg.path, 0)
        return family.auto_params(
            ball,
            n,
            ts,
            alpha=cfg.get_number("schedule", "alpha", default=Fraction(2)),
            delta=cfg.get_number("schedule", "delta", default=Fraction(0)),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        return ParamRejection("resolve_params", str(exc))


@dataclass
class ResolvedSchedule:
    """Either a full schedule or params whose iteration machinery degenerates."""

    params: ExponentParams
    schedule: Optional[MoserSchedule]
    degenerate_reason: Optional[str] = None


def resolve_schedule(cfg: ProblemConfig, family: IntegrandFamily, ball: Ball):
    """MoserSchedule (or ParamRejection / degenerate ResolvedSchedule)."""
    params = resolve_params(cfg, family, ball)
    if is_rejected(params):
        return params
    K = cfg.get_int("schedule", "K", default=DEFAULT_K)
    if K < 1:  # lambda_sequence's rule, ahead of the degenerate-schedule outcomes
        raise ConfigError(f"K must be >= 1, got {K}", cfg.path, cfg.section("schedule")["K"].line)
    nu_cfg = cfg.get_number("schedule", "nu", default=None)
    mu_txt = cfg.get_str("schedule", "mu", default=None)
    if mu_txt is not None and mu_txt.lower() in ("unbounded", "inf", "infinity"):
        pair = (nu_cfg if nu_cfg is not None else Fraction(1), MU_UNBOUNDED)
    elif mu_txt is not None:
        pair = (nu_cfg if nu_cfg is not None else Fraction(1), cfg.get_number("schedule", "mu"))
    else:
        pair = select_mu_nu(params, nu=nu_cfg)
    if is_rejected(pair):
        return ResolvedSchedule(params=params, schedule=None, degenerate_reason=pair.describe())
    nu, mu = pair
    try:
        sched = moser_exponents(params, nu, mu, K=K)
    except (ValueError, ArithmeticError) as exc:
        return ResolvedSchedule(params=params, schedule=None, degenerate_reason=str(exc))
    return ResolvedSchedule(params=params, schedule=sched)
