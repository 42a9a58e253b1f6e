"""Config parsing and the CLI exit-code matrix."""

import gc
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pqlab.cli import main
from pqlab.config import ConfigError, build_family, load_config, parse_config, resolve_schedule
from pqlab.integrand import Ball
from pqlab.solver import load_field

BASE_P2 = """
[family]
kind = p_laplacian
p = 2

[grid]
side = 1.0
n = 33

[boundary]
expr = x^2 - y^2

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.4

[schedule]
mode = auto
n = 2

[sweep]
amplitudes = 0.5, 1, 2, 4, 8

[solver]
tolerance = 1e-9
max_iter = 8000
"""

ANISO = """
[family]
kind = anisotropic
q = {q}
a11 = 1.0
a12 = 0.0
a22 = 1.0

[grid]
side = 1.0
n = 17

[boundary]
expr = x + y

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.4

[schedule]
mode = auto
n = 3

[sweep]
amplitudes = 0.5, 1, 2, 4, 8
"""


def cfg_file(tmp_path, text, name="problem.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- config parsing ---------------------------------------------------------------


def test_parse_config_sections_and_comments():
    cfg = parse_config(BASE_P2)
    assert cfg.get("family", "kind") == "p_laplacian"
    assert cfg.get("grid", "n", "int") == 33
    assert cfg.get("sweep", "amplitudes", "floats") == [0.5, 1, 2, 4, 8]


def test_parse_error_carries_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("[family]\nkind p_laplacian\n")
    assert exc.value.line == 2


def test_expression_error_carries_line_and_column():
    text = BASE_P2.replace("expr = x^2 - y^2", "expr = x^2 -* y")
    with pytest.raises(ConfigError) as exc:
        cfg = parse_config(text)
        cfg.get("boundary", "expr", "expr", required=True)
    assert exc.value.line == 11  # the boundary expr line of BASE_P2
    assert exc.value.column is not None


def test_missing_family_key_is_config_error():
    text = BASE_P2.replace("p = 2\n", "")
    with pytest.raises(ConfigError, match="missing the key 'p'"):
        build_family(parse_config(text))


@pytest.mark.parametrize(
    "kind, text, value, error",
    [
        ("str", "any text", "any text", None),
        ("int", "65.5", None, "3: n = '65.5' is not an integer"),
        ("int", "inf", None, "3: n = 'inf' is not an integer"),
        ("float", "abc", None, "3: n = 'abc' is not a number"),
        ("float", "-inf", None, "3: n = '-inf' must be finite"),
        ("number", "5/2", Fraction(5, 2), None),
        ("number", "2.5e0", 2.5, None),
        ("number", "1/0", None, "3: n = '1/0' is not a number"),
        ("number", "Infinity", None, "3: n = 'Infinity' must be finite"),
        ("floats", "0.5, x", None, "3: n = '0.5, x' is not a number list"),
        ("floats", "0.5 1e400", None, "3: n = '0.5 1e400' must be finite"),
        ("pairs", "(0.05, 0.45), (a, b)", None, "3: n must be a list of (rho, R) pairs, got '(0.05, 0.45), (a, b)'"),
        ("pairs", "(0.05, 0.25, 0.45)", None, "3: n must be a list of (rho, R) pairs, got '(0.05, 0.25, 0.45)'"),
        ("pairs", "(0.05, -nan)", None, "3: n = '(0.05, -nan)' must be finite"),
        ("expr", "x +* y", None, "3:4: bad expression for n: expected a value, found '*'"),
    ],
)
def test_value_kinds(kind, text, value, error):
    cfg = parse_config(f"[grid]\n# the key sits on line 3\nn = {text}\n")
    default = object()
    assert cfg.get("grid", "absent", kind, default) is default
    with pytest.raises(ConfigError) as exc:
        cfg.get("grid", "absent", kind, default, required=True)
    assert (str(exc.value), exc.value.line) == ("<config>:1: [grid] is missing the key 'absent'", 1)
    if error is None:
        got = cfg.get("grid", "n", kind)
        assert (type(got), got) == (type(value), value)
        return
    with pytest.raises(ConfigError) as exc:
        cfg.get("grid", "n", kind)
    assert (str(exc.value), exc.value.line) == (f"<config>:{error}", 3)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[grid]\nn = 3\nn = 4\n")


def test_key_before_first_section_rejected():
    # a top-level key would be stored and never read: `seed = 7` sets no seed
    with pytest.raises(ConfigError, match="before the first section") as exc:
        parse_config("seed = 7\n\n[family]\nkind = p_laplacian\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("key", ["tolerence", "c1", "backtrack", "epsilon"])
def test_unknown_solver_key_rejected(tmp_path, capsys, key):
    # a misspelled or retired key was ignored and the solve ran at the default tolerance
    text = BASE_P2.replace("max_iter = 8000", f"max_iter = 8000\n{key} = 1e-3")
    rc = main(["solve", cfg_file(tmp_path, text), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1, err
    line = text.splitlines().index(f"{key} = 1e-3") + 1
    assert f"problem.cfg:{line}: " in err and f"not {key!r}" in err, err


def test_resolve_schedule_explicit():
    text = BASE_P2.replace("mode = auto", "mode = explicit\nalpha = 2\nbeta = 1\nnu = 1")
    cfg = parse_config(text)
    fam = build_family(cfg)
    res = resolve_schedule(cfg, fam, Ball(0.5, 0.5, 0.4))
    assert res.schedule is not None
    assert float(res.schedule.theta3) == 4.0  # 2*/2 with the default 2* = 8


# --- exit-code matrix ---------------------------------------------------------------


def test_check_anisotropic_admissible_exit0(tmp_path, capsys):
    rc = main(["check", cfg_file(tmp_path, ANISO.format(q=2.5))])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "ellipticity-sandwich" in out


def test_check_anisotropic_inadmissible_exit2(tmp_path, capsys):
    rc = main(["check", cfg_file(tmp_path, ANISO.format(q=4.0))])
    assert rc == 2


def test_check_malformed_config_exit1(tmp_path, capsys):
    text = ANISO.format(q=2.5).replace("q = 2.5\n", "")
    rc = main(["check", cfg_file(tmp_path, text)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "params", "solve", "validate"])
@pytest.mark.parametrize("seed", ["-1", "-7", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    # a negative seed reached numpy's seeding and raised out of main
    rc = main([command, cfg_file(tmp_path, BASE_P2), "--seed", seed])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"argument --seed: expected a non-negative integer, got {seed!r}" in err, err


@pytest.mark.parametrize(
    "command, old, new, expected",
    [
        pytest.param("solve", "n = 33", "n = 5", "config error: {at}: n must be at least 8", id="solve-n5"),
        pytest.param("validate", "n = 33", "n = 5", "config error: {at}: n must be at least 8", id="validate-n5"),
        pytest.param("solve", "side = 1.0", "side = 0", "config error: {at}: side must be positive", id="side0"),
        pytest.param(
            "solve", "tolerance = 1e-9", "tolerance = 0", "config error: {at}: tolerance must be positive", id="tol0"
        ),
        pytest.param(
            "solve", "max_iter = 8000", "max_iter = -3", "config error: {at}: max_iter must be non-negative", id="iter-3"
        ),
        pytest.param("params", "n = 2\n", "n = 2\nK = 0\n", "config error: {at}: K must be >= 1", id="params-K0"),
        pytest.param("validate", "n = 2\n", "n = 2\nK = 0\n", "config error: {at}: K must be >= 1", id="validate-K0"),
        pytest.param(
            "params", "n = 2\n", "n = 2\nbeta = 2\n", "config error: {at}: [schedule] takes mode, n, two_star, alpha, "
            "delta, nu, mu and K only, not 'beta'", id="auto-beta",
        ),
        pytest.param(
            "params", "mode = auto", "mode = sometimes",
            "config error: {at}: schedule mode must be auto or explicit, got 'sometimes'", id="mode-sometimes",
        ),
        pytest.param(
            "validate", "n = 2\n", "n = 3\n",
            "config error: {at}: validate solves on a 2-D grid, so [schedule] n must be 2, got 3", id="validate-n3",
        ),
        pytest.param(
            "solve", None, "--tolerance -1", "argument --tolerance: tolerance must be positive", id="flag-tol-1"
        ),
        pytest.param(
            "solve", "expr = x^2 - y^2", "expr = log(x)", "error: boundary data must be finite", id="boundary-inf",
            marks=pytest.mark.filterwarnings("error"),
        ),
        pytest.param("check", "R = 0.4", "R = inf", "config error: {at}: R = 'inf' must be finite", id="R-inf"),
        pytest.param("check", "R = 0.4", "R = 1e400", "config error: {at}: R = '1e400' must be finite", id="R-1e400"),
        pytest.param(
            "check", "center = 0.5, 0.5", "center = nan, 0.5", "config error: {at}: center = 'nan, 0.5' must be finite",
            id="center-nan",
        ),
        pytest.param(
            "check", "kind = p_laplacian\np = 2", "kind = double_phase\np = 2\na = x^2 + y^2\nq = inf",
            "config error: {at}: q = 'inf' must be finite", id="double-phase-q-inf",
        ),
        pytest.param(
            "solve", "tolerance = 1e-9", "tolerance = inf", "config error: {at}: tolerance = 'inf' must be finite",
            id="tol-inf",
        ),
        pytest.param(
            "solve", None, "--tolerance inf", "argument --tolerance: tolerance must be positive and finite",
            id="flag-tol-inf",
        ),
        pytest.param(
            "params", "n = 2\n", "n = 2\ntwo_star = inf\n", "config error: {at}: two_star = 'inf' must be finite",
            id="two-star-inf",
        ),
        pytest.param("solve", "side = 1.0", "side = inf", "config error: {at}: side = 'inf' must be finite", id="side-inf"),
        pytest.param(
            "solve", "side = 1.0", "side = 1.0\nx0 = nan", "config error: {at}: x0 = 'nan' must be finite", id="x0-nan"
        ),
        pytest.param(
            "validate", "amplitudes = 0.5, 1, 2, 4, 8", "amplitudes = 0.5, 1, 2, 4, inf",
            "config error: {at}: amplitudes = '0.5, 1, 2, 4, inf' must be finite", id="amplitude-inf",
        ),
        pytest.param(
            "validate", "amplitudes = 0.5, 1, 2, 4, 8", "pairs = (0.05, inf), (0.25, inf), (0.33, inf), (0.41, inf)",
            "config error: {at}: pairs = '(0.05, inf), (0.25, inf), (0.33, inf), (0.41, inf)' must be finite",
            id="pairs-inf",
        ),
        pytest.param(
            "validate", "rho = 0.2", "rho = 0.001",
            "error: B_rho holds no cell centre or no interior node: rho = 0.001, h = 0.03125", id="rho-no-cells",
        ),
        pytest.param(
            "validate", "amplitudes = 0.5, 1, 2, 4, 8", "pairs = (0.001, 0.45), (0.25, 0.45), (0.33, 0.45), (0.41, 0.45)",
            "error: B_rho holds no cell centre or no interior node: rho = 0.001, h = 0.03125", id="pair-no-cells",
        ),
    ],
)
def test_rejected_values_end_in_one_line(tmp_path, capsys, command, old, new, expected):
    # these values raised the library's ValueError out of main as a traceback;
    # max_iter = -3 ran no step, and K = 0 under validate read as a degenerate
    # schedule (exit 2); non-finite numbers ran on into nan verdicts, a
    # converged solve after 0 iterations, an OverflowError or a numpy warning;
    # a B_rho without cells measured sup|Du|^2 = 0; a bad schedule mode was
    # anchored at line 0, and validate judged a 2-D field by n = 3 exponents
    text = BASE_P2 if old is None else BASE_P2.replace(old, new)
    path = cfg_file(tmp_path, text)
    args = new.split() if old is None else []
    rc = main([command, path, "--out", str(tmp_path / "o"), *args])
    cap = capsys.readouterr()
    out = (cap.out + cap.err).splitlines()
    assert rc == 1, out
    if "{at}" in expected:
        expected = expected.format(at=f"{path}:{text.splitlines().index(new.splitlines()[-1]) + 1}")
    assert expected in out[-1], out


def test_params_double_phase_auto(tmp_path, capsys):
    text = """
[family]
kind = double_phase
p = 2
q = 3
a = x^2 + y^2
a_lipschitz = 3.0

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.35

[schedule]
mode = auto
n = 4
"""
    rc = main(["params", cfg_file(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha        = 4" in out
    assert "gamma        = 1" in out


def test_params_explicit_mu_unbounded(tmp_path, capsys):
    text = """
[family]
kind = p_laplacian
p = 2

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.35

[schedule]
mode = explicit
n = 3
alpha = 2
beta = 1
nu = 1
mu = unbounded
"""
    rc = main(["params", cfg_file(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mu           = unbounded" in out
    assert "theta3       = 3" in out


def test_params_exponential_steep_coefficient_exit2(tmp_path, capsys):
    text = """
[family]
kind = exponential
a = 0.2 + 2*x
a_lipschitz = 2.0

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.45

[schedule]
mode = auto
n = 3
"""
    rc = main(["params", cfg_file(tmp_path, text)])
    assert rc == 2
    assert "rejected" in capsys.readouterr().out


DECLINED = """
[family]
{family}

[grid]
side = 1.0
n = 17

[boundary]
expr = x + y

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.4

[schedule]
mode = auto
{schedule}

[sweep]
amplitudes = 0.5, 1, 2, 4, 8
"""

RECIPE_DECLINES = {
    "plap-alpha1": ("kind = p_laplacian\np = 3", "n = 2\nalpha = 1"),
    "plap-n3-delta1": ("kind = p_laplacian\np = 3", "n = 3\ndelta = 1"),
    "exp-a-sign-change": ("kind = exponential\na = x - 0.5\na_lipschitz = 1", "n = 2"),
    "px-p-below-2": ("kind = px_laplacian\np_expr = 1.5 + x\np_expr_lipschitz = 1", "n = 2"),
    # q/p = 2 >= 1 + 1/sqrt(2): beta = q/p breaks its bound at n = 2
    "dp-q4-n2": ("kind = double_phase\np = 2\nq = 4\na = x^2 + y^2\na_lipschitz = 3", "n = 2"),
}


@pytest.mark.parametrize(
    "command, family, schedule",
    [
        pytest.param(cmd, *case, id=f"{cmd}-{name}")
        for name, case in RECIPE_DECLINES.items()
        for cmd in ("check", "params", "validate")
    ],
)
def test_declined_values_are_typed_rejections(tmp_path, capsys, command, family, schedule):
    # a recipe or a triple that declines config values ends in one line and
    # exit 2, not in a traceback
    rc = main([command, cfg_file(tmp_path, DECLINED.format(family=family, schedule=schedule))])
    out = capsys.readouterr().out
    assert rc == 2, out
    assert "rejected: " in out and len(out.splitlines()) == 1, out


@pytest.mark.parametrize("command", ["check", "params", "validate"])
def test_exponential_tau_is_a_config_error(tmp_path, capsys, command):
    # the exponential class is exp(a |xi|^2): [family] has no tau to decline
    text = DECLINED.format(family="kind = exponential\na = 1\ntau = 3", schedule="n = 2")
    path = cfg_file(tmp_path, text)
    rc = main([command, path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    line = text.splitlines().index("tau = 3") + 1
    reason = "[family] takes kind, a and a_lipschitz only, not 'tau'"
    assert (rc, cap.out, cap.err) == (1, "", f"config error: {path}:{line}: {reason}\n")


def test_solve_p2_exit0_and_field_file(tmp_path, capsys):
    rc = main(["solve", cfg_file(tmp_path, BASE_P2), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0, out
    field = load_field(tmp_path / "out" / "problem.field.txt")
    assert field.grid.n == 33
    # the p = 2 solve of x^2 - y^2 boundary is the harmonic interpolant
    X, Y = field.grid.node_coords()
    assert np.max(np.abs(field.values - (X * X - Y * Y))) < 1e-8
    # energy agrees with the direct linear-solve oracle
    from pqlab.integrand import PLaplacian
    from pqlab.solver import discrete_energy, harmonic_direct_solve

    oracle = harmonic_direct_solve(field.grid)
    e_solver = discrete_energy(field.grid, PLaplacian(2), field.values)[0]
    e_oracle = discrete_energy(field.grid, PLaplacian(2), oracle.values)[0]
    assert abs(e_solver - e_oracle) <= 1e-8 * max(1.0, e_oracle)


def test_solve_zero_boundary_zero_iterations(tmp_path, capsys):
    text = BASE_P2.replace("expr = x^2 - y^2", "expr = 0 * x")
    rc = main(["solve", cfg_file(tmp_path, text), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "iterations    = 0" in out


def test_solve_nonconvergence_exit4_field_still_written(tmp_path, capsys):
    text = BASE_P2.replace("expr = x^2 - y^2", "expr = exp(x)*log(2 + y)").replace(
        "p = 2", "p = 4"
    ).replace(
        "max_iter = 8000", "max_iter = 2"
    ).replace("tolerance = 1e-9", "tolerance = 1e-13")
    rc = main(["solve", cfg_file(tmp_path, text), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert (tmp_path / "o" / "problem.field.txt").exists()


def test_solve_exponential_saturation_autorescale_warning(tmp_path, capsys):
    text = """
[family]
kind = exponential
a = 1.0

[grid]
side = 1.0
n = 17

[boundary]
expr = 60*(x + y)

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.4

[schedule]
mode = auto
n = 2

[solver]
tolerance = 1e-8
max_iter = 6000
"""
    rc = main(["solve", cfg_file(tmp_path, text), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "rescaled" in out


EXPONENTIAL = """
[family]
kind = exponential
a = 1.0

[grid]
side = {side}
n = 17

[boundary]
expr = {expr}

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.4

[schedule]
mode = auto
n = 2

[sweep]
amplitudes = 0.5, 1, 2, 4, 8
"""


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_too_steep_exponential_start_is_one_error_line(tmp_path, capsys, command):
    # the peak log-density overflowed to inf and the start guard rescaled by 0:
    # an all-zero field read converged
    path = cfg_file(tmp_path, EXPONENTIAL.format(side=1.0, expr="1e200*(x + y)"))
    rc = main([command, path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert (rc, out) == (1, "error: initial state too steep: its peak log-density exceeds float range\n")


def test_log_domain_energy_beyond_float_range(tmp_path, capsys):
    # the start's peak log-density 669.8 is under the guard, but log E = 711.2 is
    # past float range: an exactly zero gradient read inf and the Newton loop
    # divided by zero
    path = cfg_file(tmp_path, EXPONENTIAL.format(side=1e9, expr="18.3*(x + y)"))
    rc = main(["solve", path, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "final_energy  = inf\ngradient_norm = 0\nconverged     = True\n" in out


def test_validate_p2_sweep_exit0(tmp_path, capsys):
    rc = main(["validate", cfg_file(tmp_path, BASE_P2), "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert (tmp_path / "v" / "estimate_report.txt").exists()


def test_validate_skipped_slopes_exit3(tmp_path, capsys):
    # test_sweep_reports_solve_failures' set-up: no solve converges in 3 steps,
    # so neither slope is fitted; this read slope1=FAIL slope3=ok and exit 2
    text = BASE_P2
    for old, new in (("p = 2", "p = 4"), ("n = 33", "n = 25"), ("1e-9", "1e-13"), ("8000", "3")):
        text = text.replace(old, new)
    rc = main(["validate", cfg_file(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 3, out
    assert "pass flags: slope1=skipped slope3=skipped" in out


def test_validate_ratio_flags_skip_without_converged_solves(tmp_path, capsys):
    # the set-up above at max_iter = 0: no solve converges, and the ratio
    # flags read ok on no data
    text = BASE_P2
    for old, new in (("p = 2", "p = 4"), ("n = 33", "n = 25"), ("1e-9", "1e-13"), ("8000", "0")):
        text = text.replace(old, new)
    rc = main(["validate", cfg_file(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 3, out
    assert out.count("solve failure: ") == 5
    assert "pass flags: slope1=skipped slope3=skipped ratio=skipped ratio_V=skipped" in out


PX_CHECK = """
[family]
kind = px_laplacian
p_expr = 2.5 + 0.2*x
p_expr_lipschitz = 0.2

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.35

[schedule]
mode = auto
n = 2
"""


def test_schedule_omega_is_a_config_error(tmp_path, capsys):
    # omega reached the recipe's delta but not the triple's g3, so check
    # failed A3 (exit 2)
    path = cfg_file(tmp_path, PX_CHECK + "omega = 1/1000\n")
    rc = main(["check", path])
    cap = capsys.readouterr()
    assert (rc, cap.out) == (1, ""), cap.out
    assert cap.err == (
        f"config error: {path}:15: [schedule] takes mode, n, two_star, alpha, delta, nu, mu and K only, not 'omega'\n"
    )


def test_validate_two_amplitudes_exit1(tmp_path, capsys):
    text = BASE_P2.replace("amplitudes = 0.5, 1, 2, 4, 8", "amplitudes = 1, 2")
    rc = main(["validate", cfg_file(tmp_path, text)])
    assert rc == 1
    assert "insufficient spread" in capsys.readouterr().out


LOG_PX_EXPLICIT = """
[family]
kind = log_px_laplacian
p_expr = 2.5 + 0.2*x
p_expr_lipschitz = 0.2

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.35

[schedule]
mode = explicit
n = 2
two_star = 1872971/211255
alpha = 5913/2530
beta = 1027951/845020
gamma = 175/167
theta = 267/253
"""

DOUBLE_PHASE = """
[family]
kind = double_phase
p = 2
q = 3
a = x^2 + y^2
a_lipschitz = 3.0

[grid]
side = 1.0
n = 33

[boundary]
expr = x*y + 0.5*(x + y)

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.35

[schedule]
mode = auto
n = 2

[sweep]
amplitudes = 0.5, 1, 2, 4, 8

[solver]
tolerance = 1e-5
max_iter = 20000
"""


def test_check_and_validate_double_phase_auto(tmp_path, capsys):
    path = cfg_file(tmp_path, DOUBLE_PHASE)
    assert main(["check", path]) == 0
    rc = main(["validate", path, "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "slope1=ok" in out and "ratio=ok" in out


MULTI_PHASE = DOUBLE_PHASE.replace("kind = double_phase", "kind = multi_phase").replace(
    "a_lipschitz = 3.0", "a_lipschitz = 3.0\nb = 0.5"
)
NEGATIVE_A = "a = x - 2 must be non-negative on the ball, got -1.85"
NOT_FINITE = "coefficient log(x - 2) is not finite on the ball"


@pytest.mark.parametrize(
    "command, text, old, new, message",
    [
        ("check", DOUBLE_PHASE, "a = x^2 + y^2", "a = x - 2", f"growth triple rejected: {NEGATIVE_A}"),
        ("check", MULTI_PHASE, "a = x^2 + y^2", "a = x - 2", f"growth triple rejected: {NEGATIVE_A}"),
        ("validate", DOUBLE_PHASE, "a = x^2 + y^2", "a = x - 2", f"growth triple rejected: {NEGATIVE_A}"),
        ("check", DOUBLE_PHASE, "a = x^2 + y^2", "a = log(x - 2)", f"growth triple rejected: {NOT_FINITE}"),
        ("params", PX_CHECK, "p_expr = 2.5 + 0.2*x", "p_expr = log(x - 2)", f"rejected: resolve_params: {NOT_FINITE}"),
        ("check", PX_CHECK, "p_expr = 2.5 + 0.2*x", "p_expr = log(x - 2)",
         f"parameter recipe rejected: resolve_params: {NOT_FINITE}"),
        ("check", ANISO.format(q=2.5), "a11 = 1.0", "a11 = log(x - 2)", f"growth triple rejected: {NOT_FINITE}"),
    ],
    ids=["check-dp-negative", "check-mp-negative", "validate-dp-negative", "check-dp-nan", "params-px-nan",
         "check-px-nan", "check-aniso-nan"],
)
def test_coefficient_negative_or_not_finite_on_the_ball_is_rejected(tmp_path, capsys, command, text, old, new,
                                                                     message):
    # one line, exit 2 and an empty stderr: a negative a would reach math.log
    # in the 11M log form and make the energy unbounded below, and a NaN
    # coefficient would drop every 11M, 12M and A3 sample as 0 <= M * 0
    rc = main([command, cfg_file(tmp_path, text.replace(old, new)), "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    assert (rc, cap.out, cap.err) == (2, message + "\n", "")


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("check", "a_lipschitz = 3.0", "a_lipshitz = 3.0"),  # left L = 0, g3 = 0: growth-A fail inf
        ("check", "a = x^2 + y^2", "a = x^2 + y^2\nb = 0.5"),  # a multi phase key
        ("check", "R = 0.35", "R = 0.35\nradius = 0.3"),
        ("solve", "n = 33", "n = 33\nnx = 17"),
        ("solve", "expr = x*y + 0.5*(x + y)", "expr = x*y + 0.5*(x + y)\nexpression = x"),
        ("validate", "amplitudes = 0.5, 1, 2, 4, 8", "amplitudes = 0.5, 1, 2, 4, 8\namplitude = 9"),
    ],
    ids=["family-lipschitz", "family-other-kind", "ball", "grid", "boundary", "sweep"],
)
def test_unread_key_is_a_config_error_in_every_section(tmp_path, capsys, command, old, new):
    text = DOUBLE_PHASE.replace(old, new)
    key = new.splitlines()[-1].split(" = ")[0]
    path = cfg_file(tmp_path, text)
    rc = main([command, path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    assert (rc, cap.out) == (1, ""), cap.out
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    assert cap.err.startswith(f"config error: {path}:{line}: [") and cap.err.endswith(f" only, not {key!r}\n")
    assert cap.err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "params", "solve", "validate"])
def test_unknown_section_is_a_config_error(tmp_path, capsys, command):
    # a misspelt [solver] was ignored with its keys: the solve ran at 1e-8
    text = BASE_P2.replace("[solver]\ntolerance = 1e-9", "[solvr]\ntolerance = 1e-3")
    path = cfg_file(tmp_path, text)
    rc = main([command, path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    line = text.splitlines().index("[solvr]") + 1
    assert (rc, cap.out, cap.err) == (1, "", f"config error: {path}:{line}: unknown section [solvr]\n")


def test_family_keys_of_the_kind_and_unknown_kind(tmp_path, capsys):
    path = cfg_file(tmp_path, DOUBLE_PHASE.replace("a_lipschitz = 3.0", "a_lipshitz = 3.0"))
    main(["check", path])
    assert "[family] takes kind, p, q, a and a_lipschitz only, not 'a_lipshitz'" in capsys.readouterr().err
    path = cfg_file(tmp_path, DOUBLE_PHASE.replace("kind = double_phase", "kind = triple_phase"))
    assert main(["check", path]) == 1
    assert "unknown family kind 'triple_phase'" in capsys.readouterr().err
    path = cfg_file(tmp_path, BASE_P2.replace("expr = x^2 - y^2", "expr = x^2 - y^2\nx0 = 0"))
    main(["solve", path])
    assert "[boundary] takes expr only, not 'x0'" in capsys.readouterr().err


# each kind's [family] keys in the order its schema reads them, and the
# message's list of them
FAMILY_SCHEMAS = {
    "p_laplacian": ("p = 3", "kind and p"),
    "very_degenerate": ("p = 3", "kind and p"),
    "exponential": ("a = 1 + x\na_lipschitz = 1", "kind, a and a_lipschitz"),
    "px_laplacian": ("p_expr = 2.5 + 0.2*x\np_expr_lipschitz = 0.2", "kind, p_expr and p_expr_lipschitz"),
    "log_px_laplacian": ("p_expr = 2.5 + 0.2*x\np_expr_lipschitz = 0.2", "kind, p_expr and p_expr_lipschitz"),
    "double_phase": ("p = 2\nq = 3\na = x^2 + y^2\na_lipschitz = 3", "kind, p, q, a and a_lipschitz"),
    "multi_phase": ("p = 2\nq = 3\na = x^2 + y^2\na_lipschitz = 3\nb = 0.5", "kind, p, q, a, a_lipschitz and b"),
    "anisotropic-base_p": ("q = 3\nbase_p = 2.5", "kind, q and base_p"),
    "anisotropic-aij": (
        "q = 2.5\na11 = 1\na11_lipschitz = 0\na12 = 0.1\na12_lipschitz = 0\na22 = 0.5 + 0.1*x\na22_lipschitz = 0.1",
        "kind, q, a11, a11_lipschitz, a12, a12_lipschitz, a22 and a22_lipschitz",
    ),
}


@pytest.mark.parametrize("schema", FAMILY_SCHEMAS)
def test_family_message_lists_exactly_the_keys_its_kind_reads(schema):
    keys, names = FAMILY_SCHEMAS[schema]
    kind = schema.split("-")[0]
    text = f"[family]\nkind = {kind}\n{keys}\n"
    assert build_family(parse_config(text)).kind == kind
    with pytest.raises(ConfigError) as exc:
        build_family(parse_config(text + "stray = 1\n"))
    assert exc.value.reason == f"[family] takes {names} only, not 'stray'"
    assert names.replace(" and ", ", ").split(", ") == ["kind"] + [line.split(" = ")[0] for line in keys.splitlines()]
    # every key the message names is read: a value no kind parses is an error at its line
    for line_no, line in enumerate(keys.splitlines(), start=3):
        with pytest.raises(ConfigError) as exc:
            build_family(parse_config(text.replace(line, line.split(" = ")[0] + " = (")))
        assert exc.value.line == line_no, line


@pytest.mark.parametrize("command", ["check", "params", "solve", "validate"])
@pytest.mark.parametrize(
    "old, new, key",
    [
        ("q = 2.5\n", "q = 2.5\nbase_p = 2\n", "a11"),
        ("a11 = 1.0\na12 = 0.0\na22 = 1.0\n", "base_p = 2\na11_lipschitz = 1\n", "a11_lipschitz"),
    ],
    ids=["base_p-and-aij", "base_p-and-a11_lipschitz"],
)
def test_anisotropic_family_takes_one_form(tmp_path, capsys, command, old, new, key):
    # base_p won and the matrix keys were dropped: check read |xi|^2 + |xi_2|^q
    # and exited 0
    text = ANISO.format(q=2.5).replace("n = 3", "n = 2").replace(old, new)
    path = cfg_file(tmp_path, text)
    rc = main([command, path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    line = next(i for i, row in enumerate(text.splitlines(), start=1) if row.startswith(f"{key} = "))
    message = f"[family] takes kind, q and base_p only, not {key!r}"
    assert (rc, cap.out, cap.err) == (1, "", f"config error: {path}:{line}: {message}\n")


VERY_DEGENERATE_P15 = BASE_P2.replace("kind = p_laplacian\np = 2", "kind = very_degenerate\np = 1.5")
ANISO_BASE_P4 = (
    ANISO.format(q=3).replace("n = 3", "n = 2").replace("a11 = 1.0\na12 = 0.0\na22 = 1.0\n", "base_p = 4\n")
)


@pytest.mark.parametrize("command", ["check", "params", "solve", "validate"])
@pytest.mark.parametrize(
    "text, key, message",
    [
        (VERY_DEGENERATE_P15, "p", "p must be at least 2 for the very degenerate family, got 1.5"),
        (
            ANISO_BASE_P4, "base_p",
            "base_p must satisfy 2 <= base_p <= q for the anisotropic family, got base_p=4.0, q=3.0",
        ),
    ],
    ids=["very_degenerate-p", "anisotropic-base_p"],
)
def test_rejected_family_value_is_anchored_at_its_key(tmp_path, capsys, command, text, key, message):
    # both were anchored at the kind line, as "invalid family parameters: ..."
    path = cfg_file(tmp_path, text)
    rc = main([command, path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    line = next(i for i, row in enumerate(text.splitlines(), start=1) if row.startswith(f"{key} = "))
    assert (rc, cap.out, cap.err) == (1, "", f"config error: {path}:{line}: {message}\n")


def test_sweep_with_amplitudes_and_pairs_is_a_config_error(tmp_path, capsys):
    # validate ran the amplitude sweep, ignored the pairs and exited 0
    text = BASE_P2.replace(
        "amplitudes = 0.5, 1, 2, 4, 8", "pairs = (0.05, 0.45), (0.25, 0.45)\namplitudes = 0.5, 1, 2, 4, 8"
    )
    path = cfg_file(tmp_path, text)
    rc = main(["validate", path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    line = text.splitlines().index("amplitudes = 0.5, 1, 2, 4, 8") + 1
    assert (rc, cap.out, cap.err) == (1, "", f"config error: {path}:{line}: [sweep] takes amplitudes or pairs, not both\n")


@pytest.mark.parametrize(
    "removed, header, message",
    [
        ("rho = 0.2\n", "[ball]", "[ball] is missing the key 'rho'"),
        ("amplitudes = 0.5, 1, 2, 4, 8\n", "[sweep]", "[sweep] must define either amplitudes or pairs"),
    ],
    ids=["missing-key", "sweep-no-keys"],
)
def test_missing_keys_are_anchored_at_the_section_header(tmp_path, capsys, removed, header, message):
    # both were anchored at line 0 or not at all: an empty [sweep] printed
    # "error: ..." on stdout, once the schedule was built
    text = BASE_P2.replace(removed, "")
    path = cfg_file(tmp_path, text)
    rc = main(["validate", path, "--out", str(tmp_path / "o")])
    cap = capsys.readouterr()
    line = text.splitlines().index(header) + 1
    assert (rc, cap.out, cap.err) == (1, "", f"config error: {path}:{line}: {message}\n")


def test_params_of_a_degenerate_schedule_list_K_lambdas(tmp_path, capsys):
    text = BASE_P2.replace("mode = auto", "mode = explicit\nalpha = 2\nbeta = 1\nnu = 1\nmu = 1\nK = 3")
    assert main(["params", cfg_file(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "lambda_3     = " in out and "lambda_4" not in out, out
    assert out.endswith("note: iteration exponents degenerate (mu must exceed 2*/2 = 4, got 1)\n"), out


def test_params_e_notation_prints_fractions(tmp_path, capsys):
    # an e-notation number was a float, and the schedule built on it printed floats
    text = LOG_PX_EXPLICIT.replace("alpha = 5913/2530", "alpha = 2.6e0")
    assert main(["params", cfg_file(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "alpha        = 13/5 (2.6)\n" in out
    assert "nu           = 1221237/569503 (2.1443908)\n" in out
    assert "lambda_2     = 651734/211255 (3.0850583)\n" in out


def test_validate_radius_pairs(tmp_path, capsys):
    text = BASE_P2.replace(
        "amplitudes = 0.5, 1, 2, 4, 8",
        "pairs = (0.05, 0.45), (0.25, 0.45), (0.33, 0.45), (0.41, 0.45)",
    )
    rc = main(["validate", cfg_file(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "monotone=ok" in out


def test_exit_code_matrix_over_verdicts():
    from pqlab.cli import exit_code_from_reports
    from pqlab.growth import ConditionReport

    def rep(verdict):
        return ConditionReport("11M", verdict, 1.0, 1.0)

    assert exit_code_from_reports([rep("pass"), rep("pass")]) == 0
    assert exit_code_from_reports([rep("pass"), rep("inconclusive")]) == 3
    assert exit_code_from_reports([rep("inconclusive"), rep("fail")]) == 2
    assert exit_code_from_reports([rep("fail"), rep("pass")]) == 2
    assert exit_code_from_reports([]) == 0


def test_tail_inconclusive_encoded_as_not_stabilized():
    # rising toward a limit at log rate: neither stabilized nor diverging
    from pqlab.growth import _classify_log_tail

    t = 10.0 * np.sqrt(10.0) ** np.arange(13)  # the checks' 13 tail probes
    res = _classify_log_tail(np.log(2.0 - 1.0 / np.log10(t)))
    assert not res.stabilized and not res.diverging


@pytest.mark.parametrize("command", ["check", "params", "solve", "validate"])
def test_repeated_calls_leave_no_cyclic_garbage(tmp_path, capsys, command):
    # each call built a new parser, whose 198 objects sat in reference cycles
    # until a full collection
    argv = [command, cfg_file(tmp_path, BASE_P2), "--out", str(tmp_path / "o")]
    gc.disable()
    try:
        main(argv)
        gc.collect()
        main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = cfg_file(tmp_path, BASE_P2)
    assert main(["params", path, "--seed", "x"]) == 1
    assert main(["params", path]) == 0


def test_reports_are_deterministic(tmp_path, capsys):
    path = cfg_file(tmp_path, ANISO.format(q=2.5))
    main(["check", path, "--seed", "11", "--out", str(tmp_path / "a")])
    main(["check", path, "--seed", "11", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    ra = (tmp_path / "a" / "check_report.txt").read_bytes()
    rb = (tmp_path / "b" / "check_report.txt").read_bytes()
    assert ra == rb


def test_snapshot_of_benchmark_configs_and_error_cases_raises_nowhere(tmp_path):
    # tools/cli_snapshot.py records an exception escaping main as "raised ..."
    # in exit_code.txt; every config-error case must end in exit 1 or 2
    script = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    run = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    codes = {f.parent.relative_to(tmp_path).as_posix(): f.read_text().strip() for f in tmp_path.rglob("exit_code.txt")}
    assert {k.split("/")[0] for k in codes} == {"solve-ladder", "check-catalog", "validate-sweep", "config-errors"}
    assert {k: v for k, v in codes.items() if v.startswith("raised")} == {}
    assert {k: v for k, v in codes.items() if k.startswith("config-errors") and v not in ("1", "2")} == {}
