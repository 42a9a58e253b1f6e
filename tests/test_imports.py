"""scipy stays out of every CLI command: ``check``, ``params``, ``solve``
and ``validate`` import none, and only the p = 2 oracle does; neither
``numpy.random`` nor the ``secrets`` / ``hashlib`` / ``_hashlib`` modules it
brings in load on any of them, nor do ``numpy.polynomial`` and ``numpy.ma``,
as the Gauss-Legendre literals equal ``leggauss``'s bit for bit; calls whose
first run sets something up lazily (the cached Gauss-Legendre nodes, the
oracle's deferred scipy import) give the same values cold in a fresh
interpreter as warm; and no package module keeps an unused top-level import
or private top-level name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pqlab
from pqlab.growth import paper_triple
from pqlab.integrand import Ball, Coefficient, DoublePhase, Exponential, PLaplacian, _gauss_legendre
from pqlab.solver import Grid, harmonic_direct_solve, minimize

SOLVE_CFG = """
[family]
kind = double_phase
p = 2
q = 3
a = x^2 + y^2
a_lipschitz = 3

[grid]
side = 1.0
n = 33

[boundary]
expr = x^2 - y^2 + 0.5*x

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.4

[schedule]
mode = auto
n = 2

[solver]
tolerance = 1e-7
"""

CHECK_CFG = """
[family]
kind = exponential
a = 0.5 + 0.1*x
a_lipschitz = 0.1

[ball]
center = 0.5, 0.5
rho = 0.2
R = 0.35

[schedule]
mode = auto
n = 2
"""

# import the CLI, then load and build each config as a CLI run does before
# its first solve or check
_BUILD = """
import sys
import pqlab.cli
from pqlab.config import (
    build_ball, build_boundary, build_family, build_grid_spec, build_solver_options,
    load_config, resolve_schedule,
)
from pqlab.integrand import Ball
from pqlab.solver import Grid

for path in sys.argv[1:]:
    cfg = load_config(path)
    family = build_family(cfg)
    if cfg.section("grid"):
        side, n, x0, y0 = build_grid_spec(cfg)
        Grid(side, n, build_boundary(cfg), x0, y0)
        build_solver_options(cfg)
    if cfg.section("ball"):
        (cx, cy), _rho, R = build_ball(cfg)
        resolve_schedule(cfg, family, Ball(cx, cy, R))
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def _run_fresh(args):
    src = str(Path(pqlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )


def test_import_and_config_build_load_no_scipy(tmp_path):
    paths = []
    for name, text in (("solve.cfg", SOLVE_CFG), ("check.cfg", CHECK_CFG)):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    out = _run_fresh(["-c", _BUILD, *paths])
    assert out.stdout.strip() == ""


CATALOG_FAMILIES = {
    "anisotropic": "q = 2.5\na11 = 1\na12 = 0.1\na22 = 0.5 + 0.1*x\na22_lipschitz = 0.1",
    "double_phase": "p = 2\nq = 3\na = x^2 + y^2\na_lipschitz = 3",
    "exponential": "a = 0.5 + 0.1*x\na_lipschitz = 0.1",
    "log_px_laplacian": "p_expr = 2.5 + 0.2*x\np_expr_lipschitz = 0.2",
    "multi_phase": "p = 2\nq = 3\na = x^2 + y^2\na_lipschitz = 3\nb = 0.5",
    "p_laplacian": "p = 4",
    "px_laplacian": "p_expr = 2.5 + 0.2*x\np_expr_lipschitz = 0.2",
    "very_degenerate": "p = 3",
}
# the log variant has no auto recipe
LOG_PX_SCHEDULE = """mode = explicit
n = 2
two_star = 1872971/211255
alpha = 5913/2530
beta = 1027951/845020
gamma = 175/167
theta = 267/253"""

_RUN_CLI = """
import contextlib, io, sys
from pqlab.cli import main

codes = []
for arg in sys.argv[1:]:
    command, path = arg.split("=", 1)
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main([command, path, "--out", path + "." + command]))
print(" ".join(map(str, codes)))
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
heavy = ("numpy.random", "numpy.polynomial", "numpy.ma", "secrets", "hashlib", "_hashlib")
print(" ".join(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy)))))
"""


def test_cli_commands_load_no_scipy(tmp_path):
    args = []
    for kind, family in CATALOG_FAMILIES.items():
        schedule = LOG_PX_SCHEDULE if kind == "log_px_laplacian" else "mode = auto\nn = 2"
        path = tmp_path / f"{kind}.cfg"
        path.write_text(
            f"[family]\nkind = {kind}\n{family}\n\n[ball]\ncenter = 0.5, 0.5\nrho = 0.2\n"
            f"R = 0.35\n\n[schedule]\n{schedule}\n"
        )
        args += [f"check={path}", f"params={path}"]
    path = tmp_path / "solve.cfg"
    path.write_text(SOLVE_CFG + "\n[sweep]\namplitudes = 0.5, 1, 2, 4, 8\n")
    args += [f"solve={path}", f"validate={path}"]
    codes, modules, heavy = _run_fresh(["-c", _RUN_CLI, *args]).stdout.split("\n")[:3]
    assert codes.split() == ["0"] * len(args)
    assert modules == ""
    # the seeded samples come from pqlab, not numpy.random and the hashing
    # and OpenSSL modules its import brings in; the Gauss-Legendre rules are
    # literals, not leggauss (numpy.polynomial), and the 11M integral dedupes
    # without np.unique (numpy.ma)
    assert heavy == ""


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    x, w10, w20 = _gauss_legendre()
    (x10, ref10), (x20, ref20) = leggauss(10), leggauss(20)
    for got, want in ((x, np.concatenate([x10, x20])), (w10, ref10), (w20, ref20)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def deferred_sites() -> dict:
    """One call to each function whose first call sets something up lazily:
    the cumulative integral builds and caches the Gauss-Legendre nodes from
    their literals, the p = 2 solve loads numpy.fft, and the p = 2
    oracle imports scipy; the exponential antiderivative and the power-sum
    log are the other numpy replacements of scipy special functions."""
    ball = Ball(0.5, 0.5, 0.35)
    t = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 37.0, 1e4])
    dp = paper_triple(
        DoublePhase(2.0, 3.0, Coefficient(lambda x, y: x * x + y * y, 3.0)), ball
    )
    ex = paper_triple(Exponential(Coefficient(lambda x, y: 0.5 + 0.1 * x, 0.1), 2.0), ball)
    grid = Grid(1.0, 17, lambda x, y: np.sin(3 * x) + y)
    return {
        "sqrt_g1_integral": dp.sqrt_g1_integral(t),
        "exp_antiderivative": ex.sqrt_g1_antiderivative(t),
        "exp_antiderivative_log": ex.sqrt_g1_antiderivative.log(t),
        "power_sum_log": dp.g1.log(t),
        "minimize_p2": minimize(grid, PLaplacian(2))[0].values,
        "harmonic_direct_solve": harmonic_direct_solve(grid).values,
    }


def test_deferred_scipy_imports_resolve_cold(tmp_path):
    out_path = tmp_path / "cold.npz"
    _run_fresh([__file__, str(out_path)])
    cold = np.load(out_path)
    warm = deferred_sites()
    assert sorted(cold.files) == sorted(warm)
    for key, value in warm.items():
        assert cold[key].shape == value.shape, key
        assert (cold[key] == value).all(), key


def test_no_unused_top_level_imports():
    # the unused-import rule of a linter (F401), with the stdlib parser;
    # __init__.py re-exports by design, and an import marked "noqa: F401"
    # is a deliberate re-export
    unused = []
    for path in sorted(Path(pqlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if "noqa: F401" in text.splitlines()[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def test_every_private_top_level_name_is_used():
    # a top-level _name that nothing in the package reads is code a
    # refactor left behind
    trees = {path.name: ast.parse(path.read_text()) for path in Path(pqlab.__file__).parent.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = []
    for fname, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [
                f"{fname}:{node.lineno}: {name}" for name in names
                if name.startswith("_") and not name.startswith("__") and name not in used
            ]
    assert not dead, dead


if __name__ == "__main__":
    # the cold side of test_deferred_scipy_imports_resolve_cold
    assert not any(m.startswith("scipy") for m in sys.modules)
    np.savez(sys.argv[1], **deferred_sites())
