"""scipy stays out of the import and config-build path, and every deferred
scipy import resolves on its own in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pqlab
from pqlab.growth import paper_triple
from pqlab.integrand import Ball, Coefficient, DoublePhase, Exponential, PLaplacian
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


def deferred_sites() -> dict:
    """One call to every function that imports scipy on first use."""
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


if __name__ == "__main__":
    # the cold side of test_deferred_scipy_imports_resolve_cold
    assert not any(m.startswith("scipy") for m in sys.modules)
    np.savez(sys.argv[1], **deferred_sites())
