"""Set-up probe: import ``pqlab.cli`` and load and build every given config.

Run in a fresh interpreter with ``src`` on ``PYTHONPATH``; the caller times
the whole process.  This is the work a user pays before the first solve,
check or sweep starts.

    python3 perfbench/setup_probe.py CONFIG [CONFIG ...]
"""

import sys

import pqlab.cli  # noqa: F401  (the import is part of what is timed)
from pqlab.config import (
    build_ball,
    build_boundary,
    build_family,
    build_grid_spec,
    build_solver_options,
    load_config,
    resolve_schedule,
)
from pqlab.integrand import Ball
from pqlab.solver import Grid


def build(path):
    cfg = load_config(path)
    family = build_family(cfg)
    if cfg.section("grid"):
        side, n, x0, y0 = build_grid_spec(cfg)
        Grid(side, n, build_boundary(cfg), x0, y0)
        build_solver_options(cfg)
    if cfg.section("ball"):
        (cx, cy), _rho, R = build_ball(cfg)
        resolve_schedule(cfg, family, Ball(cx, cy, R))


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        build(arg)
