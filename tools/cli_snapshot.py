#!/usr/bin/env python3
"""Snapshot every CLI output on the benchmark configs, for byte-level diffs.

    python3 tools/cli_snapshot.py OUTDIR [--seed S]

Runs ``pqlab.cli.main`` in process, importing ``pqlab`` from the ``src/`` of
the checkout this script sits in, on every config under
``perfbench/configs/`` (read only): ``solve`` on solve-ladder, ``check`` and
``params`` on check-catalog, ``validate`` and ``params`` on validate-sweep.
Each command gets ``OUTDIR/<workload>/<config>/<command>/`` holding
``stdout.txt`` (stdout and stderr), ``exit_code.txt`` and ``out/``, the
report and field files written through ``--out``.

The config-error and rejection paths are snapshot too: each case of
``ERRORS`` replaces one line of a benchmark config (the replacement may add
a line), and gets
``OUTDIR/config-errors/<case>/`` with the edited ``problem.cfg`` and the
same three entries.  The OUTDIR prefix is replaced by the word OUTDIR in
every file, so snapshots of two checkouts compare with

    diff -r OUTDIR_A OUTDIR_B
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "perfbench" / "configs"
COMMANDS = {
    "solve-ladder": ("solve",),
    "check-catalog": ("check", "params"),
    "validate-sweep": ("validate", "params"),
}
DP, PX, LOG_PX = "validate-sweep/dp_amplitudes", "validate-sweep/px_radii", "check-catalog/log_px_laplacian"
PX_PAIRS = "pairs = (0.05, 0.45), (0.25, 0.45), (0.33, 0.45), (0.41, 0.45)"
# case: (config, command, the line replaced, its replacement)
ERRORS = {
    "str-rejected": ("check-catalog/double_phase", "params", "mode = auto", "mode = sometimes"),
    "int-text": (DP, "validate", "n = 65", "n = 65.5"),
    "float-text": (DP, "validate", "rho = 0.2", "rho = abc"),
    "float-inf": (DP, "validate", "rho = 0.2", "rho = inf"),
    "number-text": (LOG_PX, "params", "alpha = 5913/2530", "alpha = 1/0"),
    "number-inf": (LOG_PX, "params", "alpha = 5913/2530", "alpha = inf"),
    "floats-text": (DP, "validate", "center = 0.5, 0.5", "center = 0.5, x"),
    "floats-inf": (DP, "validate", "amplitudes = 0.5, 1, 2, 4, 8", "amplitudes = 0.5, 1, 2, 4, inf"),
    "pairs-text": (PX, "validate", PX_PAIRS, "pairs = (0.05, 0.45), (a, b)"),
    "pairs-inf": (PX, "validate", PX_PAIRS, "pairs = (0.05, inf), (0.25, 0.45)"),
    "pairs-arity-3": (PX, "validate", PX_PAIRS, "pairs = (0.05, 0.25, 0.45), (0.33, 0.45)"),
    "expr-column": (DP, "validate", "expr = x*y + 0.5*(x + y)", "expr = x*y + 0.5*(x +* y)"),
    "missing-key": (DP, "validate", "rho = 0.2", ""),
    "unknown-key": (DP, "validate", "a_lipschitz = 3.0", "a_lipshitz = 3.0"),
    "unknown-section": (DP, "validate", "[solver]", "[solvr]"),
    "sweep-both-keys": (DP, "validate", "amplitudes = 0.5, 1, 2, 4, 8",
                        "amplitudes = 0.5, 1, 2, 4, 8\npairs = (0.05, 0.45), (0.25, 0.45)"),
    "sweep-no-keys": (DP, "validate", "amplitudes = 0.5, 1, 2, 4, 8", ""),
    "schedule-n-3": (PX, "validate", "n = 2", "n = 3"),
    "family-both-forms": ("check-catalog/anisotropic", "check", "q = 2.5", "q = 2.5\nbase_p = 2"),
    "family-value-anchor": ("check-catalog/very_degenerate", "check", "p = 3", "p = 1.5"),
    # coefficients negative or not finite on the ball: typed rejections, exit 2
    "dp-a-negative": ("check-catalog/double_phase", "check", "a = x^2 + y^2", "a = x - 2"),
    "mp-a-negative": ("check-catalog/multi_phase", "check", "a = x^2 + y^2", "a = x - 2"),
    "dp-a-negative-validate": (DP, "validate", "a = x^2 + y^2", "a = x - 2"),
    "dp-a-nan": ("check-catalog/double_phase", "check", "a = x^2 + y^2", "a = log(x - 2)"),
    "px-p-nan": ("check-catalog/px_laplacian", "params", "p_expr = 2.5 + 0.2*x", "p_expr = log(x - 2)"),
    "aniso-a11-nan": ("check-catalog/anisotropic", "check", "a11 = 1", "a11 = log(x - 2)"),
    # no [family] key tau: the exponential class is exp(a |xi|^2)
    "exp-tau-key": ("check-catalog/exponential", "check", "a_lipschitz = 0.1", "a_lipschitz = 0.1\ntau = 2"),
}


def snapshot(main, cfg: Path, command: str, seed: int, dest: Path):
    files = dest / "out"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = main([command, str(cfg), "--seed", str(seed), "--out", str(files)])
        except Exception as exc:  # recorded, so the two sides can differ in it too
            rc = f"raised {type(exc).__name__}: {exc}"
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "stdout.txt").write_text(buf.getvalue())
    (dest / "exit_code.txt").write_text(f"{rc}\n")


def snapshot_error(main, case: str, seed: int, dest: Path):
    config, command, old, new = ERRORS[case]
    lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()
    lines[lines.index(old)] = new  # a ValueError when the config lost that line
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "problem.cfg").write_text("\n".join(lines) + "\n")
    snapshot(main, dest / "problem.cfg", command, seed, dest)


def normalize(outdir: Path):
    prefix = str(outdir)
    for path in outdir.rglob("*"):
        if path.is_file():
            text = path.read_text()
            if prefix in text:
                path.write_text(text.replace(prefix, "OUTDIR"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    outdir = args.outdir.resolve()
    sys.path.insert(0, str(ROOT / "src"))
    from pqlab.cli import main as cli_main

    for workload, commands in COMMANDS.items():
        for cfg in sorted((CONFIGS / workload).glob("*.cfg")):
            for command in commands:
                snapshot(cli_main, cfg, command, args.seed, outdir / workload / cfg.stem / command)
    for case in ERRORS:
        snapshot_error(cli_main, case, args.seed, outdir / "config-errors" / case)
    normalize(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
