#!/usr/bin/env python3
"""Time fresh ``python -m pqlab check`` runs of two checkouts, side by side.

    python3 tools/fresh_check.py OLD_CHECKOUT NEW_CHECKOUT [--runs 5]

For each config under ``perfbench/configs/check-catalog/`` of the checkout
this script sits in (read only), runs ``python -m pqlab check CONFIG`` in a
fresh interpreter ``--runs`` times per checkout, alternating which checkout
goes first, with ``PYTHONPATH`` set to that checkout's ``src/``.  Prints the
wall-clock min-max and the median maximum resident set size (``ru_maxrss``
from ``os.wait4``) per config and side, and the exit codes seen.

``PYTHONDONTWRITEBYTECODE=1`` keeps the runs from writing ``__pycache__``
into either checkout.  Start-up time depends on whether a checkout already
holds one, so compare two checkouts in the same state (for example two
``git archive`` copies).
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "perfbench" / "configs" / "check-catalog"


def fresh_check(checkout: Path, cfg: Path):
    """One fresh ``pqlab check`` run: (wall s, max RSS MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pqlab", "check", str(cfg)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: keep Popen from waiting again
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout of the parent")
    ap.add_argument("new", type=Path, help="checkout of the change")
    ap.add_argument("--runs", type=int, default=5, help="runs per config and checkout")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sides = (args.old.resolve(), args.new.resolve())
    print(f"{'config':<20} {'old wall s':<13}{'old MB':>7}   {'new wall s':<13}{'new MB':>7}   exit")
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        runs = ([], [])
        for i in range(args.runs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[side].append(fresh_check(sides[side], cfg))
        cells = []
        for side_runs in runs:
            walls = [wall for wall, _, _ in side_runs]
            rss = statistics.median(mb for _, mb, _ in side_runs)
            cells.append(f"{min(walls):.3f}-{max(walls):.3f}  {rss:>7.1f}")
        codes = sorted({code for side_runs in runs for _, _, code in side_runs})
        print(f"{cfg.stem:<20} {cells[0]}   {cells[1]}   {','.join(map(str, codes))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
