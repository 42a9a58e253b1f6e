#!/usr/bin/env python3
"""Time in-process passes of one benchmark workload in two checkouts, alternating.

    python3 tools/pass_ab.py OLD_CHECKOUT NEW_CHECKOUT WORKLOAD [--rounds 10] [--passes 5] [--seed 1]

WORKLOAD is one of ``perfbench/run.py``'s workloads.  Each round starts one
fresh interpreter per checkout, alternating which goes first, with
``PYTHONPATH`` set to that checkout's ``src/``.  The interpreter runs the
workload's ``pqlab`` commands, on the configs under ``perfbench/configs/`` of
the checkout this script sits in (read only), through ``pqlab.cli.main``: one
warm-up pass, then ``--passes`` timed ones.  A pass's time is the sum of its
commands' wall times, as in ``perfbench/run.py``.  A side's value in a round
is the median of its timed passes.

Prints each side's median and quartiles over the rounds, every round's
new/old ratio, and in how many rounds the new checkout was faster.  Round
ratios spread widely on a shared machine, so size a gain with this before
spending full benchmark runs on it.  ``PYTHONDONTWRITEBYTECODE=1`` keeps the
runs from writing ``__pycache__``; compare two checkouts in the same state.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402

# argv: command, passes, seed, config paths; prints pqlab's path, then the pass times
CHILD = r"""
import contextlib, io, json, sys, tempfile, time
import pqlab.cli

command, passes, seed, *configs = sys.argv[1:]
times = []
with tempfile.TemporaryDirectory() as out:
    for _ in range(int(passes) + 1):  # the first pass warms up
        wall = 0.0
        for cfg in configs:
            argv = [command, cfg, "--seed", seed, "--out", out]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                pqlab.cli.main(argv)
                wall += time.perf_counter() - t0
        times.append(wall)
print(pqlab.cli.__file__)
print(json.dumps(times[1:]))
"""


def passes(checkout: Path, command: str, configs, n_passes: int, seed: int) -> float:
    """The median pass wall seconds of one fresh interpreter on ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, command, str(n_passes), str(seed), *map(str, configs)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    if Path(out[0]).resolve().parent != checkout / "src" / "pqlab":
        sys.exit(f"error: imported pqlab from {out[0]}, not from {checkout / 'src'}")
    return statistics.median(json.loads(out[1]))


def spread(values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="checkout of the parent")
    ap.add_argument("new", type=Path, help="checkout of the change")
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--rounds", type=int, default=10, help="fresh interpreters per checkout")
    ap.add_argument("--passes", type=int, default=5, help="timed passes per interpreter")
    ap.add_argument("--seed", type=int, default=1, help="the commands' --seed")
    args = ap.parse_args(argv)
    if args.rounds < 2 or args.passes < 1:
        ap.error("need --rounds >= 2 and --passes >= 1")
    command, cases = WORKLOADS[args.workload]
    configs = [ROOT / "perfbench" / "configs" / args.workload / f"{c}.cfg" for c in cases]
    sides = (args.old.resolve(), args.new.resolve())
    walls = ([], [])
    for i in range(args.rounds):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            walls[side].append(passes(sides[side], command, configs, args.passes, args.seed))
    ratios = [new / old for old, new in zip(*walls)]
    print(f"{args.workload}: {args.rounds} rounds x {args.passes} passes, seed {args.seed}; "
          "pass wall s, median [q1, q3] over rounds")
    print(f"  old {spread(walls[0])}  {sides[0]}")
    print(f"  new {spread(walls[1])}  {sides[1]}")
    print("  new/old per round: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"  ratio {spread(ratios)}; new faster in {sum(r < 1 for r in ratios)} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
