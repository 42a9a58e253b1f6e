#!/usr/bin/env python3
"""Snapshot every CLI output on the benchmark configs, for byte-level diffs.

    python3 tools/cli_snapshot.py OUTDIR [--seed S]

Runs ``pqlab.cli.main`` in process, importing ``pqlab`` from the ``src/`` of
the checkout this script sits in, on every config under
``perfbench/configs/`` (read only): ``solve`` on solve-ladder, ``check`` and
``params`` on check-catalog, ``validate`` and ``params`` on validate-sweep.
Each command gets ``OUTDIR/<workload>/<config>/<command>/`` holding
``stdout.txt`` (stdout and stderr), ``exit_code.txt`` and ``out/``, the
report and field files written through ``--out``.  The OUTDIR prefix is
replaced by the word OUTDIR in every file, so snapshots of two checkouts
compare with

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
    normalize(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
