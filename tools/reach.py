#!/usr/bin/env python3
"""List the lines of ``src/pqlab`` that no test and no benchmark command reaches.

    python3 tools/reach.py commands          # about 2 s
    python3 tools/reach.py suite             # 30-45 s (times on 2 vCPUs)
    python3 tools/reach.py commands suite    # the lines neither reaches

``commands`` runs, in process, every command that ``tools/cli_snapshot.py``
snapshots on the benchmark configs (seed 0, outputs in a temporary
directory).  ``suite`` runs the tier-1 pytest suite in process.  Both run
under one ``sys.settrace`` line trace restricted to ``src/pqlab`` of the
checkout this script sits in.  The executable lines of a module are the
line numbers of its code objects (``co_lines``), without the ``def``/``class``
header line each function or class body reports.  For each module the
script prints how many of them nothing reached, then each such line as
``path:line: source``.

Known limits:
- lines run only in a subprocess (the demo and import tests start fresh
  interpreters) count as unreached;
- the trace slows every call about twofold, so the acceptance criteria with
  a one-second runtime budget fail under it: A1 on every run, A7 on some.
  Their lines are still traced; a failed budget changes no count.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pqlab"


def executable_lines(path: Path) -> set:
    """Line numbers that the code objects of the module at ``path`` run."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        header = code.co_firstlineno if code.co_name != "<module>" else None
        lines.update(line for _, _, line in code.co_lines() if line and line != header)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_commands():
    sys.path.insert(0, str(ROOT / "tools"))
    from cli_snapshot import COMMANDS, CONFIGS

    from pqlab.cli import main

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for workload, commands in COMMANDS.items():
            for cfg in sorted((CONFIGS / workload).glob("*.cfg")):
                for command in commands:
                    main([command, str(cfg), "--seed", "0", "--out", out])


def run_suite():
    import pytest

    with contextlib.redirect_stdout(sys.stderr):  # the report alone goes to stdout
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")])
    print(f"pytest exit status {int(status)} under tracing", file=sys.stderr)


SOURCES = {"commands": run_commands, "suite": run_suite}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sources", nargs="+", choices=sorted(SOURCES))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE)
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):  # on each call: trace lines in src/pqlab only
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        for name in dict.fromkeys(args.sources):
            SOURCES[name]()
    finally:
        sys.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in reached)
        source = path.read_text().splitlines()
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(missed)} of {len(lines)} executable lines unreached")
        for line in missed:
            print(f"{rel}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
