#!/usr/bin/env python3
"""Summarize benchmark records and check that the deterministic counts repeat.

    python3 perfbench/summarize.py .perfbench_out/*-trace*.json [--write baseline.json]

For each workload and mode (untraced, traced) it prints every metric's
median, quartiles and spread (quartile distance over median) across the
records given, the failures named, and whether the deterministic counts
(iterations per solve, objective evaluations, quadrature calls, the oracle
gap) are identical across records.  Counts are compared only between records
with the same BLAS thread count, because the solver's bits depend on it.
Exits 1 when a count differs.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def summarize(records):
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    out, mismatches = {}, []
    for (workload, trace), rs in sorted(groups.items()):
        metrics = {}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {"unit": rs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        by_threads = defaultdict(list)
        for r in rs:
            by_threads[r["environment"]["blas_threads"]].append(r)
        for threads, same in by_threads.items():
            for r in same[1:]:
                if r["counts"] != same[0]["counts"]:
                    mismatches.append(f"{workload} trace {trace}: counts of seed {r['seed']} differ "
                                      f"from seed {same[0]['seed']} at {threads} BLAS threads")
        out[f"{workload}/trace{trace}"] = {
            "runs": len(rs),
            "seeds": [r["seed"] for r in rs],
            "environment": rs[0]["environment"],
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "failures": sorted({f for r in rs for f in r["failures"]}),
            "problems": sorted({p for r in rs for p in r["problems"]}),
            "counts": rs[0]["counts"],
            "metrics": metrics,
        }
    return out, mismatches


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="+")
    ap.add_argument("--write", help="also write the summary as JSON to this file")
    args = ap.parse_args(argv)
    records = []
    for path in args.records:
        with open(path) as fh:
            records.append(json.load(fh))
    summary, mismatches = summarize(records)
    for key, s in summary.items():
        print(f"{key}: {s['runs']} runs, {s['failed']}/{s['attempted']} commands failed")
        for name, m in s["metrics"].items():
            print(f"  {name:<34} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.4f} {m['unit']}")
        for f in s["failures"]:
            print(f"  FAILED {f}")
        for p in s["problems"]:
            print(f"  INCORRECT {p}")
    for m in mismatches:
        print(f"COUNTS DIFFER: {m}")
    if not mismatches:
        print("deterministic counts repeat exactly")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"summary": summary, "count_mismatches": mismatches}, fh, indent=1)
            fh.write("\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
