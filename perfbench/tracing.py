"""Spans around the calls into each pqlab module, recorded from outside the package.

`Tracer.install()` rebinds the public functions in every ``pqlab`` module
namespace that holds them (so ``pqlab.cli``, ``pqlab.config``,
``pqlab.validator`` and ``pqlab.growth`` all call the traced version) and
wraps the integrand, expression and quadrature methods on their classes.
`Tracer.uninstall()` puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, case, attrs]`` lists; `layer_metrics` turns one
pass worth of them into the per-layer figures.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# (defining module, function) -> span name
FUNCTIONS = {
    ("pqlab.config", "load_config"): "config.load_config",
    ("pqlab.config", "build_family"): "config.build_family",
    ("pqlab.config", "resolve_schedule"): "config.resolve_schedule",
    ("pqlab.exponents", "select_mu_nu"): "exponents.select_mu_nu",
    ("pqlab.exponents", "moser_exponents"): "exponents.moser_exponents",
    ("pqlab.growth", "paper_triple"): "growth.paper_triple",
    ("pqlab.growth", "check_ellipticity_sandwich"): "growth.check_ellipticity_sandwich",
    ("pqlab.growth", "check_growth_A"): "growth.check_growth_A",
    ("pqlab.growth", "check_11M"): "growth.check_11M",
    ("pqlab.growth", "check_12M"): "growth.check_12M",
    ("pqlab.growth", "check_A3"): "growth.check_A3",
    ("pqlab.solver", "minimize"): "solver.minimize",
    ("pqlab.solver", "field_stats"): "solver.field_stats",
    ("pqlab.solver", "save_field"): "solver.save_field",
    ("pqlab.validator", "measure"): "validator.measure",
    ("pqlab.validator", "sweep_amplitudes"): "validator.sweep_amplitudes",
    ("pqlab.validator", "radius_sweep"): "validator.radius_sweep",
}

FAMILY_METHODS = (
    "value", "grad", "value_smoothed", "grad_smoothed", "log_value", "grad_coeff_over_f", "hess_qf",
)

MODULES = (
    "pqlab", "pqlab.cli", "pqlab.config", "pqlab.exponents", "pqlab.expressions",
    "pqlab.growth", "pqlab.integrand", "pqlab.solver", "pqlab.validator",
)

# one of these per objective evaluation: the gradient kernel of the path taken
OBJECTIVE_KERNELS = {"integrand.grad", "integrand.grad_smoothed", "integrand.grad_coeff_over_f"}


def _minimize_attrs(args, kwargs, out):
    grid = kwargs.get("grid", args[0] if args else None)
    trace = out[1]
    return {
        "n": grid.n,
        "iterations": trace.iterations,
        "stages": trace.stages,
        "stalled": any("stalled" in w for w in trace.warnings),
    }


def _kernel_attrs(args, kwargs, out):
    return {"cells": int(np.size(args[3]))}  # (self, x, y, gx, ...)


def _check_attrs(args, kwargs, out):
    return {"verdict": out.verdict}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.case = None
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def _rebind(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        modules = [importlib.import_module(m) for m in MODULES]
        for (mod_name, fn_name), span in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), fn_name)
            attrs = (_minimize_attrs if span == "solver.minimize"
                     else _check_attrs if span.startswith("growth.check_") else None)
            traced = self.wrap(span, original, attrs)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, attr, traced)

        from pqlab import expressions, growth, integrand

        for cls in vars(integrand).values():
            if isinstance(cls, type) and issubclass(cls, integrand.IntegrandFamily):
                for meth in FAMILY_METHODS:
                    if meth in cls.__dict__:
                        traced = self.wrap(f"integrand.{meth}", cls.__dict__[meth], _kernel_attrs)
                        self._rebind(cls, meth, traced)
        self._rebind(
            expressions.Expression, "__call__",
            self.wrap("expressions.eval", expressions.Expression.__call__),
        )
        self._rebind(
            growth.GrowthTriple, "sqrt_g1_quadrature",
            self.wrap("growth.quad", growth.GrowthTriple.sqrt_g1_quadrature),
        )

    def uninstall(self):
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


# per-layer metric -> unit, better
PER_LAYER = {
    "solver.iterations": ("count", "lower"),
    "solver.objective_evals": ("count", "lower"),
    "solver.evals_per_iter": ("evals/iter", "lower"),
    "solver.stages": ("count", "lower"),
    "solver.stalls": ("count", "lower"),
    "solver.minimize_s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.cells_evaluated": ("count", "lower"),
    "solver.save_field_s": ("s", "lower"),
    "solver.field_stats_s": ("s", "lower"),
    "solver.oracle_max_err": ("1", "lower"),
    "integrand.value_calls": ("count", "lower"),
    "integrand.value_s": ("s", "lower"),
    "integrand.grad_calls": ("count", "lower"),
    "integrand.grad_s": ("s", "lower"),
    "integrand.log_domain_s": ("s", "lower"),
    "integrand.smoothed_s": ("s", "lower"),
    "integrand.hess_qf_s": ("s", "lower"),
    "integrand.cells_per_s": ("cells/s", "higher"),
    "expressions.eval_calls": ("count", "lower"),
    "expressions.eval_s": ("s", "lower"),
    "growth.paper_triple_s": ("s", "lower"),
    "growth.sandwich_s": ("s", "lower"),
    "growth.growthA_s": ("s", "lower"),
    "growth.11M_s": ("s", "lower"),
    "growth.12M_s": ("s", "lower"),
    "growth.A3_s": ("s", "lower"),
    "growth.quad_calls": ("count", "lower"),
    "growth.quad_s": ("s", "lower"),
    "growth.rows_failed": ("count", "lower"),
    "validator.solves": ("count", "lower"),
    "validator.iterations": ("count", "lower"),
    "validator.solve_s": ("s", "lower"),
    "validator.measure_s": ("s", "lower"),
    "validator.self_s": ("s", "lower"),
    "config.build_s": ("s", "lower"),
    "exponents.schedule_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# time metrics: span names whose inclusive (True) or self (False) time they sum
_TIMES = {
    "solver.minimize_s": (("solver.minimize",), True),
    "solver.self_s": (("solver.minimize",), False),
    "solver.save_field_s": (("solver.save_field",), True),
    "solver.field_stats_s": (("solver.field_stats",), True),
    "integrand.value_s": (("integrand.value",), False),
    "integrand.grad_s": (("integrand.grad",), False),
    "integrand.log_domain_s": (("integrand.log_value", "integrand.grad_coeff_over_f"), False),
    "integrand.smoothed_s": (("integrand.value_smoothed", "integrand.grad_smoothed"), False),
    "integrand.hess_qf_s": (("integrand.hess_qf",), False),
    "expressions.eval_s": (("expressions.eval",), False),
    "growth.paper_triple_s": (("growth.paper_triple",), True),
    "growth.sandwich_s": (("growth.check_ellipticity_sandwich",), True),
    "growth.growthA_s": (("growth.check_growth_A",), True),
    "growth.11M_s": (("growth.check_11M",), True),
    "growth.12M_s": (("growth.check_12M",), True),
    "growth.A3_s": (("growth.check_A3",), True),
    "growth.quad_s": (("growth.quad",), True),
    "validator.measure_s": (("validator.measure",), True),
    "validator.self_s": (("validator.sweep_amplitudes", "validator.radius_sweep"), False),
    "config.build_s": (("config.load_config", "config.build_family"), True),
    "exponents.schedule_s": (("config.resolve_schedule",), True),
    "cli.self_s": (("cli.main",), False),
}


def layer_metrics(spans, command, solve_cases):
    """Per-layer figures of one pass; ``solve_cases`` get their own iteration counts."""
    own = self_times(spans)
    incl = defaultdict(float)
    excl = defaultdict(float)
    calls = defaultdict(int)
    for s, t in zip(spans, own):
        incl[s[0]] += s[2] - s[1]
        excl[s[0]] += t
        calls[s[0]] += 1

    m = {name: sum((incl if inclusive else excl)[n] for n in names)
         for name, (names, inclusive) in _TIMES.items()}

    minimizes = {i: s for i, s in enumerate(spans) if s[0] == "solver.minimize"}
    evals = defaultdict(int)
    for s in spans:
        if s[0] in OBJECTIVE_KERNELS and s[3] in minimizes:
            evals[s[3]] += 1
    iterations = sum(s[5]["iterations"] for s in minimizes.values())
    m["solver.iterations"] = iterations
    for case in solve_cases:
        m[f"solver.iterations.{case}"] = sum(
            s[5]["iterations"] for s in minimizes.values() if s[4] == case
        )
    m["solver.objective_evals"] = sum(evals.values())
    m["solver.evals_per_iter"] = m["solver.objective_evals"] / iterations if iterations else 0.0
    m["solver.stages"] = sum(s[5]["stages"] for s in minimizes.values())
    m["solver.stalls"] = sum(s[5]["stalled"] for s in minimizes.values())
    m["solver.cells_evaluated"] = sum(
        k * (minimizes[i][5]["n"] - 1) ** 2 for i, k in evals.items()
    )

    kernels = [i for i, s in enumerate(spans) if s[0].startswith("integrand.")]
    kernel_s = sum(own[i] for i in kernels)
    cells = sum(spans[i][5]["cells"] for i in kernels)
    m["integrand.value_calls"] = calls["integrand.value"]
    m["integrand.grad_calls"] = calls["integrand.grad"]
    m["integrand.cells_per_s"] = cells / kernel_s if kernel_s > 0 else 0.0
    m["expressions.eval_calls"] = calls["expressions.eval"]

    m["growth.quad_calls"] = calls["growth.quad"]
    m["growth.rows_failed"] = sum(
        1 for s in spans if s[0].startswith("growth.check_") and s[5]["verdict"] != "pass"
    )

    validating = command == "validate"
    m["validator.solves"] = len(minimizes) if validating else 0
    m["validator.iterations"] = iterations if validating else 0
    m["validator.solve_s"] = incl["solver.minimize"] if validating else 0.0

    m["trace.self_sum_s"] = sum(own)
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
