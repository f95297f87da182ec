"""Spans and counts recorded around calls into the layers of ``causalot``.

The package is not edited.  :func:`install` rebinds public functions in
the module namespaces that call them, so a call made by the package itself
(for example ``causalot.solver`` calling ``check_cyclical_monotonicity``)
goes through a benchmark-owned wrapper that records a span.  Spans live in
memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Work the wrappers do themselves (counting nonzeros, summing
file sizes) is recorded as a ``trace.bookkeeping`` child, so it is not
charged to the layer that called the wrapped function.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Span stack and per-op counters for one worker process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int = -1
        self.captured_problem = None
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add(self, key: str, value: float) -> None:
        self.counts[self.op][key] += value

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(tracer, args, kwargs, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                book = self.open(BOOKKEEPING)
                try:
                    count(self, args, kwargs, result)
                finally:
                    self.close(book)
            return result

        return traced


# ---------- counters, fed by the values the wrapped calls return ----------


def _count_lp(tracer, args, kwargs, problem):
    tracer.captured_problem = problem
    tracer.add("solver.lp_rows", problem.n_rows)
    tracer.add("solver.lp_vars", problem.n_vars)
    tracer.add("solver.lp_nnz", np.count_nonzero(problem.matrix))
    tracer.add("solver.lp_matrix_mb", problem.matrix.nbytes / 1e6)


def _count_simplex(tracer, args, kwargs, solution):
    rows, cols = np.shape(args[0])
    tableau_bytes = (rows + 2) * (cols + 1) * 8  # the dense tableau solve_standard_form allocates
    tracer.add("simplex.calls", 1)
    tracer.add("simplex.optimal", solution.status == "optimal")
    tracer.add("simplex.pivots", solution.iterations)
    tracer.add("simplex.tableau_mb_computed", tableau_bytes / 1e6)
    # Each pivot is a rank-one update that reads and writes the whole tableau.
    tracer.add("simplex.bytes_moved_mb_computed", solution.iterations * tableau_bytes / 1e6)


def _count_mono(tracer, args, kwargs, report):
    plan = args[0]
    mass_tol = kwargs.get("mass_tol", args[3] if len(args) > 3 else 0.0)
    tracer.add("causality.mono_subsets", report.subsets_checked)
    tracer.add("causality.mono_pairs", np.count_nonzero(plan.mass > mass_tol))


def _count_calls(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key, 1)
    return count


def _count_plan(tracer, args, kwargs, plan):
    tracer.add("plans.plan_cells", plan.mass.size)


def _count_axioms(tracer, args, kwargs, report):
    tracer.add("coupling.axiom_cells", len(report.cells))


# (module that makes the call, attribute, span name, counter)
PATCHES = [
    ("causalot.solver", "solve_causal_transport", "solver.solve_causal_transport", None),
    ("causalot.solver", "build_causal_lp", "solver.build_causal_lp", _count_lp),
    ("causalot.solver", "solve", "solver.solve", None),
    ("causalot.solver", "solve_standard_form", "simplex.solve_standard_form", _count_simplex),
    ("causalot.solver", "check_plan_causal", "causality.check_plan_causal",
     _count_calls("causality.check_plan_causal_calls")),
    ("causalot.solver", "check_cyclical_monotonicity",
     "causality.check_cyclical_monotonicity", _count_mono),
    ("causalot.measures", "discretize", "measures.discretize",
     _count_calls("measures.discretize_calls")),
    ("causalot.plans", "discretize", "measures.discretize",
     _count_calls("measures.discretize_calls")),
    ("causalot.cli", "main", "cli.main", None),
    ("causalot.cli", "check_plan_causal", "causality.check_plan_causal",
     _count_calls("causality.check_plan_causal_calls")),
    ("causalot.cli", "independent_sum_plan", "plans.independent_sum_plan", _count_plan),
    ("causalot.cli", "product_plan", "plans.product_plan", _count_plan),
    ("causalot.cli", "mix_plans", "plans.mix_plans", _count_plan),
    ("causalot.cli", "conditional_cdf_grid", "plans.conditional_cdf_grid", None),
    ("causalot.coupling", "simulate", "coupling.simulate", None),
    ("causalot.coupling", "verify_axioms", "coupling.verify_axioms", _count_axioms),
]


def install(tracer: Tracer):
    """Rebind every patched name to a traced wrapper; returns an undo list."""
    undo = []
    for module_name, attr, span_name, count in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, tracer.wrap(span_name, original, count))
        undo.append((module, attr, original))
    return undo


def uninstall(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


# ---------- reduction to per-layer metrics ----------

# Per-layer time metric -> span whose self time it sums.
SELF_TIME = {
    "simplex.solve_standard_form_s": "simplex.solve_standard_form",
    "solver.build_causal_lp_s": "solver.build_causal_lp",
    "solver.solve_s": "solver.solve",
    "solver.solve_causal_transport_self_s": "solver.solve_causal_transport",
    "solver.certify_s": "solver.certify",
    "causality.check_cyclical_monotonicity_s": "causality.check_cyclical_monotonicity",
    "causality.check_plan_causal_s": "causality.check_plan_causal",
    "plans.independent_sum_plan_s": "plans.independent_sum_plan",
    "plans.mix_plans_s": "plans.mix_plans",
    "plans.product_plan_s": "plans.product_plan",
    "plans.conditional_cdf_grid_s": "plans.conditional_cdf_grid",
    "coupling.simulate_s": "coupling.simulate",
    "coupling.verify_axioms_s": "coupling.verify_axioms",
    "cli.self_s": "cli.main",
    "measures.discretize_s": "measures.discretize",
}

# Per-layer count metric, summed within an op and averaged over ops.
COUNTS = [
    "simplex.pivots", "simplex.tableau_mb_computed", "simplex.bytes_moved_mb_computed",
    "solver.lp_rows", "solver.lp_vars", "solver.lp_nnz", "solver.lp_matrix_mb",
    "causality.mono_subsets", "causality.mono_pairs", "causality.check_plan_causal_calls",
    "plans.plan_cells", "coupling.axiom_cells", "cli.bytes_written",
    "measures.discretize_calls",
]


def self_times(spans: list[Span]) -> tuple[dict[int, float], list[str]]:
    """Self time per span id, and every span whose children overrun it."""
    child_total: dict[int, float] = defaultdict(float)
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is not None:
            parent = by_id[s.parent]
            if s.start < parent.start or s.end > parent.end:
                problems.append(f"span {s.id} {s.name} lies outside its parent {parent.name}")
            child_total[s.parent] += s.end - s.start
    own = {}
    for s in spans:
        own[s.id] = (s.end - s.start) - child_total[s.id]
        if own[s.id] < -1e-9:
            problems.append(f"children of span {s.id} {s.name} exceed its duration")
    return own, problems


def layer_metrics(tracer: Tracer, traced_ops) -> tuple[dict, dict, list[str]]:
    """Per-op means of self times and counts over ``traced_ops``, plus ratios.

    Returns the metrics, the base of each ratio, and any span-nesting problem.
    """
    own, problems = self_times(tracer.spans)
    ops = set(traced_ops)
    n = max(len(ops), 1)
    per_name: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        if s.op in ops:
            per_name[s.name] += own[s.id]
    totals: dict[str, float] = defaultdict(float)
    for op in ops:
        for key, value in tracer.counts[op].items():
            totals[key] += value
    metrics = {metric: per_name[span] / n for metric, span in SELF_TIME.items()}
    metrics.update({key: totals[key] / n for key in COUNTS})
    metrics["simplex.optimal_ratio"] = _ratio(totals["simplex.optimal"], totals["simplex.calls"])
    metrics["solver.certify_ok_ratio"] = _ratio(totals["solver.certify_ok"],
                                                totals["solver.certify_calls"])
    metrics["cli.write_mb_per_s"] = _ratio(totals["cli.bytes_written"] / 1e6,
                                           per_name["cli.main"])
    bases = {"simplex.optimal_ratio": totals["simplex.calls"],
             "solver.certify_ok_ratio": totals["solver.certify_calls"],
             "cli.write_mb_per_s": per_name["cli.main"]}
    return metrics, bases, problems


def _ratio(num: float, den: float) -> float:
    """A ratio with no base reads 0; the printed table shows the base."""
    return num / den if den > 0 else 0.0
