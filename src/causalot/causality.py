"""Causality checks for plans and maps.

A plan between discrete measures is causal when, for every target atom a
and every source atom t above it, the conditional probability of landing
at or below a is the same for all source atoms from t upward.  The checks
here enumerate those constraints, measure the worst deviation, and
classify deterministic maps into the two shapes a causal map can have.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteMeasure
from .plans import TransportPlan, evaluate_cost

DEFAULT_PLAN_TOL = 1e-9


@dataclass(frozen=True)
class CausalityViolation:
    target_index: int
    row: int
    deviation: float


@dataclass
class CausalityReport:
    causal: bool
    max_deviation: float
    tolerance: float
    violations: list[CausalityViolation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "causal": self.causal,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "violations": [
                {"j": v.target_index, "k": v.row, "dev": v.deviation}
                for v in self.violations
            ],
        }


def anchor_rows(source: DiscreteMeasure, target: DiscreteMeasure) -> np.ndarray:
    """Index of the first source atom strictly above each target atom, n if none.

    A tie x_k == y_j does not count as above: that source atom has seen
    y_j and may condition on it.  Source atoms from the anchor up have not.
    """
    return np.searchsorted(source.support, target.support, side="right")


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:  # NaN fails too
        raise ValueError("tolerance must be nonnegative")
    if tol == np.inf:  # a report echoes its tolerance, and JSON has no infinity
        raise ValueError("tolerance must be finite")


def check_plan_causal(plan: TransportPlan, tol: float = DEFAULT_PLAN_TOL) -> CausalityReport:
    """Largest disagreement of conditional CDFs against each column's anchor row.

    The anchor of target atom j is the first source atom strictly above it
    (:func:`anchor_rows`); every source atom from the anchor up must share
    its conditional CDF at j.  One gather reads the constrained cells, the
    rows k > anchor_j of each column j listed column by column, and compares
    each with its anchor cell, so the violations come out in (j, then k)
    order.  Columns with fewer than two such rows constrain no cell.
    """
    _check_tolerance(tol)
    cdf = plan.conditional_cdf_matrix()
    anchors = anchor_rows(plan.source, plan.target)
    cols, rows = np.nonzero(np.arange(plan.n) > anchors[:, None])
    gap = np.abs(cdf[rows, cols] - cdf[anchors[cols], cols])
    max_dev = float(gap.max(initial=0.0))
    bad = np.flatnonzero(gap > tol)
    violations = [CausalityViolation(target_index=j, row=k, deviation=d)
                  for j, k, d in zip(cols[bad].tolist(), rows[bad].tolist(),
                                     gap[bad].tolist())]
    return CausalityReport(causal=bool(max_dev <= tol), max_deviation=max_dev,
                           tolerance=tol, violations=violations)


@dataclass
class MapCausalityReport:
    causal: bool
    branch: str | None
    t0: float | None
    offending_mass: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "causal": self.causal,
            "branch": self.branch,
            "t0": self.t0,
            "offending_mass": self.offending_mass,
            "tolerance": self.tolerance,
        }


def check_map_causal(measure: DiscreteMeasure, values,
                     tol: float = 0.0) -> MapCausalityReport:
    """Classify a map as above-diagonal, truncated at a common late value, or neither.

    The first branch accepts maps with T(x) >= x up to mass ``tol``.  The
    second looks for a cut t0 such that T(x) >= x below t0 and T(x) = t0
    above, scanning candidate values from the largest atom downward.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (measure.n,):
        raise ValueError("need one map value per atom")
    if not np.isfinite(values).all():
        raise ValueError("map values must be finite")
    _check_tolerance(tol)
    xs = measure.support
    ws = measure.weights
    below_mass = float(ws[values < xs].sum())
    if below_mass <= tol:
        return MapCausalityReport(causal=True, branch="above-diagonal", t0=None,
                                  offending_mass=below_mass, tolerance=tol)
    best_mass = np.inf
    best_t0 = None
    seen = set()
    for i in range(measure.n - 1, -1, -1):
        c = float(values[i])
        if c in seen:
            continue
        seen.add(c)
        early = (xs <= c) & (values < xs)
        late = (xs > c) & (values != c)
        offending = float(ws[early].sum() + ws[late].sum())
        if offending <= tol:
            return MapCausalityReport(causal=True, branch="truncated", t0=c,
                                      offending_mass=offending, tolerance=tol)
        if offending < best_mass:
            best_mass = offending
            best_t0 = c
    return MapCausalityReport(causal=False, branch=None, t0=best_t0,
                              offending_mass=float(min(below_mass, best_mass)),
                              tolerance=tol)


@dataclass
class MonotonicityWitness:
    pairs: list[tuple[int, int]]
    permutation: tuple[int, ...]
    improvement: float


@dataclass
class MonotonicityReport:
    ok: bool
    worst_violation: float
    subsets_checked: int
    witness: MonotonicityWitness | None = None


def check_cyclical_monotonicity(plan: TransportPlan, costfn, max_subset: int = 3,
                                mass_tol: float = 0.0,
                                slack: float = 1e-9) -> MonotonicityReport:
    """Search support-pair subsets below a common threshold for cheaper reshuffles.

    Only subsets whose source points all sit strictly below every target
    point are eligible.  A permutation of the targets that undercuts the
    identity assignment by more than ``slack`` is a violation.
    """
    if not 2 <= max_subset <= 5:
        raise ValueError("max_subset must lie in [2, 5]")
    pairs = np.argwhere(plan.mass > mass_tol)
    if pairs.size == 0:
        return MonotonicityReport(ok=True, worst_violation=0.0, subsets_checked=0)
    px = plan.source.support[pairs[:, 0]]
    py = plan.target.support[pairs[:, 1]]
    order = np.lexsort((py, px))
    pairs, px, py = pairs[order], px[order], py[order]
    cost = evaluate_cost(costfn, plan.source.support, plan.target.support)

    worst = 0.0
    witness = None
    checked = 0
    chosen: list[int] = []

    def own_cost(idx: int) -> float:
        return cost[pairs[idx, 0], pairs[idx, 1]]

    def explore(start: int, min_y: float):
        nonlocal worst, witness, checked
        for idx in range(start, px.size):
            x = px[idx]
            if x >= min_y:
                break  # later pairs only have larger x
            if x >= py[idx]:
                continue
            chosen.append(idx)
            if len(chosen) >= 2:
                checked += 1
                identity = sum(own_cost(t) for t in chosen)
                rows = pairs[chosen, 0]
                cols = pairs[chosen, 1]
                sub = cost[np.ix_(rows, cols)]
                for perm in itertools.permutations(range(len(chosen))):
                    gain = identity - sum(sub[t, perm[t]] for t in range(len(chosen)))
                    if gain > worst:
                        worst = gain
                        witness = MonotonicityWitness(
                            pairs=[(int(pairs[t, 0]), int(pairs[t, 1])) for t in chosen],
                            permutation=perm, improvement=float(gain))
            if len(chosen) < max_subset:
                explore(idx + 1, min(min_y, py[idx]))
            chosen.pop()

    explore(0, np.inf)
    ok = bool(worst <= slack)
    return MonotonicityReport(ok=ok, worst_violation=float(worst),
                              subsets_checked=checked,
                              witness=witness if not ok else None)
