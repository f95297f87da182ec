"""Monte Carlo couplings built from a waiting time and a nonnegative delay.

The coupled variable is Y = X + Z while X comes in at or before the
waiting time tau, and Y = tau once X comes in later.  The waiting time
may be an independent draw, equal to X itself, or never binding; the
latter is stored as +inf and only ever compared, never added.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .causality import check_plan_causal
from .measures import Family, draw
from .plans import TransportPlan, evaluate_cost

TAU_EQUAL_TO_X = "equal-to-x"
TAU_NEVER = "plus-infinity"


@dataclass(frozen=True)
class CouplingSpec:
    """Recipe for a simulated coupling: laws for X and Z, a waiting-time mode."""

    x: Family
    tau: Family | str
    z: Family
    samples: int
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.tau, str) and self.tau not in (TAU_EQUAL_TO_X, TAU_NEVER):
            raise ValueError(f"unknown waiting-time mode {self.tau!r}")
        if self.z.support_lower < 0:
            raise ValueError("the delay law must live on [0, inf)")
        if self.samples < 1:
            raise ValueError("samples must be positive")


class CouplingSample:
    """Aligned draws (X, tau, Z, Y) satisfying the defining identity exactly."""

    def __init__(self, x, tau, z, y):
        x = np.asarray(x, dtype=float)
        tau = np.asarray(tau, dtype=float)
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (x.shape == tau.shape == z.shape == y.shape) or x.ndim != 1:
            raise ValueError("all four draws must be 1-d arrays of equal length")
        if np.any(z < 0):
            raise ValueError("delays must be nonnegative")
        expected = np.where(x <= tau, x + z, tau)
        if not np.array_equal(y, expected):
            raise ValueError("y must equal (x + z) when x <= tau and tau otherwise")
        self.x = x
        self.tau = tau
        self.z = z
        self.y = y

    @property
    def n(self) -> int:
        return self.x.size


def simulate(spec: CouplingSpec) -> CouplingSample:
    """Draw a coupling; one seed stream each for X, tau, and Z, in that order."""
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(spec.seed).spawn(3)]
    x = draw(spec.x, spec.samples, streams[0])
    if spec.tau == TAU_EQUAL_TO_X:
        tau = x.copy()
    elif spec.tau == TAU_NEVER:
        tau = np.full(spec.samples, np.inf)
    else:
        tau = draw(spec.tau, spec.samples, streams[1])
    z = draw(spec.z, spec.samples, streams[2])
    y = np.where(x <= tau, x + z, tau)
    return CouplingSample(x, tau, z, y)


def coupling_from_plan(plan: TransportPlan, samples: int, seed: int,
                       tol: float = 1e-9) -> CouplingSample:
    """Canonical coupling of a causal plan: tau = min(X, Y), Z the in-time delay.

    Draws (X, Y) from the plan itself; refuses plans that fail the
    causality check at ``tol``, since the construction is only valid there.
    """
    report = check_plan_causal(plan, tol=tol)
    if not report.causal:
        raise ValueError(
            f"plan is not causal (deviation {report.max_deviation:g} > {tol:g})")
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    probs = plan.mass.ravel()
    probs = probs / probs.sum()
    flat = rng.choice(probs.size, size=samples, p=probs)
    x = plan.source.support[flat // plan.m]
    y_drawn = plan.target.support[flat % plan.m]
    tau = np.minimum(x, y_drawn)
    in_time = x <= tau
    z = np.where(in_time, y_drawn - x, 0.0)
    y = np.where(in_time, x + z, tau)
    return CouplingSample(x, tau, z, y)


@dataclass(frozen=True)
class IndependenceCell:
    """One tested rectangle: waiting time in [a_lo, a_hi), arrival in [b_lo, b_hi)."""

    t: float
    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float
    deviation: float
    threshold: float


@dataclass
class AxiomReport:
    delay_ok: bool
    independence_ok: bool
    max_deviation: float
    cells: list[IndependenceCell]
    skipped: list[float]
    confidence: float

    @property
    def passed(self) -> bool:
        return self.delay_ok and self.independence_ok

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "delay_ok": self.delay_ok,
            "independence_ok": self.independence_ok,
            "max_deviation": self.max_deviation,
            "confidence": self.confidence,
            "skipped": self.skipped,
            "cells": [{key: _strict(value) for key, value in vars(c).items()}
                      for c in self.cells],
        }


def _strict(value: float):
    """``value``, or "inf", "-inf" or "nan" when it is not finite, so JSON stays strict."""
    return value if np.isfinite(value) else str(value)


def verify_axioms(sample: CouplingSample, t_grid=None, cell_count: int = 4,
                  confidence: float = 0.999, min_conditional: int = 50) -> AxiomReport:
    """Empirical check of the two coupling axioms.

    Delays must be nonnegative outright.  For each threshold t (default:
    the empirical deciles of X), conditionally on X >= t the waiting time
    restricted below t must be independent of X; both axes are cut into
    quantile cells and every joint cell probability is compared with the
    product of its marginals.  Cell tolerances are normal-approximation
    bounds at the requested confidence with a union bound over all cells;
    thresholds with fewer than ``min_conditional`` points are skipped.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if cell_count < 1:
        raise ValueError("cell_count must be positive")
    delay_ok = bool(np.all(sample.z >= 0))
    if t_grid is None:
        t_grid = np.quantile(sample.x, np.arange(1, 10) / 10.0)
    t_grid = np.asarray(t_grid, dtype=float)

    raw: list[tuple[float, float, float, float, float, float]] = []
    skipped: list[float] = []
    counts: list[int] = []
    for t in t_grid:
        mask = sample.x >= t
        n_t = int(mask.sum())
        if n_t < min_conditional:
            skipped.append(float(t))
            continue
        tau_c = sample.tau[mask]
        x_c = sample.x[mask]
        a_edges = _quantile_edges(tau_c[tau_c < t], cell_count)
        if a_edges is None:
            continue  # the waiting time never lands below t; nothing to test
        b_edges = _quantile_edges(x_c, cell_count)
        a_idx = np.searchsorted(a_edges, tau_c, side="right")
        a_idx = np.where(tau_c < t, a_idx, -1)  # only cells below t count
        b_idx = np.searchsorted(b_edges, x_c, side="right")
        n_a = a_edges.size + 1
        n_b = b_edges.size + 1
        valid = a_idx >= 0
        joint = np.bincount(a_idx[valid] * n_b + b_idx[valid],
                            minlength=n_a * n_b).reshape(n_a, n_b) / n_t
        p_a = joint.sum(axis=1)
        p_b = np.bincount(b_idx, minlength=n_b) / n_t
        dev = np.abs(joint - p_a[:, None] * p_b[None, :])
        a_bounds = np.concatenate(([-np.inf], a_edges, [t]))
        b_bounds = np.concatenate(([t], b_edges, [np.inf]))
        for ai in range(n_a):
            for bi in range(n_b):
                raw.append((float(t), float(a_bounds[ai]), float(a_bounds[ai + 1]),
                            float(b_bounds[bi]), float(b_bounds[bi + 1]),
                            float(dev[ai, bi])))
                counts.append(n_t)

    cells: list[IndependenceCell] = []
    max_dev = 0.0
    independence_ok = True
    if raw:
        z = special.ndtri(1.0 - (1.0 - confidence) / (2.0 * len(raw)))
        for (t, a_lo, a_hi, b_lo, b_hi, dev), n_t in zip(raw, counts):
            threshold = z * np.sqrt(1.0 / (4.0 * n_t))
            cells.append(IndependenceCell(t, a_lo, a_hi, b_lo, b_hi, dev, threshold))
            max_dev = max(max_dev, dev)
            if dev > threshold:
                independence_ok = False
    return AxiomReport(delay_ok=delay_ok, independence_ok=independence_ok,
                       max_deviation=max_dev, cells=cells, skipped=skipped,
                       confidence=confidence)


def _quantile_edges(values: np.ndarray, cell_count: int) -> np.ndarray | None:
    """Interior quantile edges splitting ``values`` into up to cell_count cells."""
    if values.size == 0:
        return None
    edges = np.unique(np.quantile(values, np.arange(1, cell_count) / cell_count))
    return edges


def empirical_cost(sample: CouplingSample, costfn) -> float:
    """Average cost c(X, Y) over the draws."""
    c = np.asarray(costfn(sample.x, sample.y), dtype=float)
    if np.any(c < 0):
        raise ValueError("cost values must be nonnegative")
    return float(c.mean())
