"""Transport plans between discrete measures on the real line.

A plan is an n-by-m nonnegative matrix whose row sums are the source
weights and whose column sums are the target weights.  Disintegrating the
rows gives a Markov kernel; the conditional CDFs of that kernel are what
the causality checks look at.

The deterministic, shifted-sum and mixture constructors build their plans
by one scatter of (source row, target coordinate, mass) cells.
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .measures import SUPPORT_DECIMALS, DiscreteMeasure, Family, discretize

_MARGINAL_TOL = 1e-9
_MASS_FLOOR = -1e-12


def _round_support(values) -> np.ndarray:
    return np.round(np.asarray(values, dtype=float), SUPPORT_DECIMALS)


class TransportPlan:
    """Coupling of two discrete measures, stored as a dense mass matrix."""

    def __init__(self, source: DiscreteMeasure, target: DiscreteMeasure, mass):
        mass = np.array(mass, dtype=float)
        if mass.shape != (source.n, target.n):
            raise ValueError(
                f"mass must have shape {(source.n, target.n)}, got {mass.shape}")
        if not mass.min(initial=0.0) >= _MASS_FLOOR:  # NaN fails too
            raise ValueError("mass entries must be nonnegative numbers")
        mass[mass < 0.0] = 0.0
        row_err = np.abs(mass.sum(axis=1) - source.weights).max()
        col_err = np.abs(mass.sum(axis=0) - target.weights).max()
        if row_err > _MARGINAL_TOL:
            raise ValueError(f"row sums deviate from source weights by {row_err:g}")
        if col_err > _MARGINAL_TOL:
            raise ValueError(f"column sums deviate from target weights by {col_err:g}")
        mass.flags.writeable = False
        self.source = source
        self.target = target
        self.mass = mass
        self._cond_cdf = None

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def m(self) -> int:
        return self.target.n

    def conditional_cdf_matrix(self) -> np.ndarray:
        """Matrix F with F[i, j] = P(Y <= y_j | X = x_i)."""
        if self._cond_cdf is None:
            self._cond_cdf = np.cumsum(self.mass, axis=1)
            self._cond_cdf /= self.source.weights[:, None]
        return self._cond_cdf

    def cost(self, costfn) -> float:
        """Total transport cost under a nonnegative cost function or matrix."""
        c = evaluate_cost(costfn, self.source.support, self.target.support)
        return float(np.sum(c * self.mass))

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "mass": self.mass.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TransportPlan":
        try:
            source = DiscreteMeasure.from_dict(data["source"])
            target = DiscreteMeasure.from_dict(data["target"])
            mass = data["mass"]
        except KeyError as exc:
            raise ValueError(f"plan data is missing field {exc}") from exc
        return cls(source, target, mass)

    def __repr__(self) -> str:
        return f"TransportPlan(n={self.n}, m={self.m})"


COST_FUNCTIONS = {
    "abs": lambda x, y: np.abs(x - y),
    "square": lambda x, y: (x - y) ** 2,
}


def evaluate_cost(costfn, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Cost matrix on a support grid from a name, a callable c(x, y), or a matrix."""
    if isinstance(costfn, str):
        try:
            costfn = COST_FUNCTIONS[costfn]
        except KeyError:
            raise ValueError(f"unknown cost name {costfn!r}") from None
    if callable(costfn):
        c = np.asarray(costfn(xs[:, None], ys[None, :]), dtype=float)
    else:
        c = np.asarray(costfn, dtype=float)
    if c.shape != (xs.size, ys.size):
        raise ValueError(f"cost must have shape {(xs.size, ys.size)}, got {c.shape}")
    if not np.all(np.isfinite(c) & (c >= 0)):
        raise ValueError("cost values must be finite and nonnegative")
    return c


# ---------- constructors ----------


def product_plan(source: DiscreteMeasure, target: DiscreteMeasure) -> TransportPlan:
    """Independent coupling: every row is the target law."""
    return TransportPlan(source, target, np.outer(source.weights, target.weights))


def deterministic_plan(source: DiscreteMeasure, values) -> TransportPlan:
    """Plan concentrated on the graph of a map given by its values on the support."""
    values = np.asarray(values, dtype=float)
    if values.shape != (source.n,):
        raise ValueError("need one map value per source atom")
    return _plan_from_cells(source, np.arange(source.n), values, source.weights)


def mix_plans(components: list[tuple[float, TransportPlan]]) -> TransportPlan:
    """Convex mixture of plans sharing one source measure.

    Weights must be positive and sum to 1.  Target supports are aligned by
    exact matching after rounding coordinates to 12 decimals.
    """
    if not components:
        raise ValueError("need at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights <= 0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, not 1")
    base = components[0][1].source
    base_support = _round_support(base.support)
    cells = []
    for w, plan in components:
        if not np.array_equal(_round_support(plan.source.support), base_support):
            raise ValueError("components must share the source support")
        if np.abs(plan.source.weights - base.weights).max() > 1e-12:
            raise ValueError("components must share the source weights")
        # Row 0 keeps its zero cells: every target atom joins the union, and
        # one that no component gives mass fails as a zero-weight atom.
        keep = plan.mass > 0.0
        keep[0] = True
        rows, cols = np.nonzero(keep)
        cells.append((rows, plan.target.support[cols], w * plan.mass[rows, cols]))
    return _plan_from_cells(base, *(np.concatenate(c) for c in zip(*cells)))


def independent_sum_plan(source_spec: Family, increment_spec: Family,
                         n: int, m: int) -> TransportPlan:
    """Plan of (X, X + W) for W independent of X and nonnegative.

    Both laws are discretized on quantile grids; the target support is the
    set of sums x_i + w_l with the induced weights.
    """
    if increment_spec.support_lower < 0:
        raise ValueError("the increment law must live on [0, inf)")
    src = discretize(source_spec, n)
    inc = discretize(increment_spec, m)
    return _plan_from_cells(src, np.repeat(np.arange(src.n), inc.n),
                            (src.support[:, None] + inc.support[None, :]).ravel(),
                            (src.weights[:, None] * inc.weights[None, :]).ravel())


def _plan_from_cells(source: DiscreteMeasure, rows, coords, mass) -> TransportPlan:
    """Plan with mass[t] at (rows[t], coords[t]), equal rounded coordinates merged.

    Each cell sums its masses in input order; the target takes the column sums.
    """
    union, cols = np.unique(_round_support(coords), return_inverse=True)
    mass = np.bincount(rows * union.size + cols, weights=mass,
                       minlength=source.n * union.size).reshape(source.n, union.size)
    return TransportPlan(source, DiscreteMeasure(union, mass.sum(axis=0)), mass)


# ---------- closed forms and grid emission ----------


def brownian_passage_conditional_cdf(lower_level: float, upper_level: float, x, y):
    """Conditional CDF of the passage time to the upper level given the one to the lower.

    For standard Brownian motion from 0 and levels 0 < lower < upper, the
    value at (x, y) is 1 - erf((upper - lower) / sqrt(2 (y - x))) when
    y > x and 0 otherwise.
    """
    if not 0 < lower_level < upper_level:
        raise ValueError("need 0 < lower_level < upper_level")
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    safe = np.where(d > 0, d, 1.0)
    out = np.where(d > 0,
                   1.0 - special.erf((upper_level - lower_level) / np.sqrt(2.0 * safe)),
                   0.0)
    return float(out) if out.ndim == 0 else out


def conditional_cdf_grid(plan: TransportPlan, xs, ys) -> np.ndarray:
    """Rows (x, y, F(x, y)) over a rectangular grid, x-major.

    Each x is evaluated at its nearest source atom (ties resolve to the
    lower atom), so the grid may extend beyond the discrete support.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size == 0 or ys.size == 0:
        raise ValueError("xs and ys must be nonempty 1-d arrays")
    sup = plan.source.support
    mids = 0.5 * (sup[:-1] + sup[1:])
    rows = np.searchsorted(mids, xs)
    cols = np.searchsorted(plan.target.support, ys, side="right")
    # Column c - 1 holds F at the largest target atom <= y; below them all F is 0.
    values = plan.conditional_cdf_matrix()[np.ix_(rows, cols - 1)]
    values[:, cols == 0] = 0.0
    out = np.empty((xs.size * ys.size, 3))
    out[:, 0] = np.repeat(xs, ys.size)
    out[:, 1] = np.tile(ys, xs.size)
    out[:, 2] = values.ravel()
    return out
