"""Finite measures on the real line and the continuous families they discretize.

The discrete side is a plain (support, weights) pair with a strictly
increasing support.  The continuous side is a small set of parametric
families, each exposing ``cdf``, ``quantile`` and ``mean`` so that
discretization and inverse-CDF sampling can be written once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Atom coordinates are rounded to this many decimals whenever two grids have
# to be matched exactly (mixtures, shifted sums).
SUPPORT_DECIMALS = 12

_WEIGHT_SUM_EXACT = 1e-12
_WEIGHT_SUM_FIXABLE = 1e-9


def merge_atoms(support, weights):
    """Canonicalize an atom list: round, sort, merge duplicates, drop zeros.

    Coordinates are rounded to ``SUPPORT_DECIMALS`` decimals; weights of
    coinciding atoms are added.  Returns plain arrays, no normalization.
    """
    support = np.round(np.asarray(support, dtype=float), SUPPORT_DECIMALS)
    weights = np.asarray(weights, dtype=float)
    if support.shape != weights.shape or support.ndim != 1:
        raise ValueError("support and weights must be 1-d arrays of equal length")
    uniq, inverse = np.unique(support, return_inverse=True)
    merged = np.bincount(inverse, weights)
    keep = merged > 0.0
    return uniq[keep], merged[keep]


class DiscreteMeasure:
    """Probability measure with finitely many atoms.

    The support must be strictly increasing and every weight positive.
    Weight sums within 1e-12 of one are accepted as-is, within 1e-9 they
    are renormalized, anything further off is rejected.
    """

    def __init__(self, support, weights):
        support = np.ascontiguousarray(support, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=float)
        if support.ndim != 1 or weights.ndim != 1:
            raise ValueError("support and weights must be 1-d")
        if support.size != weights.size:
            raise ValueError("support and weights must have equal length")
        if support.size == 0:
            raise ValueError("a measure needs at least one atom")
        if not np.all(np.isfinite(support)):
            raise ValueError("support must be finite")
        if support.size > 1 and not np.all(np.diff(support) > 0):
            raise ValueError("support must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) <= _WEIGHT_SUM_EXACT:
            pass
        elif abs(total - 1.0) <= _WEIGHT_SUM_FIXABLE:
            weights = weights / total
        else:
            raise ValueError(f"weights sum to {total!r}, not 1")
        support.flags.writeable = False
        weights.flags.writeable = False
        self.support = support
        self.weights = weights
        self._cum = np.cumsum(weights)

    @property
    def n(self) -> int:
        return self.support.size

    def cdf(self, a):
        """P(X <= a); accepts a scalar or an array."""
        idx = np.searchsorted(self.support, np.asarray(a, dtype=float), side="right")
        cum = np.concatenate(([0.0], self._cum))
        out = cum[idx]
        return float(out) if np.isscalar(a) or np.ndim(a) == 0 else out

    def quantile(self, p):
        """Leftmost atom x with cdf(x) >= p, for p in (0, 1]."""
        p_arr = np.asarray(p, dtype=float)
        if not np.all((p_arr > 0) & (p_arr <= 1)):  # NaN fails too
            raise ValueError("quantile levels must lie in (0, 1]")
        idx = np.searchsorted(self._cum, p_arr, side="left")
        idx = np.minimum(idx, self.n - 1)
        out = self.support[idx]
        return float(out) if np.ndim(p) == 0 else out

    def mean(self) -> float:
        return float(self.support @ self.weights)

    def to_dict(self) -> dict:
        return {"support": self.support.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        if not isinstance(data, dict):
            raise ValueError("measure data must be a JSON object")
        try:
            return cls(data["support"], data["weights"])
        except KeyError as exc:
            raise ValueError(f"measure data is missing field {exc}") from exc

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n={self.n}, range=[{self.support[0]:g}, {self.support[-1]:g}])"


# ---------- continuous families ----------


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate; density rate*exp(-rate*x) on [0, inf)."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise ValueError("rate must be positive and finite")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile(self, p):
        return -np.log1p(-np.asarray(p, dtype=float)) / self.rate

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def support_lower(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Gamma:
    """Gamma law with integer shape and the given rate (sum of `shape` exponentials)."""

    shape: int
    rate: float

    def __post_init__(self):
        if not (isinstance(self.shape, (int, np.integer)) and self.shape >= 1):
            raise ValueError("shape must be a positive integer")
        if not 0 < self.rate < np.inf:
            raise ValueError("rate must be positive and finite")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.gammainc(self.shape, self.rate * np.maximum(x, 0.0))

    def quantile(self, p):
        return special.gammaincinv(self.shape, np.asarray(p, dtype=float)) / self.rate

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def support_lower(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Gaussian:
    """Normal law parametrized by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("variance must be positive")

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / math.sqrt(self.variance)
        return special.ndtr(z)

    def quantile(self, p):
        return self.mean + math.sqrt(self.variance) * special.ndtri(np.asarray(p, dtype=float))

    @property
    def support_lower(self) -> float:
        return -math.inf


@dataclass(frozen=True)
class Dirac:
    """Unit mass at a single point."""

    point: float

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= self.point, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        out = np.full_like(p, self.point)
        return float(out) if out.ndim == 0 else out

    @property
    def mean(self) -> float:
        return self.point

    @property
    def support_lower(self) -> float:
        return self.point


@dataclass(frozen=True)
class Uniform:
    """Uniform law on the interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("lo must be strictly below hi")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, p):
        return self.lo + (self.hi - self.lo) * np.asarray(p, dtype=float)

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def support_lower(self) -> float:
        return self.lo


@dataclass(frozen=True)
class LevyFirstPassage:
    """First time standard Brownian motion started at 0 reaches the given level.

    The cdf is erfc(level / sqrt(2 t)); the density is
    level / sqrt(2 pi t^3) * exp(-level^2 / (2 t)).  The mean is infinite.
    """

    level: float

    def __post_init__(self):
        if not self.level > 0:
            raise ValueError("level must be positive")

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        safe = np.where(t > 0, t, 1.0)
        return np.where(t > 0, special.erfc(self.level / np.sqrt(2.0 * safe)), 0.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return self.level**2 / (2.0 * special.erfcinv(p) ** 2)

    @property
    def mean(self) -> float:
        return math.inf

    @property
    def support_lower(self) -> float:
        return 0.0


Family = Exponential | Gamma | Gaussian | Dirac | Uniform | LevyFirstPassage

_FAMILY_FIELDS = {
    "exponential": (Exponential, ("rate",)),
    "gamma": (Gamma, ("shape", "rate")),
    "gaussian": (Gaussian, ("mean", "variance")),
    "dirac": (Dirac, ("point",)),
    "uniform": (Uniform, ("lo", "hi")),
    "levy_first_passage": (LevyFirstPassage, ("level",)),
}


def family_to_dict(spec: Family) -> dict:
    for tag, (cls, fields) in _FAMILY_FIELDS.items():
        if isinstance(spec, cls):
            return {"family": tag, **{f: getattr(spec, f) for f in fields}}
    raise ValueError(f"unknown family object {spec!r}")


def family_from_dict(data: dict) -> Family:
    try:
        tag = data["family"]
    except (KeyError, TypeError):
        raise ValueError("family data needs a 'family' tag") from None
    if tag not in _FAMILY_FIELDS:
        raise ValueError(f"unknown family {tag!r}")
    cls, fields = _FAMILY_FIELDS[tag]
    missing = [f for f in fields if f not in data]
    if missing:
        raise ValueError(f"family {tag!r} is missing parameters {missing}")
    kwargs = {f: data[f] for f in fields}
    if cls is Gamma:
        shape = kwargs["shape"]
        if float(shape) != int(shape):
            raise ValueError("gamma shape must be a positive integer")
        kwargs["shape"] = int(shape)
    return cls(**kwargs)


# ---------- discretization and sampling ----------


def discretize(spec: Family, n: int, scheme: str = "quantile", *, lo: float | None = None,
               hi: float | None = None) -> DiscreteMeasure:
    """Reduce a continuous family to an n-atom measure.

    ``scheme="quantile"`` places atoms at the quantile levels (k - 1/2)/n with
    equal weights.  ``scheme="uniform"`` bins [lo, hi] into n equal cells,
    puts each cell's mass on its midpoint, drops empty cells and renormalizes.
    A Dirac spec ignores n and comes back as its single atom.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(spec, Dirac):
        return DiscreteMeasure([spec.point], [1.0])
    if scheme == "quantile":
        levels = (np.arange(n) + 0.5) / n
        atoms = np.asarray(spec.quantile(levels), dtype=float)
        support, weights = merge_atoms(atoms, np.full(n, 1.0 / n))
        return DiscreteMeasure(support, weights / weights.sum())
    if scheme == "uniform":
        if lo is None or hi is None:
            raise ValueError("uniform scheme needs lo and hi")
        if not np.isfinite([lo, hi]).all():
            raise ValueError("the window [lo, hi] must be finite")
        if not lo < hi:
            raise ValueError("lo must be strictly below hi")
        edges = np.linspace(lo, hi, n + 1)
        mass = np.diff(spec.cdf(edges))
        mids = 0.5 * (edges[:-1] + edges[1:])
        support, weights = merge_atoms(mids, np.maximum(mass, 0.0))
        total = weights.sum()
        if total <= 0:
            raise ValueError("the window [lo, hi] carries no mass")
        return DiscreteMeasure(support, weights / total)
    raise ValueError(f"unknown scheme {scheme!r}")


def draw(spec: Family, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from a family using the supplied generator."""
    if count < 1:
        raise ValueError("count must be at least 1")
    u = rng.random(count)
    # Guard the measure-zero endpoint u == 0 for families with unbounded support.
    u = np.maximum(u, 1e-300)
    return np.asarray(spec.quantile(u), dtype=float)


def sample(spec: Family, count: int, seed: int) -> np.ndarray:
    """Deterministic inverse-CDF sampling: same (spec, count, seed), same draws."""
    return draw(spec, count, np.random.default_rng(seed))
