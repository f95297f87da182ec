"""Linear programming for causal transport between discrete measures.

A causal plan on the real line has an explicit form: every source atom
x_k strictly above a target atom y_j puts the same conditional mass q_j
on it, so those plan entries are w_k * q_j.  The LP is posed in that
reduced form.  Its variables are the pool masses p_j = W_j q_j, W_j the
weight of the atoms above y_j, and the plan entries with x_k <= y_j; its
rows are the marginals alone, and causality holds by substitution.
The LP view of causal transport follows Backhoff, Beiglboeck, Lin and
Zalashko, "Causal transport in discrete time and applications" (SIAM J.
Optim. 2017).  The LP is solved by the dense two-phase simplex in
:mod:`causalot.simplex`, started at the causal north-west corner
(:meth:`LpProblem.corner`), a vertex of the reduced LP that the explicit
form gives at no cost, so the solve takes no settings.
:func:`solve` prices the costs divided by a power of two s at or above the
largest one, so the simplex's absolute tolerances see costs in [0, 1]
whatever their units, and the scaling is exact.
:func:`solve_causal_transport` reports an optimum only after LP duality
certifies it and the plan passes the causality check.  :func:`certify`
reads the duals as potentials, u on the source atoms and v on the target
atoms (v = 0 on the last, whose row is dropped), never the LP matrix.
Shifting u by the most negative reduced cost makes them dual feasible, so
weak duality gives a lower bound L, and the certificate asks the
enclosure [L, value] to be at most 1e-9 s wide: one check, in the cost's
own units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Imported though unused: perfbench/tracing.py rebinds it here, as it does solve_standard_form.
from .causality import anchor_rows, check_cyclical_monotonicity, check_plan_causal
from .measures import DiscreteMeasure
from .plans import TransportPlan, evaluate_cost
from .simplex import solve_standard_form


@dataclass
class LpProblem:
    """Reduced equality-form LP data for one causal transport instance.

    ``shared[k, j]`` marks the plan entries with x_k > y_j, which equal
    w_k * q_j.  The variables are p_j = W_j q_j, W_j = ``pool[j]``, for
    the J target atoms that some source atom lies strictly above (a
    prefix, as supports are sorted), then the unshared plan entries in
    row-major order.  Column p_j has w_k / W_j on the pool's source rows,
    1 on target row j and the pool's mean cost as objective, whatever the
    pool weighs.  The rows are the n source marginals and the target
    marginals but the last, which is redundant.  ``plan_mass`` and
    ``variables`` translate between LP vectors and plan masses;
    ``corner`` is the simplex's starting vertex.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    cost_matrix: np.ndarray
    shared: np.ndarray
    pool: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray

    @property
    def n_rows(self) -> int:
        return sum(self.shared.shape) - 1

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def plan_mass(self, x) -> np.ndarray:
        """The (n, m) plan mass of an LP vector."""
        n_q = self.pool.size
        mass = np.zeros(self.shared.shape)
        mass[:, :n_q] = np.outer(self.source.weights, x[:n_q] / self.pool)
        mass[~self.shared] = x[n_q:]
        return mass

    def variables(self, mass) -> np.ndarray:
        """The LP vector of a plan mass; p = W q, q from the last source row."""
        mass = np.asarray(mass, dtype=float).reshape(self.shared.shape)
        n_q = self.pool.size
        q = mass[-1, :n_q] / self.source.weights[-1]
        return np.concatenate([self.pool * q, mass[~self.shared]])

    def corner(self) -> np.ndarray:
        """The LP vector of the causal north-west corner, a vertex of the LP.

        Targets are filled in ascending order.  Source atom k is revealed at
        target j once x_k <= y_j; until then it sends w_k q_j like every
        atom above y_j, so it arrives with w_k (1 - Q), Q the q mass so far.
        Each target takes what it can from the revealed atoms in north-west
        order, and the unrevealed pool sends the rest as p_j.
        """
        w, v = self.source.weights, self.target.weights
        revealed = anchor_rows(self.source, self.target)
        mass = np.zeros(self.shared.shape)
        left = np.zeros_like(w)
        p = np.zeros_like(self.pool)
        total_q = 0.0
        k = seen = 0
        for j, a in enumerate(revealed):
            left[seen:a] = w[seen:a] * max(1.0 - total_q, 0.0)
            seen = a
            need = v[j]
            while need > 0.0 and k < a:
                take = min(left[k], need)
                mass[k, j] = take
                left[k] -= take
                need -= take
                if left[k] <= 0.0:
                    k += 1
            if j < p.size:
                p[j] = need
                total_q += need / self.pool[j]
        return np.concatenate([p, mass[~self.shared]])


def build_causal_lp(source: DiscreteMeasure, target: DiscreteMeasure, costfn) -> LpProblem:
    n, m = source.n, target.n
    w = source.weights
    cost = evaluate_cost(costfn, source.support, target.support)
    shared = np.arange(n)[:, None] >= anchor_rows(source, target)[None, :]
    n_q = int(shared[-1].sum())
    free_k, free_j = np.nonzero(~shared)
    free = n_q + np.arange(free_k.size)
    A = np.zeros((n + m - 1, n_q + free.size))
    pool = (w @ shared)[:n_q]
    A[:n, :n_q] = w[:, None] * shared[:, :n_q] / pool
    kept = np.arange(min(n_q, m - 1))
    A[n + kept, kept] = 1.0
    A[free_k, free] = 1.0
    to_kept = free_j < m - 1
    A[n + free_j[to_kept], free[to_kept]] = 1.0
    rhs = np.concatenate([w, target.weights[:-1]])
    objective = np.concatenate([(w @ (shared * cost))[:n_q] / pool, cost[~shared]])
    return LpProblem(source=source, target=target, cost_matrix=cost, shared=shared,
                     pool=pool, matrix=A, rhs=rhs, objective=objective)


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "iteration-limit"
    iterations: int
    plan: TransportPlan | None = None
    value: float | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    primal_residual: float | None = None
    dual_gap: float | None = None
    lower_bound: float | None = None
    certificate: CertificateReport | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "value": self.value,
            "iterations": self.iterations,
            "primal_residual": self.primal_residual,
            "dual_gap": self.dual_gap,
            "lower_bound": self.lower_bound,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "duals": self.duals.tolist() if self.duals is not None else None,
        }


def solve(problem: LpProblem) -> SolveResult:
    """Run the two-phase simplex on a built instance, started at its causal corner.

    The simplex prices the costs divided by :func:`cost_scale`, so its
    absolute tolerances meet costs of size at most 1 in any units; the
    value and the duals are scaled back exactly.  The result is certified
    once, and that pass fills ``certificate`` and the diagnostics.
    """
    scale = cost_scale(problem.cost_matrix)
    sol = solve_standard_form(problem.matrix, problem.rhs, problem.objective / scale,
                              start=problem.corner())
    if sol.status != "optimal":
        return SolveResult(sol.status, sol.iterations)
    plan = TransportPlan(problem.source, problem.target, problem.plan_mass(sol.x))
    duals = None if sol.duals is None else sol.duals * scale
    cert = certify(problem, plan.mass.ravel(), duals)
    return SolveResult(status="optimal", plan=plan, value=sol.objective * scale,
                       duals=duals, iterations=sol.iterations,
                       reduced_costs=cert.reduced_costs,
                       primal_residual=cert.primal_residual, dual_gap=cert.dual_gap,
                       lower_bound=cert.lower_bound, certificate=cert)


_TOL = 1e-9  # mass misfits within it, enclosure widths within it times the cost scale


def cost_scale(cost) -> float:
    """The power of two at or above the largest cost, or 1 for an all-zero table.

    Dividing by it is exact, so the solve can price on costs in [0, 1]
    and report in the caller's units, and the certificate measures its
    enclosure against the same scale.
    """
    top = float(cost.max())
    if not top > 0.0:
        return 1.0
    mantissa, exponent = math.frexp(top)
    return math.ldexp(1.0, exponent - (mantissa == 0.5))


@dataclass
class CertificateReport:
    ok: bool
    failures: list[str]
    primal_residual: float | None = None
    reduced_costs: np.ndarray | None = None
    lower_bound: float | None = None
    dual_gap: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def certify(problem: LpProblem, x, duals) -> CertificateReport:
    """Duality certificate for a flattened plan mass and a dual vector.

    The mass is read back through ``problem.variables`` and
    ``problem.plan_mass``.  A plan that this round trip does not reproduce
    is not causal, and the gap counts as primal residual, as do the misfits
    of the round-tripped plan's row sums and of its column sums but the
    last.  Negative mass and the residual may reach tau = 1e-9; mass has
    no units.

    The duals are the potentials u (source atoms) and v (target atoms but
    the last, whose potential is 0).  Under R = C - u 1' - 1 v', the
    reduced cost of a free plan entry is R[k, j], and that of the pool mass
    p_j is the w-weighted mean of R[k, j] over the pool's atoms.  Every LP
    column's source-row entries sum to 1, so with -delta the most negative
    reduced cost (delta >= 0), the potentials (u - delta, v) are dual
    feasible, and weak duality makes L = w'u + nu'v - delta sum(w) a lower
    bound on the optimum, nu the target weights.  The plan's cost is the
    upper end of the enclosure [L, value], and the certificate asks
    value - L <= tau * s, s from :func:`cost_scale`.  The width equals
    sum_col x_col (r_col + delta) over the LP vector x, whose entries sum
    to 1, so it bounds the negative reduced costs, the slackness and the
    gap to w'u + nu'v alike.

    Weak duality against optimal potentials y* with reduced costs r* >= 0
    bounds the other side: value >= optimum - |y*|_1 rho - sum over
    x_col < 0 of |x_col| r*_col, rho the largest marginal misfit.  With
    potentials of the cost's size that is a few (n + m) rho s, so the mass
    threshold too reads in units of s.  The report carries the residual,
    the reduced costs (pool means, then free cells), L and the gap
    |value - (w'u + nu'v)|.  Each check is written so that NaN fails it.
    """
    shared, w, nu = problem.shared, problem.source.weights, problem.target.weights
    n, m = shared.shape
    mass = np.asarray(x, dtype=float).ravel()
    failures = []
    if mass.size != shared.size:
        return CertificateReport(False, ["primal vector has the wrong length"])
    if not mass.min() >= -_TOL:
        failures.append(f"negative mass {mass.min():g}")
    x = problem.variables(mass)
    plan = problem.plan_mass(x)
    misfit = np.concatenate([plan.sum(axis=1) - w, plan.sum(axis=0)[:-1] - nu[:-1],
                             plan.ravel() - mass])
    residual = float(np.abs(misfit).max())
    if not residual <= _TOL:
        failures.append(f"primal residual {residual:g}")
    value = float(np.vdot(problem.cost_matrix, plan))
    if duals is None:
        failures.append("no dual vector")
        return CertificateReport(False, failures, residual)
    duals = np.asarray(duals, dtype=float)
    if duals.shape != (n + m - 1,):
        failures.append("dual vector has the wrong length")
        return CertificateReport(False, failures, residual)
    u, v = duals[:n], np.zeros(m)
    v[:-1] = duals[n:]
    R = problem.cost_matrix - (u[:, None] + v)
    pooled = (w @ (shared * R))[:problem.pool.size] / problem.pool
    reduced = np.concatenate([pooled, R[~shared]])
    delta = float(np.maximum(0.0, -reduced.min()))
    bound = float(w @ u + nu @ v)
    lower = bound - delta * float(w.sum())
    width = value - lower
    if not width <= _TOL * cost_scale(problem.cost_matrix):
        failures.append(f"enclosure width {width:g}")
    return CertificateReport(not failures, failures, residual, reduced, lower,
                             abs(value - bound))


def verify_optimality(problem: LpProblem, result: SolveResult) -> CertificateReport:
    """Check a solve result against its own instance; true only for certified optima."""
    if result.status != "optimal" or result.plan is None:
        return CertificateReport(False, [f"status is {result.status!r}"])
    return certify(problem, result.plan.mass.ravel(), result.duals)


def classic_ot_1d(source: DiscreteMeasure, target: DiscreteMeasure):
    """Unconstrained 1-d transport under |x - y|: comonotone plan, exact value.

    Merges the two cumulative weight sequences with two pointers, which is
    the quantile coupling; the value is the finite sum it induces.
    """
    xs, ws = source.support, source.weights
    ys, vs = target.support, target.weights
    mass = np.zeros((xs.size, ys.size))
    value = 0.0
    i = j = 0
    row_left = ws[0]
    col_left = vs[0]
    while True:
        step = min(row_left, col_left)
        mass[i, j] += step
        value += step * abs(xs[i] - ys[j])
        row_left -= step
        col_left -= step
        if row_left <= 1e-15:
            i += 1
            if i == xs.size:
                break
            row_left = ws[i]
        if col_left <= 1e-15:
            j += 1
            if j == ys.size:
                break
            col_left = vs[j]
    plan = TransportPlan(source, target, mass)
    return value, plan


def solve_causal_transport(source: DiscreteMeasure, target: DiscreteMeasure, costfn) -> SolveResult:
    """Build and solve one instance, then certify the optimum and its causality.

    An optimum that fails its duality certificate or the causality re-check
    indicates a numerical failure and raises rather than being reported.
    The reshuffles :func:`check_cyclical_monotonicity` tries move mass only
    among entries with x_k < y_j, which are free LP variables, so on a
    certified optimum it finds no gain beyond the certificate's tolerances;
    it stays a standalone check.
    """
    problem = build_causal_lp(source, target, costfn)
    result = solve(problem)
    if result.status != "optimal":
        return result
    if not result.certificate:
        raise RuntimeError("solver output fails its duality certificate: "
                           + "; ".join(result.certificate.failures))
    report = check_plan_causal(result.plan, tol=1e-8)
    if not report.causal:
        raise RuntimeError(
            f"solver output violates causality by {report.max_deviation:g}")
    return result


def instance_from_dict(data: dict):
    """Parse {"eta": measure, "nu": measure, "cost": name-or-table}."""
    try:
        eta = DiscreteMeasure.from_dict(data["eta"])
        nu = DiscreteMeasure.from_dict(data["nu"])
        cost = data["cost"]
    except KeyError as exc:
        raise ValueError(f"instance data is missing field {exc}") from exc
    if isinstance(cost, dict):
        try:
            cost = np.asarray(cost["table"], dtype=float)
        except KeyError:
            raise ValueError("a cost object must carry a 'table'") from None
    elif not isinstance(cost, str):
        raise ValueError("cost must be a name or a {'table': ...} object")
    return eta, nu, cost
