"""Linear programming for causal transport between discrete measures.

A causal plan on the real line has an explicit form: every source atom
x_k strictly above a target atom y_j puts the same conditional mass q_j
on it, so those plan entries are w_k * q_j.  The LP is posed in that
reduced form.  Its variables are q and the plan entries with x_k <= y_j;
its rows are the marginals alone, and causality holds by substitution.
The LP view of causal transport follows Backhoff, Beiglboeck, Lin and
Zalashko, "Causal transport in discrete time and applications" (SIAM J.
Optim. 2017).  The LP is solved by the dense two-phase simplex in
:mod:`causalot.simplex`, started at the causal north-west corner
(:meth:`LpProblem.corner`), a vertex of the reduced LP that the explicit
form gives at no cost, so the solve takes no settings.
:func:`solve_causal_transport` reports an optimum only after LP duality
certifies it from the reported duals and the plan passes the causality check.
"""
from __future__ import annotations

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
    w_k * q_j.  The variables are q_j for the J target atoms that some
    source atom lies strictly above (a prefix, as supports are sorted),
    then the unshared plan entries in row-major order.  The rows are the
    n source marginals and the target marginals but the last, which is
    redundant.  ``plan_mass`` and ``variables`` translate between LP
    vectors and plan masses; ``corner`` is the simplex's starting vertex.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    cost_matrix: np.ndarray
    shared: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_vars(self) -> int:
        return self.matrix.shape[1]

    def plan_mass(self, x) -> np.ndarray:
        """The (n, m) plan mass of an LP vector."""
        n_q = int(self.shared[-1].sum())
        mass = np.zeros(self.shared.shape)
        mass[:, :n_q] = np.outer(self.source.weights, x[:n_q])
        mass[~self.shared] = x[n_q:]
        return mass

    def variables(self, mass) -> np.ndarray:
        """The LP vector of a plan mass; q comes from the last source row."""
        mass = np.asarray(mass, dtype=float).reshape(self.shared.shape)
        n_q = int(self.shared[-1].sum())
        q = mass[-1, :n_q] / self.source.weights[-1]
        return np.concatenate([q, mass[~self.shared]])

    def corner(self) -> np.ndarray:
        """The LP vector of the causal north-west corner, a vertex of the LP.

        Targets are filled in ascending order.  Source atom k is revealed at
        target j once x_k <= y_j; until then it sends w_k q_j like every
        atom above y_j, so it arrives with w_k (1 - Q), Q the q mass so far.
        Each target takes what it can from the revealed atoms in north-west
        order and the rest from the unrevealed pool through one q_j.
        """
        w, v = self.source.weights, self.target.weights
        n_q = int(self.shared[-1].sum())
        revealed = anchor_rows(self.source, self.target)
        pool = np.cumsum(w[::-1])[::-1]  # pool[a]: weight of the atoms from a up
        mass = np.zeros(self.shared.shape)
        left = np.zeros_like(w)
        q = np.zeros(n_q)
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
            if j < n_q:
                q[j] = need / pool[a]
                total_q += q[j]
        return np.concatenate([q, mass[~self.shared]])


def build_causal_lp(source: DiscreteMeasure, target: DiscreteMeasure, costfn) -> LpProblem:
    n, m = source.n, target.n
    w = source.weights
    cost = evaluate_cost(costfn, source.support, target.support)
    shared = np.arange(n)[:, None] >= anchor_rows(source, target)[None, :]
    n_q = int(shared[-1].sum())
    free_k, free_j = np.nonzero(~shared)
    free = n_q + np.arange(free_k.size)
    A = np.zeros((n + m - 1, n_q + free.size))
    A[:n, :n_q] = w[:, None] * shared[:, :n_q]
    kept = np.arange(min(n_q, m - 1))
    A[n + kept, kept] = (w @ shared)[kept]
    A[free_k, free] = 1.0
    to_kept = free_j < m - 1
    A[n + free_j[to_kept], free[to_kept]] = 1.0
    rhs = np.concatenate([w, target.weights[:-1]])
    objective = np.concatenate([(w @ (shared * cost))[:n_q], cost[~shared]])
    return LpProblem(source=source, target=target, cost_matrix=cost, shared=shared,
                     matrix=A, rhs=rhs, objective=objective)


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

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "value": self.value,
            "iterations": self.iterations,
            "primal_residual": self.primal_residual,
            "dual_gap": self.dual_gap,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "duals": self.duals.tolist() if self.duals is not None else None,
        }


def solve(problem: LpProblem) -> SolveResult:
    """Run the two-phase simplex on a built instance, started at its causal corner."""
    sol = solve_standard_form(problem.matrix, problem.rhs, problem.objective,
                              start=problem.corner())
    if sol.status != "optimal":
        return SolveResult(sol.status, sol.iterations)
    plan = TransportPlan(problem.source, problem.target, problem.plan_mass(sol.x))
    return SolveResult(status="optimal", plan=plan, value=sol.objective,
                       duals=sol.duals, reduced_costs=sol.reduced_costs,
                       iterations=sol.iterations,
                       primal_residual=sol.primal_residual, dual_gap=sol.dual_gap)


_RESIDUAL_TOL = 1e-9
_REDUCED_COST_TOL = 1e-8


@dataclass
class CertificateReport:
    ok: bool
    failures: list[str]

    def __bool__(self) -> bool:
        return self.ok


def certify(problem: LpProblem, x, duals) -> CertificateReport:
    """Duality certificate for a flattened plan mass and a dual vector.

    The mass is mapped to LP variables with ``problem.variables``.  A plan
    that the map does not reproduce is not causal, and the gap counts as
    primal residual.  Residuals and negative mass may reach 1e-9, reduced
    costs -1e-8.  Each check is written so that NaN fails it.
    """
    mass = np.asarray(x, dtype=float).ravel()
    failures = []
    if mass.size != problem.shared.size:
        return CertificateReport(False, ["primal vector has the wrong length"])
    if not mass.min() >= -_RESIDUAL_TOL:
        failures.append(f"negative mass {mass.min():g}")
    x = problem.variables(mass)
    residual = max(float(np.abs(problem.matrix @ x - problem.rhs).max()),
                   float(np.abs(problem.plan_mass(x).ravel() - mass).max()))
    if not residual <= _RESIDUAL_TOL:
        failures.append(f"primal residual {residual:g}")
    value = float(problem.objective @ x)
    if duals is None:
        failures.append("no dual vector")
    else:
        duals = np.asarray(duals, dtype=float)
        reduced = problem.objective - problem.matrix.T @ duals
        if not reduced.min() >= -_REDUCED_COST_TOL:
            failures.append(f"reduced cost {reduced.min():g}")
        slackness = float(np.abs(x * reduced).max())
        if not slackness <= 1e-7 * max(1.0, abs(value)):
            failures.append(f"complementary slackness {slackness:g}")
        gap = abs(value - float(problem.rhs @ duals))
        if not gap <= 1e-8 * max(1.0, abs(value)):
            failures.append(f"dual gap {gap:g}")
    return CertificateReport(not failures, failures)


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
    cert = verify_optimality(problem, result)
    if not cert.ok:
        raise RuntimeError("solver output fails its duality certificate: "
                           + "; ".join(cert.failures))
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
