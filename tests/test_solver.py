import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import causalot.solver as solver_module
from causalot.causality import check_cyclical_monotonicity, check_plan_causal
from causalot.measures import DiscreteMeasure, Exponential, Gamma, discretize
from causalot.plans import evaluate_cost
from causalot.plans import deterministic_plan, product_plan
from causalot.simplex import SimplexSettings
from causalot.solver import (build_causal_lp, certify, classic_ot_1d,
                             instance_from_dict, solve, solve_causal_transport,
                             verify_optimality)


def uniform_on(points):
    points = np.asarray(points, dtype=float)
    return DiscreteMeasure(points, np.full(points.size, 1.0 / points.size))


def random_instance(rng, max_atoms=8):
    def measure():
        n = int(rng.integers(2, max_atoms + 1))
        support = np.sort(rng.choice(np.arange(40), size=n, replace=False)) * 0.5
        return DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
    return measure(), measure()


def anchor_row_value(source, target, cost) -> float:
    """Optimal value of the causal LP on all plan entries, with anchor rows.

    One row per (target atom, source atom above it) equates that source
    atom's conditional CDF with its group's anchor, solved by HiGHS.
    """
    n, m = source.n, target.n
    w = source.weights
    rows = [np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))]
    anchors = np.searchsorted(source.support, target.support, side="right")
    for j, a in enumerate(anchors):
        for k in range(a + 1, n):
            row = np.zeros((n, m))
            row[k, :j + 1] = w[a]
            row[a, :j + 1] = -w[k]
            rows.append(row.reshape(1, -1))
    A = np.vstack(rows)
    b = np.concatenate([w, target.weights, np.zeros(A.shape[0] - n - m)])
    ref = linprog(evaluate_cost(cost, source.support, target.support).ravel(),
                  A_eq=A, b_eq=b, method="highs")
    assert ref.status == 0
    return ref.fun


def solve_with_corrupted_duals(problem, settings=None):
    """An optimal solve whose first dual is off, as in TestCertificates."""
    result = solve(problem, settings)
    result.duals[0] += 0.25
    return result


class TestBuildCausalLp:
    def test_single_atom_each(self):
        problem = build_causal_lp(uniform_on([1.0]), uniform_on([2.0]), "abs")
        assert problem.n_rows == 1
        assert problem.n_vars == 1
        assert not problem.shared.any()

    def test_no_shared_columns_when_targets_sit_high(self):
        # Every target at or above every source: the LP is plain transport.
        problem = build_causal_lp(uniform_on([0.0, 1.0]), uniform_on([1.0, 3.0]), "abs")
        assert problem.n_rows == 3  # two sources, one kept target
        assert problem.n_vars == 4
        assert not problem.shared.any()
        assert_allclose(problem.objective, problem.cost_matrix.ravel())

    def test_one_shared_column(self):
        problem = build_causal_lp(uniform_on([0.0, 1.0, 2.0]),
                                  uniform_on([0.5, 10.0]), "abs")
        assert problem.n_rows == 4
        # q for the target 0.5, then the four entries with x_k <= y_j
        assert problem.n_vars == 5
        assert_allclose(problem.matrix[:3, 0], [0.0, 1 / 3, 1 / 3])
        assert problem.matrix[3, 0] == pytest.approx(2 / 3)
        assert problem.objective[0] == pytest.approx((0.5 + 1.5) / 3)

    def test_last_target_row_dropped(self):
        problem = build_causal_lp(uniform_on([0.0, 1.0]), uniform_on([-3.0, -2.0]), "abs")
        # Both targets lie below both sources: only q_0 and q_1 remain.
        assert problem.n_rows == 3
        assert problem.n_vars == 2
        assert_allclose(problem.matrix[2], [1.0, 0.0])
        assert_allclose(problem.rhs, [0.5, 0.5, 0.5])

    def test_cost_matrix_from_name(self):
        problem = build_causal_lp(uniform_on([0.0, 2.0]), uniform_on([1.0]), "square")
        assert_allclose(problem.cost_matrix, [[1.0], [1.0]])

    def test_ties_stay_unshared(self):
        problem = build_causal_lp(uniform_on([0.0, 1.0]), uniform_on([1.0, 2.0]), "abs")
        assert not problem.shared.any()

    def test_plan_round_trip(self):
        problem = build_causal_lp(uniform_on([0.0, 1.0, 2.0]),
                                  uniform_on([0.5, 1.0, 10.0]), "abs")
        x = np.random.default_rng(0).random(problem.n_vars)
        assert_allclose(problem.variables(problem.plan_mass(x)), x)

    def test_gamma_60_size(self):
        problem = build_causal_lp(discretize(Gamma(2, 0.01), 60),
                                  discretize(Gamma(3, 0.01), 60), "abs")
        assert isinstance(problem.matrix, np.ndarray)
        assert problem.n_rows == 119
        assert problem.n_vars == 2536

    def test_gamma_200_builds_small(self):
        problem = build_causal_lp(discretize(Gamma(2, 0.01), 200),
                                  discretize(Gamma(3, 0.01), 200), "abs")
        assert problem.n_rows == 399
        assert problem.matrix.nbytes < 100e6


small_measures = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 8), min_size=n, max_size=n, unique=True),
    st.lists(st.integers(1, 9), min_size=n, max_size=n)))


@st.composite
def instances(draw):
    """Small measure pairs on one half-integer grid, so ties x_k == y_j are common."""
    (xs, ws), (ys, vs) = draw(small_measures), draw(small_measures)
    eta = DiscreteMeasure(np.sort(xs) * 0.5, np.asarray(ws) / sum(ws))
    nu = DiscreteMeasure(np.sort(ys) * 0.5, np.asarray(vs) / sum(vs))
    kind = draw(st.sampled_from(["abs", "square", "table"]))
    if kind != "table":
        return eta, nu, kind
    table = draw(st.lists(st.integers(0, 20), min_size=eta.n * nu.n,
                          max_size=eta.n * nu.n))
    return eta, nu, np.reshape(table, (eta.n, nu.n)) * 0.25


class TestReducedLpProperties:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_matches_anchor_row_lp(self, instance):
        eta, nu, cost = instance
        problem = build_causal_lp(eta, nu, cost)
        result = solve(problem)
        assert result.status == "optimal"
        assert result.value == pytest.approx(anchor_row_value(eta, nu, cost),
                                             abs=1e-8, rel=0)
        assert verify_optimality(problem, result).ok
        assert check_plan_causal(result.plan, tol=1e-8).causal
        if isinstance(cost, str) and cost == "abs":
            classic, _ = classic_ot_1d(eta, nu)
            assert result.value >= classic - 1e-9
            assert result.value <= product_plan(eta, nu).cost("abs") + 1e-9


class TestCertifiedPipeline:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_optimum_certified_and_monotone(self, instance):
        eta, nu, cost = instance
        result = solve_causal_transport(eta, nu, cost)
        problem = build_causal_lp(eta, nu, cost)
        assert verify_optimality(problem, result).ok
        # The audit the pipeline ran before certification replaced it.
        assert check_cyclical_monotonicity(result.plan, problem.cost_matrix,
                                           max_subset=3, mass_tol=1e-9).ok

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(solver_module, "solve", solve_with_corrupted_duals)
        eta = uniform_on([0.0, 1.0, 2.0])
        nu = DiscreteMeasure([0.5, 10.0], [0.5, 0.5])
        with pytest.raises(RuntimeError, match="certificate"):
            solve_causal_transport(eta, nu, "abs")


class TestSolve:
    def test_matches_reference_on_small_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            eta, nu = random_instance(rng, max_atoms=6)
            problem = build_causal_lp(eta, nu, "abs")
            result = solve(problem)
            ref = linprog(problem.objective, A_eq=problem.matrix,
                          b_eq=problem.rhs, method="highs")
            assert result.status == "optimal"
            assert ref.status == 0
            assert result.value == pytest.approx(ref.fun, abs=1e-8, rel=1e-8)

    def test_iteration_limit_passthrough(self):
        eta, nu = random_instance(np.random.default_rng(1))
        problem = build_causal_lp(eta, nu, "abs")
        result = solve(problem, SimplexSettings(max_iterations=1))
        assert result.status == "iteration-limit"
        assert result.plan is None


class TestClassicOt:
    def test_shifted_pair(self):
        value, plan = classic_ot_1d(uniform_on([0.0, 1.0]), uniform_on([2.0, 3.0]))
        assert value == pytest.approx(2.0)
        assert_allclose(plan.mass, [[0.5, 0.0], [0.0, 0.5]])

    def test_unequal_weights(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.25, 0.75])
        nu = DiscreteMeasure([5.0], [1.0])
        value, _ = classic_ot_1d(eta, nu)
        assert value == pytest.approx(0.25 * 5 + 0.75 * 4)

    def test_quantile_quadrature_oracle(self):
        # The optimal value equals the integral of |Q_source - Q_target|
        # over (0, 1); a fine midpoint rule reproduces it independently.
        rng = np.random.default_rng(23)
        ps = (np.arange(400_000) + 0.5) / 400_000
        for _ in range(10):
            eta, nu = random_instance(rng, max_atoms=5)
            value, _ = classic_ot_1d(eta, nu)
            q_eta = eta.support[np.searchsorted(np.cumsum(eta.weights), ps)]
            q_nu = nu.support[np.searchsorted(np.cumsum(nu.weights), ps)]
            quad = np.mean(np.abs(q_eta - q_nu))
            assert value == pytest.approx(quad, abs=2e-3)

    def test_plan_is_feasible_and_comonotone(self):
        rng = np.random.default_rng(5)
        eta, nu = random_instance(rng)
        _, plan = classic_ot_1d(eta, nu)
        assert plan.mass.sum() == pytest.approx(1.0)
        rows, cols = np.nonzero(plan.mass > 1e-12)
        # support is a staircase: row and column indices both nondecreasing
        assert np.all(np.diff(rows) >= 0)
        assert np.all(np.diff(cols) >= 0)


class TestSolveCausalTransport:
    def test_value_between_classic_and_product(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            eta, nu = random_instance(rng, max_atoms=7)
            result = solve_causal_transport(eta, nu, "abs")
            assert result.status == "optimal"
            classic, _ = classic_ot_1d(eta, nu)
            product_cost = product_plan(eta, nu).cost("abs")
            assert result.value >= classic - 1e-9
            assert result.value <= product_cost + 1e-9
            assert check_plan_causal(result.plan, tol=1e-8).causal

    def test_known_constrained_instance(self):
        # Sources above 0.5 must give it equal conditional mass, which
        # forces value 4.25 + 4t at t = 1/12 on this instance.
        eta = uniform_on([0.0, 1.0, 2.0])
        nu = DiscreteMeasure([0.5, 10.0], [0.5, 0.5])
        result = solve_causal_transport(eta, nu, "abs")
        assert result.value == pytest.approx(4.25 + 4.0 / 12.0, abs=1e-9)
        classic, _ = classic_ot_1d(eta, nu)
        assert result.value > classic + 0.1

    def test_genuine_gap_two_by_two(self):
        # Both sources sit above the low target, so the only causal plan
        # is the product; unconstrained transport does strictly better.
        eta = uniform_on([1.0, 2.0])
        nu = uniform_on([0.0, 3.0])
        result = solve_causal_transport(eta, nu, "abs")
        classic, _ = classic_ot_1d(eta, nu)
        assert classic == pytest.approx(1.0)
        assert result.value == pytest.approx(1.5)
        assert_allclose(result.plan.mass, np.full((2, 2), 0.25), atol=1e-10)

    def test_deterministic_across_runs(self):
        eta = discretize(Exponential(1.0), 9)
        nu = discretize(Exponential(0.4), 9)
        first = solve_causal_transport(eta, nu, "abs")
        second = solve_causal_transport(eta, nu, "abs")
        assert np.array_equal(first.plan.mass, second.plan.mass)
        assert first.value == second.value
        assert first.iterations == second.iterations

    def test_cost_scaling(self):
        eta, nu = random_instance(np.random.default_rng(3))
        base = solve_causal_transport(eta, nu, "abs")
        scaled = solve_causal_transport(eta, nu, lambda x, y: 3.0 * np.abs(x - y))
        assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-12)

    def test_square_cost_supported(self):
        eta, nu = random_instance(np.random.default_rng(9))
        result = solve_causal_transport(eta, nu, "square")
        assert result.status == "optimal"


class TestCertificates:
    def instance(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        nu = DiscreteMeasure([0.5, 10.0], [0.5, 0.5])
        problem = build_causal_lp(eta, nu, "abs")
        result = solve(problem)
        return problem, result

    def test_optimal_result_verifies(self):
        problem, result = self.instance()
        report = verify_optimality(problem, result)
        assert report.ok
        assert report.failures == []
        assert bool(report)

    def test_feasible_suboptimal_point_rejected(self):
        problem, result = self.instance()
        other = product_plan(problem.source, problem.target)
        report = certify(problem, other.mass.ravel(), result.duals)
        assert not report.ok
        assert any("slackness" in f for f in report.failures)

    def test_corrupted_duals_rejected(self):
        problem, result = self.instance()
        duals = result.duals.copy()
        duals[0] += 0.25
        report = certify(problem, result.plan.mass.ravel(), duals)
        assert not report.ok

    def test_infeasible_point_rejected(self):
        problem, result = self.instance()
        bad = result.plan.mass.ravel().copy()
        bad[0] += 0.125
        report = certify(problem, bad, result.duals)
        assert not report.ok
        assert any("residual" in f for f in report.failures)

    def test_non_optimal_status_rejected(self):
        problem, _ = self.instance()
        limited = solve(problem, SimplexSettings(max_iterations=1))
        assert not verify_optimality(problem, limited).ok

    def test_non_causal_plan_rejected(self):
        # The comonotone plan has the right marginals, but both sources sit
        # above the target 0 and send it different conditional mass.
        eta, nu = uniform_on([1.0, 2.0]), uniform_on([0.0, 3.0])
        problem = build_causal_lp(eta, nu, "abs")
        result = solve(problem)
        _, comonotone = classic_ot_1d(eta, nu)
        report = certify(problem, comonotone.mass.ravel(), result.duals)
        assert not report.ok
        assert any("residual" in f for f in report.failures)

    def test_non_causal_plan_with_causal_marginals_rejected(self):
        # Rows 0 and 1 trade mass between the two low targets in opposite
        # directions.  The LP vector read from the plan meets every marginal,
        # so only the round trip back to the plan exposes the violation.
        eta, nu = uniform_on([2.0, 3.0, 4.0]), DiscreteMeasure([0.0, 1.0, 5.0],
                                                               [0.25, 0.25, 0.5])
        problem = build_causal_lp(eta, nu, "abs")
        result = solve(problem)
        d = 0.05
        mass = np.array([[1 / 12 + d, 1 / 12 - d, 1 / 6],
                         [1 / 12 - d, 1 / 12 + d, 1 / 6],
                         [1 / 12, 1 / 12, 1 / 6]])
        x = problem.variables(mass)
        assert np.abs(problem.matrix @ x - problem.rhs).max() < 1e-12
        report = certify(problem, mass.ravel(), result.duals)
        assert not report.ok
        assert any("residual" in f for f in report.failures)

    def test_random_instances_all_certify(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            eta, nu = random_instance(rng, max_atoms=6)
            problem = build_causal_lp(eta, nu, "abs")
            result = solve(problem)
            assert verify_optimality(problem, result).ok


class TestInstanceFromDict:
    def test_named_cost(self):
        eta, nu, cost = instance_from_dict({
            "eta": {"support": [0.0, 1.0], "weights": [0.5, 0.5]},
            "nu": {"support": [2.0], "weights": [1.0]},
            "cost": "abs",
        })
        assert eta.n == 2
        assert cost == "abs"

    def test_table_cost(self):
        eta, nu, cost = instance_from_dict({
            "eta": {"support": [0.0, 1.0], "weights": [0.5, 0.5]},
            "nu": {"support": [2.0], "weights": [1.0]},
            "cost": {"table": [[2.0], [1.0]]},
        })
        assert_allclose(cost, [[2.0], [1.0]])

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            instance_from_dict({"eta": {"support": [0.0], "weights": [1.0]}})
