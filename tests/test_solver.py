import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

import causalot.solver as solver_module
from causalot.causality import check_cyclical_monotonicity, check_plan_causal
from causalot.measures import DiscreteMeasure, Exponential, Gamma, Uniform, discretize
from causalot.plans import evaluate_cost
from causalot.plans import TransportPlan, deterministic_plan, product_plan
from causalot.simplex import solve_standard_form
from causalot.solver import (_TOL, LpProblem, build_causal_lp, certify, classic_ot_1d,
                             cost_scale, instance_from_dict, solve,
                             solve_causal_transport, verify_optimality)
from exact_lp import reduced_lp, solve_exact


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

    The variables are the kernel entries p[k, l] = g[k, l] / w_k, so one
    row per (target atom, source atom above it) equates that source atom's
    conditional CDF with its group's anchor with unit coefficients, and a
    tiny source weight shrinks no causality row.  The last target marginal
    follows from the others and is left out.  Solved by HiGHS at its
    tightest feasibility tolerances.
    """
    n, m = source.n, target.n
    w = source.weights
    rows = [np.kron(np.eye(n), np.ones(m)), np.kron(w, np.eye(m))[:-1]]
    anchors = np.searchsorted(source.support, target.support, side="right")
    for j, a in enumerate(anchors):
        for k in range(a + 1, n):
            row = np.zeros((n, m))
            row[k, :j + 1] = 1.0
            row[a, :j + 1] = -1.0
            rows.append(row.reshape(1, -1))
    A = np.vstack(rows)
    b = np.concatenate([np.ones(n), target.weights[:-1], np.zeros(A.shape[0] - n - m + 1)])
    c = w[:, None] * evaluate_cost(cost, source.support, target.support)
    ref = linprog(c.ravel(), A_eq=A, b_eq=b, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    return ref.fun


def solve_standard_form_with_corrupted_duals(*args, **kwargs):
    """The simplex with its first dual off by 0.25, as in TestCertificates."""
    sol = solve_standard_form(*args, **kwargs)
    sol.duals[0] += 0.25
    return sol


def rational_lp(problem: LpProblem):
    """The LP that ``problem`` poses, in fractions, read exactly from its float data."""
    return reduced_lp(problem.source.support, problem.source.weights,
                      problem.target.support, problem.target.weights, problem.cost_matrix)


def exact_solution(problem: LpProblem):
    return solve_exact(rational_lp(problem))


# Float rounding allowed beside the certificate's own bounds, in units of s.
ROUNDING = 1e-12


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
        # p for the target 0.5, then the four entries with x_k <= y_j.  The
        # pool above 0.5 weighs 2/3: each of its atoms carries half of p.
        assert problem.n_vars == 5
        assert_allclose(problem.pool, [2 / 3])
        assert_allclose(problem.matrix[:3, 0], [0.0, 1 / 2, 1 / 2])
        assert problem.matrix[3, 0] == 1.0
        assert problem.objective[0] == pytest.approx((0.5 + 1.5) / 2)

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


@st.composite
def tiny_weight_instances(draw):
    """Pairs from ``instances()`` in which some atoms weigh 1e-8 to 1e-6 before normalizing."""
    eta, nu, cost = draw(instances())

    def shrink(measure):
        tiny = draw(st.lists(st.booleans(), min_size=measure.n, max_size=measure.n))
        eps = draw(st.sampled_from([1e-6, 1e-7, 1e-8]))
        weights = np.where(tiny, eps, measure.weights)
        return DiscreteMeasure(measure.support, weights / weights.sum())

    return shrink(eta), shrink(nu), cost


@st.composite
def light_monge_instances(draw):
    """``instances()`` under abs or square, with weights log-uniform down to 1e-13."""
    eta, nu, _ = draw(instances())

    def lighten(measure):
        exponents = draw(st.lists(st.floats(-13.0, 0.0), min_size=measure.n,
                                  max_size=measure.n))
        weights = 10.0 ** np.asarray(exponents)
        return DiscreteMeasure(measure.support, weights / weights.sum())

    return lighten(eta), lighten(nu), draw(st.sampled_from(["abs", "square"]))


class TestTinyWeights:
    def test_atom_above_every_target(self):
        # The atom at 5 shares every column, so its LP row holds only its
        # shares w_k / W_j of the pools; a row that held its weight 1e-8
        # alone would fall below the pivot thresholds.
        eta = DiscreteMeasure([0.0, 1.0, 5.0], [(1 - 1e-8) / 2, (1 - 1e-8) / 2, 1e-8])
        nu = DiscreteMeasure([0.5, 2.0], [0.5, 0.5])
        result = solve_causal_transport(eta, nu, "abs")
        assert result.status == "optimal"
        assert verify_optimality(build_causal_lp(eta, nu, "abs"), result).ok
        assert result.value == pytest.approx(anchor_row_value(eta, nu, "abs"),
                                             abs=1e-9, rel=0)

    def test_tiny_corner_entry_is_crashed(self):
        # The corner sends 1.8e-13 through one free cell.  Left out of the
        # crash, that cell kept an artificial at this level past phase 1,
        # and the drive-out's pivot on a tiny entry pushed other rows negative.
        def normed(support, weights):
            return DiscreteMeasure(support, np.asarray(weights) / sum(weights))
        eta = normed([1.0, 3.0, 3.5, 4.0], [1e-7, 7 / 16, 1e-7, 9 / 16])
        nu = normed([0.0, 2.0, 3.0, 3.5], [1e-6, 3 / 4, 1 / 4, 1e-6])
        cost = np.array([[4.5, 4.25, 3.75, 3.75], [3.5, 2.5, 0.5, 4.0],
                         [3.0, 1.75, 1.0, 4.25], [4.75, 4.25, 0.25, 3.5]])
        result = solve_causal_transport(eta, nu, cost)
        assert result.status == "optimal"
        assert result.value == pytest.approx(anchor_row_value(eta, nu, cost),
                                             abs=1e-9, rel=0)

    def test_light_pool_solves_warm(self):
        # The pool above 4 weighs 1e-8.  A column in q units would carry
        # entries of 1e-8, under the 1e-7 crash floor, and the simplex would
        # drop the corner; in pool-mass units it crashes in, one pivot per row.
        eta = DiscreteMeasure([3.5, 7.0], [1 - 1e-8, 1e-8])
        nu = DiscreteMeasure([4.0, 6.0], [1 - 1e-10, 1e-10])
        problem = build_causal_lp(eta, nu, "abs")
        result = solve_causal_transport(eta, nu, "abs")
        assert verify_optimality(problem, result).ok
        assert result.iterations == problem.n_rows
        assert result.value == pytest.approx(0.5 * (1 - 1e-8) + 0.99 * 3e-8 + 1e-10,
                                             abs=1e-12, rel=0)

    def test_light_atom_above_a_heavy_target(self):
        # The atom at 8 alone sits above the target 7.5, so its pool weighs
        # 5e-10: a column in q units would sit under the pivot tolerance, and
        # the solve would report "LP is unbounded below".
        eta = DiscreteMeasure([0.0, 8.0], [1 - 5e-10, 5e-10])
        nu = DiscreteMeasure([7.5, 8.0], [0.9994, 0.0006])
        cost = np.array([[4.0, 2.0], [8.0, 9.0]])
        result = solve_causal_transport(eta, nu, cost)
        assert verify_optimality(build_causal_lp(eta, nu, cost), result).ok
        assert result.value == pytest.approx(3.9988000019999994, abs=1e-12, rel=0)

    def test_uniform_window_matches_classic(self):
        # On one shared window grid the tail atoms weigh down to 1e-16, and
        # the identity pairing is causal, so the value is the classic one.
        eta = discretize(Gamma(3, 0.01), 60, "uniform", lo=0.0, hi=4000.0)
        nu = discretize(Gamma(2, 0.01), 60, "uniform", lo=0.0, hi=4000.0)
        problem = build_causal_lp(eta, nu, "abs")
        result = solve_causal_transport(eta, nu, "abs")
        assert result.iterations == problem.n_rows
        assert result.value == pytest.approx(classic_ot_1d(eta, nu)[0], abs=1e-9, rel=0)

    @settings(max_examples=300, deadline=None)
    @given(light_monge_instances())
    def test_monge_corner_takes_one_pivot_per_row(self, instance):
        # abs and square are Monge costs, on which the corner has always been
        # optimal: every pivot crashes a corner column or drives out an
        # artificial, and phase 2 makes none.
        eta, nu, cost = instance
        result = solve_causal_transport(eta, nu, cost)
        assert result.iterations <= eta.n + nu.n - 1

    @settings(max_examples=300, deadline=None)
    @given(tiny_weight_instances())
    def test_matches_anchor_row_lp(self, instance):
        eta, nu, cost = instance
        result = solve_causal_transport(eta, nu, cost)
        assert result.status == "optimal"
        assert result.value == pytest.approx(anchor_row_value(eta, nu, cost),
                                             abs=1e-8, rel=0)


class TestCorner:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_corner_is_a_causal_vertex(self, instance):
        eta, nu, cost = instance
        problem = build_causal_lp(eta, nu, cost)
        x = problem.corner()
        assert x.min() >= 0.0
        assert np.abs(problem.matrix @ x - problem.rhs).max() <= 1e-12
        plan = TransportPlan(eta, nu, problem.plan_mass(x))
        assert check_plan_causal(plan, tol=1e-12).causal
        support = problem.matrix[:, x > 1e-9]
        assert np.linalg.matrix_rank(support) == support.shape[1]
        warm = solve(problem)
        cold = solve_standard_form(problem.matrix, problem.rhs, problem.objective)
        assert warm.value == pytest.approx(cold.objective, abs=1e-9, rel=0)
        assert verify_optimality(problem, warm).ok
        assert certify(problem, problem.plan_mass(cold.x).ravel(), cold.duals).ok

    def test_product_plan_start_falls_back_to_cold(self):
        # The product plan is feasible but not basic: five support columns, four rows.
        eta, nu = uniform_on([0.0, 1.0, 2.0]), DiscreteMeasure([0.5, 10.0], [0.5, 0.5])
        problem = build_causal_lp(eta, nu, "abs")
        start = problem.variables(product_plan(eta, nu).mass)
        assert np.count_nonzero(start) > problem.n_rows
        lp = (problem.matrix, problem.rhs, problem.objective)
        sol = solve_standard_form(*lp, start=start)
        cold = solve_standard_form(*lp)
        assert sol.objective == cold.objective
        assert sol.iterations == cold.iterations
        assert sol.objective == pytest.approx(solve(problem).value, abs=1e-12)

    @pytest.mark.parametrize("atoms", [70, 80])
    def test_gamma_under_1000_pivots(self, atoms):
        # From the all-artificial basis these took 1,133 and 1,425 pivots.
        problem = build_causal_lp(discretize(Gamma(2, 0.01), atoms),
                                  discretize(Gamma(3, 0.01), atoms), "abs")
        result = solve(problem)
        assert result.status == "optimal"
        assert result.iterations < 1000
        assert verify_optimality(problem, result).ok

    def test_gamma_60_one_pivot_per_row(self):
        # The corner is optimal here: each row takes one crash or drive-out
        # pivot, and phase 2 none.
        problem = build_causal_lp(discretize(Gamma(2, 0.01), 60),
                                  discretize(Gamma(3, 0.01), 60), "abs")
        result = solve(problem)
        assert result.iterations == problem.n_rows
        assert verify_optimality(problem, result).ok


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
        monkeypatch.setattr(solver_module, "solve_standard_form",
                            solve_standard_form_with_corrupted_duals)
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

    def test_iteration_limit_passthrough(self, monkeypatch):
        monkeypatch.setattr(solver_module, "solve_standard_form",
                            functools.partial(solve_standard_form, max_iterations=1))
        eta, nu = random_instance(np.random.default_rng(1))
        problem = build_causal_lp(eta, nu, "abs")
        result = solve(problem)
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


@st.composite
def waiting_time_pairs(draw):
    """Law of X and the exact law of Y = min(X, tau), tau independent of X.

    X and tau live on one grid of 2-15 atoms; tau also puts mass on
    "never", where Y = X.  Atoms of Y with zero weight are dropped.
    """
    grid = np.sort(draw(st.lists(st.integers(0, 40), min_size=2, max_size=15,
                                 unique=True))) * 0.5
    n = grid.size
    x_w = np.asarray(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)
                          .filter(any)), dtype=float)
    tau_w = np.asarray(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                       dtype=float)
    never = draw(st.integers(1, 9))
    x_w /= x_w.sum()
    tau_w /= tau_w.sum() + never
    # Y = grid[min(k, l)] for X = grid[k], tau = grid[l]; "never" leaves Y = X.
    y_w = x_w * (1 - tau_w.sum())
    for k in range(n):
        for l in range(n):
            y_w[min(k, l)] += x_w[k] * tau_w[l]
    keep_x, keep_y = x_w > 0, y_w > 0
    return (DiscreteMeasure(grid[keep_x], x_w[keep_x]),
            DiscreteMeasure(grid[keep_y], y_w[keep_y]))


class TestWaitingTimeOracle:
    """Exact causal values from the waiting-time representation.

    With Z = 0, Y = min(X, tau) is a causal coupling with Y <= X, so it
    costs EX - EY under |x - y|, and no coupling costs less because
    E|X - Y| >= EX - EY.
    """

    @settings(max_examples=300, deadline=None)
    @given(waiting_time_pairs())
    def test_value_is_mean_gap(self, pair):
        eta, nu = pair
        result = solve_causal_transport(eta, nu, "abs")
        assert result.value == pytest.approx(eta.mean() - nu.mean(), abs=1e-9, rel=0)

    def test_uniform_pair_pays_for_causality(self):
        # U[1,2] -> U[0,3]: causal value 2/3 against 1/2 without causality.
        # 201 atoms put grid points on the kinks at 1 and 2.
        eta = discretize(Uniform(1.0, 2.0), 201)
        nu = discretize(Uniform(0.0, 3.0), 201)
        result = solve_causal_transport(eta, nu, "abs")
        assert result.value == pytest.approx(2 / 3, abs=1e-12, rel=0)
        classic, _ = classic_ot_1d(eta, nu)
        assert result.value - classic > 0.16


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
        assert any("enclosure width" in f for f in report.failures)

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

    def test_nan_duals_rejected(self):
        # Each check is written so that a NaN comparison fails it.
        problem, result = self.instance()
        report = certify(problem, result.plan.mass.ravel(),
                         np.full_like(result.duals, np.nan))
        assert report.failures == ["enclosure width nan"]

    def test_nan_mass_entry_rejected(self):
        problem, result = self.instance()
        mass = result.plan.mass.ravel().copy()
        mass[0] = np.nan
        report = certify(problem, mass, result.duals)
        assert not report.ok
        assert "negative mass nan" in report.failures
        assert "primal residual nan" in report.failures

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_table_rejected(self, bad):
        eta, nu = uniform_on([1.0, 2.0]), uniform_on([0.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            build_causal_lp(eta, nu, np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_non_optimal_status_rejected(self, monkeypatch):
        problem, _ = self.instance()
        monkeypatch.setattr(solver_module, "solve_standard_form",
                            functools.partial(solve_standard_form, max_iterations=1))
        limited = solve(problem)
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

    def test_short_dual_vector_reported(self):
        problem, result = self.instance()
        report = certify(problem, result.plan.mass.ravel(), result.duals[:-1])
        assert report.failures == ["dual vector has the wrong length"]

    def test_column_dual_vector_reported(self):
        problem, result = self.instance()
        report = certify(problem, result.plan.mass.ravel(), result.duals[:, None])
        assert report.failures == ["dual vector has the wrong length"]

    def test_missing_dual_vector_reported(self):
        problem, result = self.instance()
        report = certify(problem, result.plan.mass.ravel(), None)
        assert report.failures == ["no dual vector"]

    def test_solve_carries_its_certificate(self):
        problem, result = self.instance()
        report = verify_optimality(problem, result)
        assert result.certificate.ok
        assert_allclose(result.reduced_costs, report.reduced_costs, rtol=0, atol=0)
        assert result.primal_residual == report.primal_residual
        assert result.dual_gap == report.dual_gap
        assert result.lower_bound == report.lower_bound <= result.value
        assert result.to_dict()["lower_bound"] == result.lower_bound

    def test_random_instances_all_certify(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            eta, nu = random_instance(rng, max_atoms=6)
            problem = build_causal_lp(eta, nu, "abs")
            result = solve(problem)
            assert verify_optimality(problem, result).ok


@st.composite
def perturbed_optima(draw):
    """A solved instance with its plan or its duals perturbed, or the product plan.

    Bumps are 10^k with a non-integer k in [-12, 0], so no bump lands on
    one of the certificate's round thresholds, where the last bits of either
    form could decide the verdict.
    """
    eta, nu, cost = draw(st.one_of(instances(), tiny_weight_instances()))
    problem = build_causal_lp(eta, nu, cost)
    result = solve(problem)
    mass, duals = result.plan.mass.ravel(), result.duals.copy()
    kind = draw(st.sampled_from(["dual", "mass", "product"]))
    bump = (draw(st.sampled_from([-1.0, 1.0]))
            * 10.0 ** (draw(st.integers(-12, -1)) + draw(st.floats(0.05, 0.95))))
    if kind == "dual":
        duals[draw(st.integers(0, duals.size - 1))] += bump
    elif kind == "mass":
        mass = mass.copy()
        mass[draw(st.integers(0, mass.size - 1))] += bump
    else:
        mass = product_plan(eta, nu).mass.ravel()
    return problem, mass, duals


def failure_kinds(report):
    return [failure.rsplit(" ", 1)[0] for failure in report.failures]


class TestPlanLevelCertificate:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_optima())
    def test_verdict_is_sound_against_the_exact_optimum(self, case):
        # Weak duality makes L a lower bound for any finite duals; an
        # accepted plan costs at most tau * s above the optimum and, by the
        # docstring's residual bound, at most tau |y*|_1 plus its negative
        # entries' share of the optimal reduced costs r* below it.
        problem, mass, duals = case
        report = certify(problem, mass, duals)
        lp = rational_lp(problem)
        exact = solve_exact(lp)
        optimum = float(exact.value)
        scale = cost_scale(problem.cost_matrix)
        assert report.lower_bound <= optimum + ROUNDING * scale
        if not report.ok:
            return
        x = problem.variables(mass)
        value = float(np.vdot(problem.cost_matrix, problem.plan_mass(x)))
        assert value - optimum <= (_TOL + ROUNDING) * scale
        r_star = [float(c - sum(row[col] * y for row, y in zip(lp.matrix, exact.duals)))
                  for col, c in enumerate(lp.objective)]
        below = _TOL * sum(abs(float(y)) for y in exact.duals) + sum(
            -xc * rc for xc, rc in zip(x, r_star) if xc < 0)
        assert optimum - value <= below + ROUNDING * scale

    def test_reads_no_lp_matrix(self):
        problem, result = TestCertificates().instance()
        bare = LpProblem(problem.source, problem.target, problem.cost_matrix,
                         problem.shared, problem.pool, matrix=None, rhs=None,
                         objective=None)
        assert certify(bare, result.plan.mass.ravel(), result.duals).ok


def three_by_three():
    """The cost table on which an absolute pricing tolerance went wrong; optimum 17/6."""
    table = np.array([[4.0, 3.0, 4.0], [2.0, 3.0, 4.0], [3.0, 3.0, 2.0]])
    return uniform_on([0.0, 1.0, 2.0]), uniform_on([0.5, 1.5, 2.5]), table


@st.composite
def scaled_instances(draw):
    """An instance of ``instances()`` as a cost table, and a power of ten 10^k, |k| <= 12."""
    eta, nu, cost = draw(instances())
    return eta, nu, evaluate_cost(cost, eta.support, nu.support), 10.0 ** draw(st.integers(-12, 12))


class TestCostUnits:
    """The solve and its certificate give the same answer in any cost units."""

    @pytest.mark.parametrize("s", [1e-9, 1e9])
    def test_three_by_three_in_any_units(self, s):
        eta, nu, table = three_by_three()
        result = solve_causal_transport(eta, nu, table * s)
        assert result.value == pytest.approx(17 / 6 * s, rel=1e-12, abs=0)
        assert result.value - result.lower_bound <= _TOL * cost_scale(table * s)

    @pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
    def test_product_plan_with_zero_duals_rejected(self, s):
        eta, nu, table = three_by_three()
        problem = build_causal_lp(eta, nu, table * s)
        report = certify(problem, product_plan(eta, nu).mass.ravel(), np.zeros(problem.n_rows))
        assert failure_kinds(report) == ["enclosure width"]

    def test_zero_cost_certified_with_width_zero(self):
        eta, nu, _ = three_by_three()
        result = solve_causal_transport(eta, nu, np.zeros((3, 3)))
        assert result.certificate.ok
        assert result.value == result.lower_bound == 0.0

    def test_scale_is_the_power_of_two_at_or_above_the_largest_cost(self):
        assert cost_scale(np.zeros((2, 2))) == 1.0
        assert cost_scale(np.array([[0.5, 3.0]])) == 4.0
        assert cost_scale(np.array([[4.0]])) == 4.0
        assert cost_scale(np.array([[1e-9]])) == 2.0 ** -29

    @settings(max_examples=150, deadline=None)
    @given(scaled_instances())
    def test_value_scales_with_the_cost(self, case):
        eta, nu, table, s = case
        optimum = float(exact_solution(build_causal_lp(eta, nu, table)).value)
        result = solve_causal_transport(eta, nu, table * s)
        assert result.value == pytest.approx(optimum * s, rel=1e-12,
                                             abs=ROUNDING * cost_scale(table * s))

    @settings(max_examples=150, deadline=None)
    @given(instances(), st.data())
    def test_value_shifts_with_row_and_column_terms(self, instance, data):
        # Every plan has row sums w and column sums nu, so adding a_k to row k
        # and b_j to column j adds w'a + nu'b to every plan's cost.
        eta, nu, cost = instance
        table = evaluate_cost(cost, eta.support, nu.support)
        a = np.asarray(data.draw(st.lists(st.integers(0, 20), min_size=eta.n,
                                          max_size=eta.n))) * 0.25
        b = np.asarray(data.draw(st.lists(st.integers(0, 20), min_size=nu.n,
                                          max_size=nu.n))) * 0.25
        shifted = table + a[:, None] + b
        optimum = exact_solution(build_causal_lp(eta, nu, table)).value
        expected = float(optimum + sum(Fraction(w) * Fraction(t) for w, t in zip(eta.weights, a))
                         + sum(Fraction(v) * Fraction(t) for v, t in zip(nu.weights, b)))
        result = solve_causal_transport(eta, nu, shifted)
        scale = cost_scale(shifted)
        assert result.value == pytest.approx(expected, rel=1e-12, abs=ROUNDING * scale)
        assert result.value - result.lower_bound <= _TOL * scale

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_enclosure_holds_the_exact_optimum(self, instance):
        problem = build_causal_lp(*instance)
        result = solve(problem)
        optimum = float(exact_solution(problem).value)
        slack = ROUNDING * cost_scale(problem.cost_matrix)
        assert result.lower_bound <= optimum + slack
        assert optimum <= result.value + slack

    @settings(max_examples=150, deadline=None)
    @given(instances(), st.sampled_from(["abs", "square"]))
    def test_monge_corner_is_optimal(self, instance, cost):
        # Still empirical: no proof yet that the causal north-west corner is
        # optimal for every Monge cost.
        eta, nu, _ = instance
        problem = build_causal_lp(eta, nu, cost)
        optimum = float(exact_solution(problem).value)
        assert problem.objective @ problem.corner() == pytest.approx(
            optimum, rel=1e-12, abs=ROUNDING * cost_scale(problem.cost_matrix))


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
