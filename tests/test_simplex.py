"""The dense two-phase solver against scipy's linprog as a reference.

linprog (HiGHS) is used here purely as an independent oracle; the library
itself never calls it.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from causalot.simplex import solve_standard_form


def test_two_variable_by_hand():
    # min x + 2y subject to x + y = 1
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 2.0])
    sol = solve_standard_form(A, b, c)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert_allclose(sol.x, [1.0, 0.0])


def test_negative_rhs_rows_are_flipped():
    A = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-2.0, 3.0])
    c = np.array([1.0, 1.0])
    sol = solve_standard_form(A, b, c)
    assert sol.status == "optimal"
    assert_allclose(sol.x, [2.0, 3.0])
    assert sol.objective == pytest.approx(5.0)
    # The rows are negated in the tableau only: the caller's data stay as
    # they were, and the duals solve A'y = c in the caller's signs.
    assert np.array_equal(A, [[-1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(b, [-2.0, 3.0])
    assert_allclose(sol.duals, [-1.0, 1.0])


def test_infeasible_detected():
    A = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    c = np.array([1.0, 1.0])
    assert solve_standard_form(A, b, c).status == "infeasible"


def test_unbounded_raises():
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    with pytest.raises(RuntimeError, match="unbounded"):
        solve_standard_form(A, b, c)


def test_iteration_limit_reported():
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([3.0, 2.0, 1.0])
    sol = solve_standard_form(A, b, c, max_iterations=0)
    assert sol.status == "iteration-limit"
    assert sol.x is None


def test_beale_degenerate_cycle_terminates():
    # A classic tableau that cycles under largest-coefficient pricing with the
    # first row on ties.  The ratio test here breaks ties by the largest pivot
    # entry, which already avoids that cycle, so Bland's rule is not reached.
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    sol = solve_standard_form(A, b, c)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-12)


def test_kuhn_cycle_reaches_blands_rule():
    # The cycling example credited to Kuhn: Dantzig pricing with the
    # largest-pivot tie rule cycles through degenerate bases here, and only
    # the switch to Bland's rule leaves the cycle, after 20 pivots in all.
    A = np.array([
        [-2.0, -9.0, 1.0, 9.0, 1.0, 0.0, 0.0],
        [1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0, 0.0, 1.0, 0.0],
        [2.0, 3.0, -1.0, -12.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 2.0])
    c = np.array([-2.0, -3.0, 1.0, 12.0, 0.0, 0.0, 0.0])
    sol = solve_standard_form(A, b, c, max_iterations=1000)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-12)
    assert sol.objective == pytest.approx(linprog(c, A_eq=A, b_eq=b, method="highs").fun,
                                          abs=1e-12)
    assert np.abs(A @ sol.x - b).max() < 1e-12


def test_duals_close_strong_duality():
    A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    sol = solve_standard_form(A, b, c)
    assert sol.status == "optimal"
    assert b @ sol.duals == pytest.approx(sol.objective, abs=1e-9)
    assert (c - A.T @ sol.duals).min() >= -1e-9
    assert np.abs(A @ sol.x - b).max() < 1e-9
    assert abs(sol.objective - b @ sol.duals) < 1e-8


@pytest.mark.parametrize("seed", range(25))
def test_matches_reference_solver_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 7))
    n = int(rng.integers(k + 1, k + 8))
    A = rng.normal(size=(k, n))
    feasible = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
    b = A @ feasible
    c = rng.normal(size=n) + 1.0
    ref = linprog(c, A_eq=A, b_eq=b, method="highs")
    try:
        sol = solve_standard_form(A, b, c)
    except RuntimeError:
        assert ref.status == 3  # unbounded
        return
    if ref.status == 0:
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
        assert np.abs(A @ sol.x - b).max() < 1e-8
    elif ref.status == 2:
        assert sol.status == "infeasible"


def test_degenerate_rhs_zeros():
    # Multiple zero right-hand sides force degenerate pivots.
    A = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 3.0])
    c = np.array([1.0, 1.0, 1.0, 4.0])
    sol = solve_standard_form(A, b, c)
    ref = linprog(c, A_eq=A, b_eq=b, method="highs")
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)


class TestStart:
    # min x0 + 2 x1 + 3 x2  s.t.  x0 + x1 = 1,  x1 + x2 = 1: optimum (0, 1, 0), value 2.
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 2.0, 3.0])

    def test_vertex_start_counts_crash_pivots(self):
        sol = solve_standard_form(self.A, self.b, self.c, start=[1.0, 0.0, 1.0])
        cold = solve_standard_form(self.A, self.b, self.c)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0)
        assert_allclose(sol.x, cold.x)
        # Two crash pivots, then one phase-2 pivot to the optimum.
        assert sol.iterations == 3

    def test_optimal_vertex_start_needs_no_other_pivot(self):
        sol = solve_standard_form(self.A, self.b, self.c, start=[0.0, 1.0, 0.0])
        assert sol.objective == pytest.approx(2.0)
        # One crash pivot; the artificial left in the other row is driven out.
        assert sol.iterations == 2

    def test_non_basic_start_refused(self):
        # Three support columns for two rows: the third finds no artificial row.
        with pytest.raises(ValueError, match="start is not a basis"):
            solve_standard_form(self.A, self.b, self.c, start=[0.5, 0.5, 0.5])

    def test_negative_basic_values_refused(self):
        # The only solution is x = (2, -1), so the crash basis {x0, x1}
        # carries a negative value.
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([1.0, 3.0])
        with pytest.raises(ValueError, match="start is not a feasible basis"):
            solve_standard_form(A, b, [1.0, 1.0], start=[1.0, 1.0])

    def test_phase_one_leftover_is_infeasible(self):
        # x1 = 3 leaves x0 + 2 x2 = -2.  The crash basis {x2} has a nonnegative
        # right-hand side, and phase 1 from it reaches the same verdict as
        # from the all-artificial basis.
        A = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 0.0]])
        b = np.array([1.0, 3.0])
        c = np.ones(3)
        assert solve_standard_form(A, b, c, start=[0.0, 0.0, 1.0]).status == "infeasible"
        assert solve_standard_form(A, b, c).status == "infeasible"

    def test_crash_pivots_count_against_the_limit(self):
        sol = solve_standard_form(self.A, self.b, self.c, start=[1.0, 0.0, 1.0],
                                  max_iterations=1)
        assert sol.status == "iteration-limit"
        assert sol.iterations == 1

    def test_start_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="start"):
            solve_standard_form(self.A, self.b, self.c, start=[1.0, 0.0])
