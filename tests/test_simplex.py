"""The dense two-phase solver against scipy's linprog as a reference.

linprog (HiGHS) is used here purely as an independent oracle; the library
itself never calls it.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from causalot.simplex import SimplexSettings, solve_standard_form


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
    sol = solve_standard_form(A, b, c, SimplexSettings(max_iterations=0))
    assert sol.status == "iteration-limit"
    assert sol.x is None


@pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
def test_settings_reject_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="nonnegative"):
        SimplexSettings(tolerance=tolerance)


def test_beale_degenerate_cycle_terminates():
    # A classic tableau that cycles under naive largest-coefficient pricing.
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


def test_duals_close_strong_duality():
    A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    sol = solve_standard_form(A, b, c)
    assert sol.status == "optimal"
    assert b @ sol.duals == pytest.approx(sol.objective, abs=1e-9)
    assert sol.reduced_costs.min() >= -1e-9
    assert sol.primal_residual < 1e-9
    assert sol.dual_gap < 1e-8


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
        assert sol.primal_residual < 1e-8
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
