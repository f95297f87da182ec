import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from causalot.measures import (SUPPORT_DECIMALS, Dirac, DiscreteMeasure, Exponential,
                               Uniform)
from causalot.plans import (TransportPlan, brownian_passage_conditional_cdf,
                            conditional_cdf_grid, deterministic_plan,
                            evaluate_cost, independent_sum_plan, mix_plans,
                            product_plan)

# 1 - erf(u) recomputed from the alternating series for erf, frozen here.
ONE_MINUS_ERF_1 = 0.15729920705028522
ONE_MINUS_ERF_HALF = 0.4795001221869535


def two_by_two():
    eta = DiscreteMeasure([0.0, 1.0], [0.4, 0.6])
    nu = DiscreteMeasure([2.0, 3.0], [0.5, 0.5])
    mass = np.array([[0.3, 0.1], [0.2, 0.4]])
    return TransportPlan(eta, nu, mass)


class TestTransportPlan:
    def test_rejects_marginal_mismatch(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.4, 0.6])
        nu = DiscreteMeasure([2.0, 3.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="row sums deviate"):
            TransportPlan(eta, nu, np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_rejects_negative_mass(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            TransportPlan(eta, eta, np.array([[0.6, -0.1], [-0.1, 0.6]]))

    def test_rejects_nan_mass(self):
        # NaN compares False against the floor and both marginal bounds.
        eta = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
        nu = DiscreteMeasure([0.0, 3.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            TransportPlan(eta, nu, np.array([[np.nan, 0.5], [0.25, 0.25]]))

    def test_clamps_tiny_negative_mass(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        mass = np.array([[0.5, -1e-14], [1e-14, 0.5]])
        plan = TransportPlan(eta, eta, mass)
        assert np.all(plan.mass >= 0)

    def test_rejects_shape_mismatch(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="shape"):
            TransportPlan(eta, eta, np.eye(3) / 3)

    def test_conditional_cdf_matrix_by_hand(self):
        plan = two_by_two()
        expected = np.array([[0.75, 1.0], [1.0 / 3.0, 1.0]])
        assert_allclose(plan.conditional_cdf_matrix(), expected)

    def test_cost_with_builtin_names(self):
        plan = two_by_two()
        direct = sum(plan.mass[i, j] * abs(plan.source.support[i] - plan.target.support[j])
                     for i in range(2) for j in range(2))
        assert plan.cost("abs") == pytest.approx(direct)
        assert plan.cost("square") > 0

    def test_dict_round_trip(self):
        plan = two_by_two()
        again = TransportPlan.from_dict(plan.to_dict())
        assert_allclose(again.mass, plan.mass)
        assert_allclose(again.source.support, plan.source.support)


class TestEvaluateCost:
    def test_callable_broadcast(self):
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 2.0])
        table = evaluate_cost(lambda x, y: (x - y) ** 2, xs, ys)
        assert_allclose(table, [[0.0, 4.0], [1.0, 1.0]])

    def test_matrix_passthrough_checks_shape(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            evaluate_cost(np.zeros((3, 3)), xs, xs)

    def test_rejects_negative_entries(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="negative"):
            evaluate_cost(lambda x, y: x - y, xs, xs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            evaluate_cost([[bad, 1.0], [1.0, 0.0]], xs, xs)

    def test_plan_cost_rejects_infinite_table(self):
        plan = two_by_two()
        with pytest.raises(ValueError, match="finite"):
            plan.cost(np.full((2, 2), np.inf))


class TestConstructors:
    def test_product_plan_is_outer(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.3, 0.7])
        nu = DiscreteMeasure([5.0, 6.0], [0.5, 0.5])
        plan = product_plan(eta, nu)
        assert_allclose(plan.mass, np.outer(eta.weights, nu.weights))

    def test_deterministic_plan_merges_collisions(self):
        eta = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        plan = deterministic_plan(eta, [5.0, 5.0, 9.0])
        assert_allclose(plan.target.support, [5.0, 9.0])
        assert_allclose(plan.target.weights, [0.5, 0.5])
        assert_allclose(plan.mass[:, 0], [0.2, 0.3, 0.0])

    def test_mix_plans_blends_mass(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        a = deterministic_plan(eta, [2.0, 2.0])
        b = deterministic_plan(eta, [3.0, 4.0])
        mixed = mix_plans([(0.25, a), (0.75, b)])
        assert_allclose(mixed.target.support, [2.0, 3.0, 4.0])
        assert_allclose(mixed.mass[0], [0.125, 0.375, 0.0])
        assert_allclose(mixed.mass[1], [0.125, 0.0, 0.375])

    def test_mix_plans_rejects_weights_off_one(self):
        eta = DiscreteMeasure([0.0], [1.0])
        p = product_plan(eta, eta)
        with pytest.raises(ValueError, match="sum"):
            mix_plans([(0.5, p), (0.4, p)])

    def test_mix_plans_rejects_different_sources(self):
        a = product_plan(DiscreteMeasure([0.0], [1.0]), DiscreteMeasure([1.0], [1.0]))
        b = product_plan(DiscreteMeasure([2.0], [1.0]), DiscreteMeasure([1.0], [1.0]))
        with pytest.raises(ValueError, match="source"):
            mix_plans([(0.5, a), (0.5, b)])

    def test_independent_sum_never_moves_left(self):
        plan = independent_sum_plan(Exponential(0.01), Exponential(0.005), 12, 12)
        xs = plan.source.support[:, None]
        ys = plan.target.support[None, :]
        assert np.all(plan.mass[ys < xs] == 0)

    def test_independent_sum_mean_shift(self):
        plan = independent_sum_plan(Exponential(1.0), Dirac(3.0), 40, 1)
        assert plan.target.mean() == pytest.approx(plan.source.mean() + 3.0)

    def test_independent_sum_rejects_signed_increment(self):
        with pytest.raises(ValueError, match="increment"):
            independent_sum_plan(Exponential(1.0), Uniform(-1.0, 1.0), 5, 5)


# 1.0 and 1.0 + 1e-14 are distinct atoms that round to one at 12 decimals.
COORDS = [0.0, 0.5, 1.0, 1.0 + 1e-14, 2.0, 3.5]


@st.composite
def sources(draw):
    n = draw(st.integers(1, 4))
    xs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n, unique=True))
    ws = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return DiscreteMeasure(np.sort(xs) * 0.5, np.asarray(ws) / sum(ws))


@st.composite
def component_plans(draw, source):
    """A deterministic plan (ties allowed) or a product plan onto atoms from COORDS."""
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(COORDS), min_size=source.n,
                               max_size=source.n))
        return deterministic_plan(source, values)
    ys = draw(st.lists(st.sampled_from(COORDS), min_size=1, max_size=4, unique=True))
    vs = draw(st.lists(st.integers(1, 9), min_size=len(ys), max_size=len(ys)))
    return product_plan(source, DiscreteMeasure(np.sort(ys), np.asarray(vs) / sum(vs)))


@st.composite
def mixtures(draw):
    source = draw(sources())
    plans = draw(st.lists(component_plans(source), min_size=1, max_size=3))
    ks = draw(st.lists(st.integers(1, 4), min_size=len(plans), max_size=len(plans)))
    return [(k / sum(ks), plan) for k, plan in zip(ks, plans)]


def accumulate(n, cells):
    """Dense mass and target support from (weight, row, coordinate, mass) cells.

    A dict keyed by (row, rounded coordinate) adds each cell's weighted
    mass in the order given.
    """
    sums = {}
    for w, i, y, mass in cells:
        key = (i, float(np.round(y, SUPPORT_DECIMALS)))
        sums[key] = sums.get(key, 0.0) + w * mass
    support = sorted({y for _, y in sums})
    dense = np.zeros((n, len(support)))
    for (i, y), mass in sums.items():
        dense[i, support.index(y)] = mass
    return dense, support


class TestCellScatter:
    @settings(max_examples=200, deadline=None)
    @given(sources(), st.data())
    def test_deterministic_plan_matches_dict(self, source, data):
        values = data.draw(st.lists(st.sampled_from(COORDS), min_size=source.n,
                                    max_size=source.n))
        plan = deterministic_plan(source, values)
        mass, support = accumulate(source.n, [(1.0, i, values[i], source.weights[i])
                                              for i in range(source.n)])
        assert_array_equal(plan.target.support, support)
        assert_array_equal(plan.mass, mass)
        assert_allclose(plan.target.weights, mass.sum(axis=0), rtol=1e-15, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(mixtures())
    def test_mix_plans_matches_dict(self, components):
        mixed = mix_plans(components)
        n = components[0][1].n
        cells = [(w, i, plan.target.support[j], plan.mass[i, j])
                 for w, plan in components for i in range(n) for j in range(plan.m)
                 if plan.mass[i, j] > 0]
        mass, support = accumulate(n, cells)
        assert_array_equal(mixed.target.support, support)
        assert_array_equal(mixed.mass, mass)
        assert_allclose(mixed.target.weights, mass.sum(axis=0), rtol=1e-15, atol=0)

    def test_mix_plans_rejects_atom_without_mass(self):
        eta = DiscreteMeasure([0.0], [1.0])
        # Column 2 is empty, which its 1e-12 weight lets the plan accept.
        starved = TransportPlan(eta, DiscreteMeasure([1.0, 2.0], [1 - 1e-12, 1e-12]),
                                [[1 - 1e-12, 0.0]])
        with pytest.raises(ValueError, match="strictly positive"):
            mix_plans([(1.0, starved)])
        fed = mix_plans([(0.5, starved), (0.5, product_plan(eta, DiscreteMeasure([2.0], [1.0])))])
        assert_array_equal(fed.target.support, [1.0, 2.0])


class TestBrownianPassage:
    def test_zero_at_and_below_diagonal(self):
        assert brownian_passage_conditional_cdf(6.0, 11.0, 5.0, 5.0) == 0.0
        assert brownian_passage_conditional_cdf(6.0, 11.0, 5.0, 1.0) == 0.0

    def test_frozen_series_values(self):
        # gap 5, y - x = 12.5 puts the argument at exactly 1
        assert brownian_passage_conditional_cdf(6.0, 11.0, 0.0, 12.5) == pytest.approx(
            ONE_MINUS_ERF_1, abs=1e-12)
        # gap 5, y - x = 50 puts it at 1/2
        assert brownian_passage_conditional_cdf(6.0, 11.0, 0.0, 50.0) == pytest.approx(
            ONE_MINUS_ERF_HALF, abs=1e-12)

    def test_vectorized_and_monotone_in_y(self):
        ys = np.linspace(0.0, 400.0, 200)
        vals = brownian_passage_conditional_cdf(6.0, 11.0, 2.0, ys)
        assert vals.shape == ys.shape
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            brownian_passage_conditional_cdf(11.0, 6.0, 0.0, 1.0)


class TestConditionalCdfGrid:
    def test_layout_and_values(self):
        plan = two_by_two()
        rows = conditional_cdf_grid(plan, [0.0, 1.0], [1.0, 2.0, 3.5])
        assert rows.shape == (6, 3)
        assert_allclose(rows[:, 0], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert_allclose(rows[:, 1], [1.0, 2.0, 3.5, 1.0, 2.0, 3.5])
        assert_allclose(rows[:, 2], [0.0, 0.75, 1.0, 0.0, 1.0 / 3.0, 1.0])

    def test_off_grid_x_uses_nearest_atom(self):
        plan = two_by_two()
        rows = conditional_cdf_grid(plan, [-5.0, 0.2, 0.8, 7.0], [2.0])
        assert_allclose(rows[:, 2], [0.75, 0.75, 1.0 / 3.0, 1.0 / 3.0])
