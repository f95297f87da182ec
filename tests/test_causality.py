import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalot.causality import (check_cyclical_monotonicity, check_map_causal,
                                check_plan_causal)
from causalot.cli import exponential_mixture_plan
from causalot.measures import (DiscreteMeasure, Exponential, Gaussian,
                               discretize)
from causalot.plans import (TransportPlan, deterministic_plan, mix_plans,
                            product_plan)


def uniform_on(points):
    points = np.asarray(points, dtype=float)
    return DiscreteMeasure(points, np.full(points.size, 1.0 / points.size))


def brute_force_report(plan, tol) -> dict:
    """check_plan_causal's report, from every (j, k >= anchor) pair in turn."""
    cdf = plan.conditional_cdf_matrix()
    xs, ys = plan.source.support, plan.target.support
    max_dev = 0.0
    violations = []
    for j in range(ys.size):
        anchor = next((k for k in range(xs.size) if xs[k] > ys[j]), xs.size)
        if xs.size - anchor < 2:
            continue
        for k in range(anchor, xs.size):
            dev = abs(cdf[k, j] - cdf[anchor, j])
            max_dev = max(max_dev, dev)
            if dev > tol:
                violations.append({"j": j, "k": k, "dev": dev})
    return {"causal": max_dev <= tol, "max_deviation": max_dev,
            "tolerance": tol, "violations": violations}


@st.composite
def plans(draw):
    """Integer-valued plans on a half-integer grid, so ties x_k == y_j are common."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    xs = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m, unique=True))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m))
    mass = np.reshape(cells, (n, m)).astype(float)
    mass[mass.sum(axis=1) == 0, 0] = 1.0
    mass[0, mass.sum(axis=0) == 0] = 1.0
    mass /= mass.sum()
    eta = DiscreteMeasure(np.sort(xs) * 0.5, mass.sum(axis=1))
    nu = DiscreteMeasure(np.sort(ys) * 0.5, mass.sum(axis=0))
    if draw(st.booleans()):
        return product_plan(eta, nu)
    return TransportPlan(eta, nu, mass)


class TestAnchorConventions:
    def test_anchor_is_strictly_above(self):
        # The source atom at 1.0 ties the target atom and is no member of
        # its group, so it may disagree with the rows above it.
        eta = uniform_on([0.0, 1.0, 2.0, 3.0])
        plan = deterministic_plan(eta, [1.0, 1.0, 4.0, 4.0])
        report = check_plan_causal(plan, tol=0.0)
        assert report.causal
        assert report.max_deviation == 0.0
        # Rows 2 and 3 disagree: the anchor is row 2, so only row 3 offends.
        plan = deterministic_plan(eta, [1.0, 4.0, 1.0, 4.0])
        report = check_plan_causal(plan, tol=0.0)
        assert [(v.target_index, v.row) for v in report.violations] == [(0, 3)]

    def test_groups_with_fewer_than_two_rows_dropped(self):
        # Above 2.5 only one source atom remains; above 3.5 none.
        eta = uniform_on([0.0, 1.0, 2.0, 3.0])
        plan = deterministic_plan(eta, [2.5, 2.5, 3.5, 2.5])
        report = check_plan_causal(plan, tol=0.0)
        assert report.causal
        assert report.max_deviation == 0.0
        assert report.violations == []

    def test_target_strictly_below_everything(self):
        # Both sources sit above the target 0, so row 0 anchors its column.
        eta = uniform_on([1.0, 2.0])
        plan = deterministic_plan(eta, [0.0, 3.0])
        report = check_plan_causal(plan)
        assert [(v.target_index, v.row, v.deviation) for v in report.violations] == [
            (0, 1, 1.0)]

    def test_one_group_per_eligible_target_atom(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        plan = deterministic_plan(eta, [1.5, 0.5, 1.5])
        report = check_plan_causal(plan)
        assert [v.target_index for v in report.violations] == [0]
        assert [v.row for v in report.violations] == [2]

    @settings(max_examples=200, deadline=None)
    @given(plans(), st.sampled_from([0.0, 1e-9, 0.2]))
    def test_matches_brute_force(self, plan, tol):
        assert check_plan_causal(plan, tol=tol).to_dict() == brute_force_report(plan, tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.2])
    @pytest.mark.parametrize("reversed_weight", [0.0, 0.5])
    def test_matches_brute_force_on_mixtures(self, tol, reversed_weight):
        # 12 x 154 atoms; mixing in the order-reversing map makes violations
        # in many columns, and at tol 0 rounding noise adds more.
        plan = exponential_mixture_plan(0.01, 0.02, 700.0, 12)
        if reversed_weight:
            flipped = deterministic_plan(plan.source, plan.source.support[::-1])
            plan = mix_plans([(1.0 - reversed_weight, plan), (reversed_weight, flipped)])
        expected = brute_force_report(plan, tol)
        assert expected["violations"] or not reversed_weight
        assert check_plan_causal(plan, tol=tol).to_dict() == expected


class TestCheckPlanCausal:
    def test_product_plan_exactly_causal(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        nu = DiscreteMeasure([0.0, 5.0], [0.3, 0.7])
        report = check_plan_causal(product_plan(eta, nu), tol=0.0)
        assert report.causal
        assert report.max_deviation == 0.0

    def test_shift_permutation_not_causal(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        plan = deterministic_plan(eta, [2.0, 0.0, 1.0])
        report = check_plan_causal(plan)
        assert not report.causal
        assert report.max_deviation == pytest.approx(1.0)
        assert report.violations

    def test_comonotone_identity_causal(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        plan = deterministic_plan(eta, [0.0, 1.0, 2.0])
        assert check_plan_causal(plan, tol=0.0).causal

    def test_mixture_of_causal_plans_stays_causal(self):
        eta = uniform_on([0.0, 1.0, 2.0, 3.0])
        a = product_plan(eta, DiscreteMeasure([5.0], [1.0]))
        b = deterministic_plan(eta, eta.support + 2.0)
        c = product_plan(eta, eta)
        mixed = mix_plans([(0.5, a), (0.3, b), (0.2, c)])
        report = check_plan_causal(mixed, tol=0.0)
        assert report.causal

    def test_report_dict_shape(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        plan = deterministic_plan(eta, [2.0, 0.0, 1.0])
        d = check_plan_causal(plan).to_dict()
        assert d["causal"] is False
        assert {"j", "k", "dev"} <= set(d["violations"][0])

    def test_rejects_negative_tolerance(self):
        eta = uniform_on([0.0, 1.0])
        with pytest.raises(ValueError):
            check_plan_causal(product_plan(eta, eta), tol=-1.0)

    def test_rejects_nan_tolerance(self):
        # A NaN tolerance would fail every `dev <= tol`.
        eta = uniform_on([0.0, 1.0])
        with pytest.raises(ValueError, match="tolerance"):
            check_plan_causal(product_plan(eta, eta), tol=float("nan"))


class TestCheckMapCausal:
    def test_shift_up_is_above_diagonal(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        report = check_map_causal(eta, [0.5, 1.5, 2.5])
        assert report.causal
        assert report.branch == "above-diagonal"

    def test_constant_map_truncated(self):
        eta = uniform_on([0.0, 400.0, 900.0])
        report = check_map_causal(eta, [700.0, 700.0, 700.0])
        assert report.causal
        assert report.branch == "truncated"
        assert report.t0 == 700.0

    def test_hold_after_cut_truncated(self):
        eta = uniform_on([0.0, 1.0, 2.0, 3.0])
        report = check_map_causal(eta, [0.5, 1.5, 1.5, 1.5])
        assert report.causal
        assert report.branch == "truncated"
        assert report.t0 == 1.5

    def test_shift_permutation_rejected(self):
        eta = uniform_on([0.0, 1.0, 2.0])
        report = check_map_causal(eta, [2.0, 0.0, 1.0])
        assert not report.causal
        assert report.offending_mass > 0

    def test_tolerance_admits_small_offending_mass(self):
        eta = DiscreteMeasure([0.0, 1.0, 2.0], [0.005, 0.495, 0.5])
        values = [-1.0, 1.5, 2.5]  # only the tiny first atom dips below
        assert not check_map_causal(eta, values).causal
        assert check_map_causal(eta, values, tol=0.01).causal

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            check_map_causal(uniform_on([0.0, 1.0]), [0.5, 1.5], tol=tol)

    def test_agrees_with_plan_check_on_random_maps(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(2, 7)
            support = np.sort(rng.normal(size=n) * 2)
            if np.any(np.diff(support) <= 1e-9):
                continue
            eta = DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
            values = np.round(rng.normal(size=n) * 2, 3)
            by_map = check_map_causal(eta, values).causal
            by_plan = check_plan_causal(deterministic_plan(eta, values),
                                        tol=1e-12).causal
            assert by_map == by_plan, (support, values)


AFFINE_GRID = [(a, b) for a in (-1.0, 0.0, 0.5, 1.0, 2.0) for b in (-1.0, 0.0, 1.0)]


def affine_causal_on_gaussian(a, b):
    return a == 0.0 or (a == 1.0 and b >= 0.0)


def affine_causal_on_exponential(a, b):
    return a == 0.0 or (a >= 1.0 and b >= 0.0)


class TestAffineMaps:
    @pytest.mark.parametrize("a,b", AFFINE_GRID)
    def test_gaussian_grid(self, a, b):
        eta = discretize(Gaussian(0.0, 1.0), 200)
        report = check_map_causal(eta, a * eta.support + b)
        assert report.causal == affine_causal_on_gaussian(a, b), (a, b)

    @pytest.mark.parametrize("a,b", AFFINE_GRID)
    def test_exponential_grid(self, a, b):
        eta = discretize(Exponential(1.0), 200)
        report = check_map_causal(eta, a * eta.support + b)
        assert report.causal == affine_causal_on_exponential(a, b), (a, b)

    def test_grid_counts(self):
        gauss = discretize(Gaussian(0.0, 1.0), 200)
        expo = discretize(Exponential(1.0), 200)
        n_gauss = sum(check_map_causal(gauss, a * gauss.support + b).causal
                      for a, b in AFFINE_GRID)
        n_expo = sum(check_map_causal(expo, a * expo.support + b).causal
                     for a, b in AFFINE_GRID)
        assert n_gauss == 5
        assert n_expo == 7


class TestCyclicalMonotonicity:
    def test_crossed_assignment_flagged_under_square_cost(self):
        eta = uniform_on([0.0, 1.0])
        plan = deterministic_plan(eta, [11.0, 10.0])
        report = check_cyclical_monotonicity(plan, "square")
        assert not report.ok
        # identity costs 121 + 81, the swap 100 + 100
        assert report.worst_violation == pytest.approx(2.0)
        assert report.witness is not None
        assert sorted(report.witness.permutation) == [0, 1]

    def test_sorted_assignment_passes(self):
        eta = uniform_on([0.0, 1.0])
        plan = deterministic_plan(eta, [10.0, 11.0])
        report = check_cyclical_monotonicity(plan, "square")
        assert report.ok
        assert report.witness is None

    def test_only_subsets_fully_below_targets_count(self):
        # The crossing happens at pairs whose x is not below both y values,
        # so no eligible subset exists and the check passes.
        eta = uniform_on([0.0, 10.0])
        plan = deterministic_plan(eta, [11.0, 5.0])
        report = check_cyclical_monotonicity(plan, "square")
        assert report.ok
        assert report.subsets_checked == 0

    def test_mass_tol_screens_dust(self):
        eta = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        nu = DiscreteMeasure([10.0, 11.0], [0.5, 0.5])
        mass = np.array([[0.5 - 1e-12, 1e-12], [1e-12, 0.5 - 1e-12]])
        plan = TransportPlan(eta, nu, mass)
        report = check_cyclical_monotonicity(plan, "square", mass_tol=1e-9)
        assert report.subsets_checked == 1

    def test_subset_size_bounds(self):
        eta = uniform_on([0.0, 1.0])
        plan = deterministic_plan(eta, [10.0, 11.0])
        with pytest.raises(ValueError):
            check_cyclical_monotonicity(plan, "square", max_subset=1)
        with pytest.raises(ValueError):
            check_cyclical_monotonicity(plan, "square", max_subset=6)

    def test_three_cycle_detected(self):
        # 0 -> 12, 1 -> 10, 2 -> 11 improves by rotating to the sorted match.
        eta = uniform_on([0.0, 1.0, 2.0])
        plan = deterministic_plan(eta, [12.0, 10.0, 11.0])
        report = check_cyclical_monotonicity(plan, "square", max_subset=3)
        assert not report.ok
