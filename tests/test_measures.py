import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from causalot.measures import (Dirac, DiscreteMeasure, Exponential, Gamma,
                               Gaussian, LevyFirstPassage, Uniform, discretize,
                               draw, family_from_dict, family_to_dict,
                               merge_atoms, sample)

# Quantiles recomputed by bisection on the closed-form CDFs, kept here so the
# library values are checked against an independent route.
GAMMA2_MEDIAN = 1.6783469900166605
GAMMA3_Q75 = 3.9204020602925596
EXP_Q25 = 0.2876820724517809
EXP_Q75 = 1.3862943611198906
PHI_ONE = 0.8413447460685428


class TestMergeAtoms:
    def test_sorts_and_merges_duplicates(self):
        support, weights = merge_atoms([2.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert_allclose(support, [1.0, 2.0])
        assert_allclose(weights, [0.5, 0.5])

    def test_merges_after_rounding(self):
        a = 1.0
        b = 1.0 + 1e-14
        support, weights = merge_atoms([a, b], [0.4, 0.6])
        assert support.size == 1
        assert_allclose(weights, [1.0])

    def test_drops_zero_weight(self):
        support, weights = merge_atoms([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert_allclose(support, [1.0, 3.0])


class TestDiscreteMeasure:
    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError, match="increasing"):
            DiscreteMeasure([2.0, 1.0], [0.5, 0.5])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteMeasure([1.0, 2.0], [1.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, np.inf], [0.5, 0.5])

    def test_weight_sum_within_tight_tolerance_kept(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5 + 1e-13])
        assert m.weights[1] == 0.5 + 1e-13

    def test_weight_sum_within_loose_tolerance_renormalized(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5 + 1e-10])
        assert math.isclose(m.weights.sum(), 1.0, abs_tol=1e-15)

    def test_weight_sum_off_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure([0.0, 1.0], [0.5, 0.6])

    def test_cdf_right_continuous_step(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert m.cdf(-0.5) == 0.0
        assert m.cdf(0.0) == pytest.approx(0.2)
        assert m.cdf(0.999) == pytest.approx(0.2)
        assert m.cdf(1.0) == pytest.approx(0.5)
        assert m.cdf(5.0) == pytest.approx(1.0)

    def test_quantile_leftmost_atom(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        assert m.quantile(0.1) == 0.0
        assert m.quantile(0.2) == 0.0
        assert m.quantile(0.21) == 1.0
        assert m.quantile(1.0) == 2.0

    @pytest.mark.parametrize("p", [0.0, 1.5, float("nan")])
    def test_quantile_rejects_levels_outside_unit_interval(self, p):
        m = DiscreteMeasure([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="quantile levels"):
            m.quantile(p)
        with pytest.raises(ValueError, match="quantile levels"):
            m.quantile([0.5, p])

    def test_quantile_cdf_galois(self):
        rng = np.random.default_rng(3)
        support = np.sort(rng.normal(size=7))
        weights = rng.dirichlet(np.ones(7))
        m = DiscreteMeasure(support, weights)
        for p in rng.uniform(0.01, 1.0, size=50):
            q = m.quantile(p)
            assert m.cdf(q) >= p - 1e-12
            below = support[support < q]
            if below.size:
                assert m.cdf(below[-1]) < p

    def test_mean(self):
        m = DiscreteMeasure([0.0, 10.0], [0.75, 0.25])
        assert m.mean() == pytest.approx(2.5)

    def test_dict_round_trip(self):
        m = DiscreteMeasure([0.5, 1.5], [0.4, 0.6])
        again = DiscreteMeasure.from_dict(m.to_dict())
        assert_allclose(again.support, m.support)
        assert_allclose(again.weights, m.weights)

    def test_arrays_read_only(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            m.support[0] = 3.0


class TestFamilies:
    @pytest.mark.parametrize("family", [Exponential, lambda rate: Gamma(2, rate)])
    @pytest.mark.parametrize("rate", [0.0, np.inf, np.nan])
    def test_rate_must_be_positive_and_finite(self, family, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            family(rate)

    def test_exponential_quantiles(self):
        e = Exponential(1.0)
        assert e.quantile(0.25) == pytest.approx(EXP_Q25, abs=1e-15)
        assert e.quantile(0.75) == pytest.approx(EXP_Q75, abs=1e-15)
        assert Exponential(2.0).quantile(0.75) == pytest.approx(EXP_Q75 / 2)

    def test_exponential_cdf_quantile_inverse(self):
        e = Exponential(0.01)
        for p in (0.01, 0.3, 0.7, 0.999):
            assert e.cdf(e.quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_gamma_median_matches_bisection(self):
        assert Gamma(2, 1.0).quantile(0.5) == pytest.approx(GAMMA2_MEDIAN, abs=1e-12)
        assert Gamma(2, 0.01).quantile(0.5) == pytest.approx(100 * GAMMA2_MEDIAN,
                                                             rel=1e-12)
        assert Gamma(3, 1.0).quantile(0.75) == pytest.approx(GAMMA3_Q75, abs=1e-12)

    def test_gamma_shape_one_is_exponential(self):
        g, e = Gamma(1, 0.5), Exponential(0.5)
        for t in (0.1, 1.0, 5.0):
            assert g.cdf(t) == pytest.approx(e.cdf(t), abs=1e-14)

    def test_gamma_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Gamma(0, 1.0)

    def test_gamma_mean(self):
        assert Gamma(2, 0.01).mean == pytest.approx(200.0)

    def test_gaussian_cdf(self):
        g = Gaussian(0.0, 1.0)
        assert g.cdf(0.0) == pytest.approx(0.5)
        assert g.cdf(1.0) == pytest.approx(PHI_ONE, abs=1e-12)
        assert g.quantile(PHI_ONE) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_location_scale(self):
        g = Gaussian(3.0, 4.0)
        assert g.cdf(3.0 + 2.0) == pytest.approx(PHI_ONE, abs=1e-12)

    def test_uniform_linear(self):
        u = Uniform(2.0, 6.0)
        assert u.cdf(3.0) == pytest.approx(0.25)
        assert u.quantile(0.25) == pytest.approx(3.0)
        assert u.mean == pytest.approx(4.0)

    def test_dirac(self):
        d = Dirac(7.0)
        assert d.cdf(6.999) == 0.0
        assert d.cdf(7.0) == 1.0
        assert d.quantile(0.5) == 7.0

    def test_levy_cdf_matches_density_numerically(self):
        # d/dt erfc(b / sqrt(2 t)) should equal b exp(-b^2/(2t)) / sqrt(2 pi t^3)
        lv = LevyFirstPassage(6.0)
        for t in (10.0, 36.0, 100.0):
            h = 1e-5 * t
            numeric = (lv.cdf(t + h) - lv.cdf(t - h)) / (2 * h)
            density = 6.0 / math.sqrt(2 * math.pi * t**3) * math.exp(-36.0 / (2 * t))
            assert numeric == pytest.approx(density, rel=1e-6)

    def test_levy_quantile_round_trip(self):
        lv = LevyFirstPassage(2.0)
        for p in (0.05, 0.5, 0.95):
            assert lv.cdf(lv.quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_levy_mean_infinite(self):
        assert math.isinf(LevyFirstPassage(1.0).mean)

    @pytest.mark.parametrize("spec", [
        Exponential(0.3), Gamma(4, 2.0), Gaussian(-1.0, 2.5),
        Dirac(5.0), Uniform(-1.0, 1.0), LevyFirstPassage(3.0),
    ])
    def test_family_dict_round_trip(self, spec):
        assert family_from_dict(family_to_dict(spec)) == spec

    def test_family_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="family"):
            family_from_dict({"family": "cauchy", "scale": 1.0})

    def test_family_from_dict_rejects_fractional_gamma_shape(self):
        with pytest.raises(ValueError):
            family_from_dict({"family": "gamma", "shape": 2.5, "rate": 1.0})


class TestDiscretize:
    def test_quantile_scheme_atoms(self):
        e = Exponential(1.0)
        m = discretize(e, 4)
        expected = [e.quantile((k + 0.5) / 4) for k in range(4)]
        assert_allclose(m.support, expected)
        assert_allclose(m.weights, np.full(4, 0.25))

    def test_dirac_single_atom(self):
        m = discretize(Dirac(7.0), 50)
        assert m.n == 1
        assert m.support[0] == 7.0

    def test_uniform_scheme_window(self):
        m = discretize(Uniform(0.0, 1.0), 4, "uniform", lo=0.0, hi=1.0)
        assert_allclose(m.support, [0.125, 0.375, 0.625, 0.875])
        assert_allclose(m.weights, np.full(4, 0.25))

    def test_uniform_scheme_drops_empty_bins(self):
        # Mass lives on [2, 6]; bins left of it carry nothing.
        m = discretize(Uniform(2.0, 6.0), 8, "uniform", lo=0.0, hi=8.0)
        assert m.n == 4
        assert_allclose(m.weights.sum(), 1.0)

    def test_uniform_scheme_rejects_empty_window(self):
        with pytest.raises(ValueError, match="mass"):
            discretize(Uniform(0.0, 1.0), 4, "uniform", lo=5.0, hi=6.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_uniform_scheme_rejects_non_finite_window(self, lo, hi):
        # np.linspace over an infinite window warns and gives nan edges.
        with pytest.raises(ValueError, match="must be finite"):
            discretize(Exponential(1.0), 4, "uniform", lo=lo, hi=hi)

    def test_mean_error_shrinks(self):
        e = Exponential(1.0)
        errors = [abs(discretize(e, n).mean() - 1.0) for n in (10, 100, 1000)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 5e-4

    def test_gamma_mean_close_at_thousand(self):
        m = discretize(Gamma(2, 0.01), 1000)
        assert m.mean() == pytest.approx(200.0, rel=2e-3)


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample(Exponential(1.0), 100, seed=5)
        b = sample(Exponential(1.0), 100, seed=5)
        assert_allclose(a, b)
        assert not np.allclose(a, sample(Exponential(1.0), 100, seed=6))

    def test_empirical_cdf_close(self):
        # Dvoretzky-Kiefer-Wolfowitz: sup deviation above eps has probability
        # 2 exp(-2 N eps^2); eps = 0.02 at N = 20000 leaves ~1e-6.
        spec = Gamma(2, 1.0)
        xs = sample(spec, 20_000, seed=11)
        grid = np.linspace(0.1, 8.0, 40)
        empirical = np.searchsorted(np.sort(xs), grid, side="right") / xs.size
        exact = np.array([spec.cdf(g) for g in grid])
        assert np.max(np.abs(empirical - exact)) < 0.02

    def test_draw_uses_supplied_generator(self):
        rng = np.random.default_rng(0)
        first = draw(Uniform(0.0, 1.0), 10, rng)
        second = draw(Uniform(0.0, 1.0), 10, rng)
        assert not np.allclose(first, second)

    def test_levy_draws_positive(self):
        xs = sample(LevyFirstPassage(6.0), 1000, seed=2)
        assert np.all(xs > 0)
