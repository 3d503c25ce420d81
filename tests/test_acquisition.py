"""Tests for repro.acquisition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.acquisition import (
    LCB,
    ExpectedImprovement,
    ViolationAcquisition,
    WeightedEI,
    expected_improvement,
    lower_confidence_bound,
    probability_of_feasibility,
    probability_of_improvement,
)
from repro.acquisition.functions import norm_cdf, norm_pdf


def constant_predictor(mu, var):
    mu, var = float(mu), float(var)
    return lambda x: (
        np.full(np.atleast_2d(x).shape[0], mu),
        np.full(np.atleast_2d(x).shape[0], var),
    )


class TestNormalHelpers:
    """The hot-path normal CDF/PDF are bit for bit ``scipy.stats.norm``."""

    def test_bitwise_equal_to_scipy_stats(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.standard_normal(50_000) * 4.0,
            rng.uniform(-40.0, 40.0, 50_000),
            [np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 38.5, -38.5],
        ])
        for ours, theirs in ((norm_cdf, norm.cdf), (norm_pdf, norm.pdf)):
            # compare bit patterns: array_equal would accept 0.0 == -0.0
            got, want = ours(x), theirs(x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            grid = x[:64].reshape(8, 8)  # the 2-D shapes of the EHVI path
            assert np.array_equal(
                ours(grid).view(np.uint64), theirs(grid).view(np.uint64)
            )

    def test_nan_propagates_like_scipy(self):
        x = np.array([np.nan, 0.5])
        np.testing.assert_array_equal(norm_cdf(x), norm.cdf(x))
        np.testing.assert_array_equal(norm_pdf(x), norm.pdf(x))


class TestExpectedImprovement:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        mu, sigma, tau = 1.2, 0.8, 1.0
        samples = rng.normal(mu, sigma, size=400_000)
        mc = np.mean(np.maximum(0.0, tau - samples))
        analytic = expected_improvement(
            np.array([mu]), np.array([sigma**2]), tau
        )[0]
        assert analytic == pytest.approx(mc, rel=0.02)

    def test_zero_variance_no_improvement(self):
        value = expected_improvement(np.array([2.0]), np.array([0.0]), 1.0)
        assert value[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_variance_sure_improvement(self):
        value = expected_improvement(np.array([0.0]), np.array([0.0]), 1.0)
        assert value[0] == pytest.approx(1.0, abs=1e-6)

    def test_increases_with_uncertainty(self):
        mu = np.array([1.5, 1.5])
        var = np.array([0.01, 1.0])
        ei = expected_improvement(mu, var, 1.0)
        assert ei[1] > ei[0]

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5), st.floats(0.01, 5), st.floats(-5, 5)
    )
    def test_property_nonnegative(self, mu, sigma, tau):
        value = expected_improvement(
            np.array([mu]), np.array([sigma**2]), tau
        )
        assert value[0] >= 0.0

    def test_wrapper_class(self):
        acq = ExpectedImprovement(constant_predictor(0.0, 1.0), tau=0.5)
        values = acq(np.zeros((4, 2)))
        assert values.shape == (4,)
        assert np.all(values > 0)


class TestProbabilityFunctions:
    def test_pf_half_at_boundary(self):
        pf = probability_of_feasibility(np.array([0.0]), np.array([1.0]))
        assert pf[0] == pytest.approx(0.5)

    def test_pf_matches_normal_cdf(self):
        mu, var = np.array([-1.0]), np.array([4.0])
        expected = norm.cdf(1.0 / 2.0)
        assert probability_of_feasibility(mu, var)[0] == pytest.approx(expected)

    def test_pf_certain_feasible(self):
        pf = probability_of_feasibility(np.array([-5.0]), np.array([1e-12]))
        assert pf[0] == pytest.approx(1.0)

    def test_pi_monotone_in_tau(self):
        mu, var = np.array([0.0]), np.array([1.0])
        assert (probability_of_improvement(mu, var, 1.0)
                > probability_of_improvement(mu, var, -1.0))


class TestWeightedEI:
    def test_reduces_to_ei_without_constraints(self):
        predictor = constant_predictor(0.0, 1.0)
        wei = WeightedEI(predictor, [], tau=0.5)
        ei = ExpectedImprovement(predictor, tau=0.5)
        x = np.zeros((3, 2))
        np.testing.assert_allclose(wei(x), ei(x))

    def test_infeasible_region_suppressed(self):
        objective = constant_predictor(0.0, 1.0)
        feasible_c = constant_predictor(-3.0, 0.1)   # almost surely ok
        infeasible_c = constant_predictor(+3.0, 0.1)  # almost surely violated
        x = np.zeros((1, 2))
        good = WeightedEI(objective, [feasible_c], tau=0.5)(x)[0]
        bad = WeightedEI(objective, [infeasible_c], tau=0.5)(x)[0]
        assert bad < 1e-3 * good

    def test_multiple_constraints_multiply(self):
        objective = constant_predictor(0.0, 1.0)
        c = constant_predictor(0.0, 1.0)  # PF = 0.5 each
        x = np.zeros((1, 2))
        one = WeightedEI(objective, [c], tau=0.5)(x)[0]
        two = WeightedEI(objective, [c, c], tau=0.5)(x)[0]
        assert two == pytest.approx(0.5 * one)

    def test_no_tau_pure_feasibility(self):
        objective = constant_predictor(0.0, 1.0)
        c = constant_predictor(0.0, 1.0)
        wei = WeightedEI(objective, [c], tau=None)
        assert wei(np.zeros((1, 2)))[0] == pytest.approx(0.5)


class TestLCB:
    def test_lower_confidence_bound_formula(self):
        value = lower_confidence_bound(np.array([1.0]), np.array([4.0]), 2.0)
        assert value[0] == pytest.approx(1.0 - 2.0 * 2.0)

    def test_wrapper_negates(self):
        acq = LCB(constant_predictor(1.0, 4.0), beta=2.0)
        assert acq(np.zeros((1, 2)))[0] == pytest.approx(3.0)

    def test_beta_zero_is_mean(self):
        acq = LCB(constant_predictor(1.5, 4.0), beta=0.0)
        assert acq(np.zeros((1, 1)))[0] == pytest.approx(-1.5)

    def test_negative_beta_raises(self):
        with pytest.raises(ValueError):
            LCB(constant_predictor(0, 1), beta=-1.0)


class TestViolationAcquisition:
    def test_feasible_prediction_gives_zero(self):
        acq = ViolationAcquisition([constant_predictor(-1.0, 0.1)])
        assert acq(np.zeros((1, 2)))[0] == pytest.approx(0.0)

    def test_violations_accumulate(self):
        acq = ViolationAcquisition([
            constant_predictor(2.0, 0.1),
            constant_predictor(3.0, 0.1),
        ])
        assert acq(np.zeros((1, 2)))[0] == pytest.approx(-5.0)

    def test_maximizer_prefers_smaller_violation(self):
        acq = ViolationAcquisition([constant_predictor(2.0, 0.1)])
        better = ViolationAcquisition([constant_predictor(0.5, 0.1)])
        x = np.zeros((1, 2))
        assert better(x)[0] > acq(x)[0]

    def test_empty_constraints_raise(self):
        with pytest.raises(ValueError):
            ViolationAcquisition([])
