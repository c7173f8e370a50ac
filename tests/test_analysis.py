import warnings

import numpy as np
import pytest

from antizeno.analysis import collapse_slopes, fit_exponential, fit_quadratic_origin
from antizeno.errors import NumericalError


def synthetic_trace(times, cumulative):
    """A survival curve as ``collapse_slopes`` takes it: (times, cumulative)."""
    return np.asarray(times, dtype=float), np.asarray(cumulative, dtype=float)


class TestFitQuadraticOrigin:
    def test_exact_model(self):
        x = np.linspace(0.0, 2.0, 9)
        fit = fit_quadratic_origin(x, 2.0 * x**2)
        assert fit.coefficients["lam"] == pytest.approx(2.0, abs=1e-14)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-14)
        assert fit.residual_max <= 1e-14

    def test_null_data(self):
        x = np.linspace(0.0, 1.0, 5)
        fit = fit_quadratic_origin(x, np.zeros(5))
        assert fit.coefficients["lam"] == 0.0

    def test_scale_equivariance(self):
        # powers of two keep the floating-point scalings exact
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 1.0, 11)
        y = 0.3 * x**2 + 0.01 * rng.normal(size=11)
        lam = fit_quadratic_origin(x, y).coefficients["lam"]
        assert fit_quadratic_origin(x, 4.0 * y).coefficients["lam"] == 4.0 * lam
        assert fit_quadratic_origin(2.0 * x, y).coefficients["lam"] == lam / 4.0

    def test_all_zero_x_rejected(self):
        with pytest.raises(ValueError, match="all x are zero"):
            fit_quadratic_origin(np.zeros(4), np.ones(4))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_quadratic_origin([1.0, 2.0], [1.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # bad input, not a numerical breakdown, even where 0 * inf turns invalid
        for x, y in (([0.0, 1.0, bad], [0.0, 1.0, 4.0]), ([0.0, 1.0, 2.0], [bad, 1.0, 4.0])):
            with pytest.raises(ValueError, match="requires finite x and y"):
                fit_quadratic_origin(x, y)

    @pytest.mark.parametrize("x,y", [
        ([1e200, 2e200, 3e200], [1.0, 1.0, 1.0]),  # x**4 overflows
        ([1e75, 1e75, 1e75], [1e200, 1e200, 1e200]),  # x**4 is finite, x**2 * y is not
    ], ids=["x4", "x2y"])
    def test_overflow_is_a_numerical_failure(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test too
            with pytest.raises(NumericalError, match="closed form: overflow"):
                fit_quadratic_origin(x, y)


class TestFitExponential:
    def test_exact_decay(self):
        x = np.linspace(0.0, 10.0, 21)
        fit = fit_exponential(x, np.exp(-0.3 * x))
        assert fit.coefficients["rate"] == pytest.approx(0.3, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        fit = fit_exponential(np.arange(5.0), np.ones(5))
        assert fit.coefficients["rate"] == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == 1.0

    def test_planted_rate_recovery(self):
        x = np.linspace(0.0, 4.0, 9)
        for rate in (1e-3, 0.2, 2.5):
            fit = fit_exponential(x, 0.7 * np.exp(-rate * x))
            assert fit.coefficients["rate"] == pytest.approx(rate, rel=1e-12)
            assert fit.coefficients["intercept"] == pytest.approx(np.log(0.7), rel=1e-12)

    def test_refit_of_fitted_values_is_perfect(self):
        x = np.linspace(0.0, 5.0, 12)
        rng = np.random.default_rng(8)
        y = np.exp(-0.4 * x + 0.05 * rng.normal(size=12))
        fit = fit_exponential(x, y)
        fitted = np.exp(fit.coefficients["intercept"] - fit.coefficients["rate"] * x)
        refit = fit_exponential(x, fitted)
        assert refit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert refit.coefficients["rate"] == pytest.approx(fit.coefficients["rate"], rel=1e-12)

    def test_negative_rejected(self):
        # a zero is extinct, not invalid; only a negative value is rejected
        with pytest.raises(ValueError, match="finite, non-negative"):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, -1e-300])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN is not an extinct value to drop
        with pytest.raises(ValueError, match="finite, non-negative"):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, capfd, bad):
        # bad input, refused before least squares (whose SVD would not
        # converge on NaN, and print LAPACK complaints to stderr)
        with pytest.raises(ValueError, match="requires finite x"):
            fit_exponential([0.0, bad, 2.0], [1.0, 0.5, 0.25])
        assert capfd.readouterr().err == ""

    def test_too_few_points_given(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            fit_exponential([0.0], [1.0])

    def test_one_distinct_x_is_a_numerical_failure(self):
        # couplings whose squares underflow leave fig3 one x value
        with pytest.raises(NumericalError, match="fewer than 2 distinct points"):
            fit_exponential([0.0, 0.0, 0.0], [1.0, 0.9, 0.8])

    def test_floor_dropping_reported(self):
        x = np.linspace(0.0, 3.0, 7)
        y = np.exp(-0.5 * x)
        y[-3:] = [1e-15, 0.0, 0.0]  # numerically extinct, then underflowed
        fit = fit_exponential(x, y)
        assert fit.n_dropped == 3
        assert fit.coefficients["rate"] == pytest.approx(0.5, rel=1e-10)

    def test_points_between_the_floor_and_1e_6_are_kept(self):
        # survival down to 3e-11 is data, not extinction: the floor is 1e-12
        x = np.arange(8.0)
        y = 10.0 ** (-1.5 * x)  # the last three lie in (1e-12, 1e-6)
        fit = fit_exponential(x, y)
        assert fit.n_dropped == 0
        assert fit.coefficients["rate"] == pytest.approx(1.5 * np.log(10.0), rel=1e-12)

    def test_all_below_floor_rejected(self):
        # valid input whose survival is extinct is a numerical failure
        with pytest.raises(NumericalError, match="extinction floor"):
            fit_exponential([0.0, 1.0, 2.0], [1e-15, 1e-16, 1e-17])

    def test_one_point_above_underflow_zeros_rejected(self):
        with pytest.raises(NumericalError, match=r"extinction floor .*\(2 dropped\)"):
            fit_exponential([0.0, 1.0, 2.0], [1.0, 0.0, 0.0])


class TestCollapseSlopes:
    def test_identical_traces(self):
        times = np.linspace(1.0, 8.0, 8)
        cumulative = np.exp(-0.2 * times)
        traces = {1.0: synthetic_trace(times, cumulative), 1.0 + 1e-9: synthetic_trace(times, cumulative)}
        result = collapse_slopes(traces)
        assert result.rate_ratio == pytest.approx(1.0, rel=1e-6)

    def test_constructed_collapse(self):
        # e^{-0.2 t/T1} for two different T1 collapses to equal rates
        traces = {}
        for t1 in (1.0, 2.0):
            times = t1 * np.arange(1.0, 9.0)
            traces[t1] = synthetic_trace(times, np.exp(-0.2 * times / t1))
        result = collapse_slopes(traces)
        assert list(result.fits) == [1.0, 2.0]
        for fit in result.fits.values():
            assert fit.coefficients["rate"] == pytest.approx(0.2, rel=1e-12)
            assert fit.n_dropped == 0
            assert fit.residual_max <= 1e-12
        assert result.rate_ratio == pytest.approx(1.0, abs=1e-12)

    def test_keeps_each_fits_extinct_count(self):
        # the period whose survival underflows drops those events, and its
        # fit says how many
        times = np.arange(1.0, 9.0)
        extinct = np.exp(-0.2 * times)
        extinct[-3:] = 0.0
        result = collapse_slopes({
            1.0: synthetic_trace(times, np.exp(-0.2 * times)),
            2.0: synthetic_trace(2.0 * times, extinct),
        })
        assert [fit.n_dropped for fit in result.fits.values()] == [0, 3]
        assert result.fits[2.0].coefficients["rate"] == pytest.approx(0.2, rel=1e-12)

    def test_a_flat_period_leaves_no_rate_ratio(self):
        # a survival that never decays fits the rate -0.0
        times = np.arange(1.0, 6.0)
        with pytest.raises(NumericalError, match="no rate ratio: .* rate is -0.0"):
            collapse_slopes({1.0: synthetic_trace(times, np.ones(5)),
                             2.0: synthetic_trace(2.0 * times, np.exp(-times))})

    def test_needs_two_keys(self):
        times = np.arange(1.0, 5.0)
        with pytest.raises(ValueError, match="two periods"):
            collapse_slopes({1.0: synthetic_trace(times, np.exp(-times))})


def test_survival_trace_helper_is_consistent():
    # the synthetic curve must be a cumulative survival: the product of
    # per-event no-click probabilities in (0, 1]
    times = np.arange(1.0, 6.0)
    _, cumulative = synthetic_trace(times, np.exp(-0.3 * times))
    singles = cumulative / np.concatenate([[1.0], cumulative[:-1]])
    assert np.all((singles > 0) & (singles <= 1))
    assert np.allclose(np.cumprod(singles), cumulative, atol=1e-12)


@pytest.mark.parametrize("fit", [fit_quadratic_origin, fit_exponential])
def test_fits_refuse_x_and_y_of_different_shapes(fit):
    with pytest.raises(ValueError, match="equal length"):
        fit([1.0, 2.0, 3.0], [1.0, 0.5])
