import numpy as np
import pytest

from extremis.core import derive_rng
from extremis.univariate import (GpdParams, IntervalForecast, RegressionSpec,
                                 cv_interval_score, gpd_quantile,
                                 interval_score, sample_params_gaussian)


def test_interval_score_cases():
    f = IntervalForecast(0.0, 1.0, alpha=0.5)
    assert interval_score(f, 0.5) == pytest.approx(1.0)
    assert interval_score(f, 2.0) == pytest.approx(5.0)
    assert interval_score(f, -0.25) == pytest.approx(2.0)


def test_interval_score_proper_at_degenerate_interval():
    y = 0.7
    assert interval_score(IntervalForecast(y, y, 0.5), y) == 0.0
    for lo, hi in [(0.1, 0.9), (0.7, 1.3), (0.0, 0.5)]:
        assert interval_score(IntervalForecast(lo, hi, 0.5), y) >= 0.0


def test_interval_forecast_validation():
    with pytest.raises(ValueError):
        IntervalForecast(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        IntervalForecast(0.0, 1.0, 0.0)


class _Fit:
    def __init__(self, coefficients, cov):
        self.coefficients = np.asarray(coefficients, float)
        self.cov = cov


def test_gaussian_draws_zero_cov_and_determinism():
    fit = _Fit([1.0, -2.0], np.zeros((2, 2)))
    draws = sample_params_gaussian(fit, 50, seed=4)
    np.testing.assert_allclose(draws, np.tile([1.0, -2.0], (50, 1)))
    fit2 = _Fit([0.0, 0.0], np.array([[2.0, 0.5], [0.5, 1.0]]))
    a = sample_params_gaussian(fit2, 10, seed=9)
    b = sample_params_gaussian(fit2, 10, seed=9)
    np.testing.assert_array_equal(a, b)


def test_gaussian_draws_match_covariance():
    cov = np.array([[2.0, 0.7], [0.7, 1.0]])
    fit = _Fit([3.0, -1.0], cov)
    draws = sample_params_gaussian(fit, 100_000, seed=2)
    emp = np.cov(draws.T)
    rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert rel < 0.02


def test_gaussian_draws_reject_indefinite():
    fit = _Fit([0.0, 0.0], np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError):
        sample_params_gaussian(fit, 10, seed=0)


def _simulate_gpd_data(seed, n=6000, threshold=0.0):
    rng = derive_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sigma = np.exp(0.4 + 0.5 * x[:, 0])
    y = gpd_quantile(rng.uniform(size=n), (sigma, np.full(n, 0.1)))
    return x, y, np.full(n, threshold)


def test_cv_single_covered_point_scores_width():
    # one test point with a covering interval contributes exactly the width
    f = IntervalForecast(1.0, 3.0, alpha=0.5)
    assert interval_score(f, 2.0) == pytest.approx(f.upper - f.lower)


def test_cv_interval_score_runs_and_reports():
    x, y, u = _simulate_gpd_data(41, n=3000)
    specs = [RegressionSpec(), RegressionSpec(sigma_columns=(0,))]
    out = cv_interval_score(x, y, u, specs, alpha=0.5, repeats=5, seed=7,
                            n_draws=300)
    assert len(out) == 2
    for summary in out:
        assert summary.scores.size + summary.n_dropped_repeats == 5
        assert np.all(summary.scores > 0.0)
        assert np.all((summary.coverages >= 0.0) & (summary.coverages <= 1.0))
        assert np.isfinite(summary.mean_score)


def test_cv_fold_reuse_is_paired_and_seeded():
    x, y, u = _simulate_gpd_data(43, n=2400)
    specs = [RegressionSpec(sigma_columns=(0,))]
    a = cv_interval_score(x, y, u, specs, repeats=3, seed=5, n_draws=200)
    b = cv_interval_score(x, y, u, specs, repeats=3, seed=5, n_draws=200)
    np.testing.assert_array_equal(a[0].scores, b[0].scores)
    c = cv_interval_score(x, y, u, specs, repeats=3, seed=6, n_draws=200)
    assert not np.array_equal(a[0].scores, c[0].scores)


def test_cv_excluded_points_counted():
    # train-1 fits with strongly negative shape produce probability-1 test
    # points; build a tiny dataset with a hard upper endpoint
    rng = derive_rng(77)
    n = 400
    x = rng.normal(size=(n, 1))
    y = gpd_quantile(rng.uniform(size=n), GpdParams(1.0, -0.6))
    out = cv_interval_score(x, y, np.full(n, -1e-9), [RegressionSpec()],
                            repeats=20, seed=3, n_draws=100)
    assert out[0].n_excluded >= 1


@pytest.mark.slow
def test_cv_homogeneous_data_prefers_simple_model():
    # intercept-only truth: the 10-spurious-covariate model never scores
    # better on average
    rng = derive_rng(53)
    n = 9000
    x = rng.uniform(-1.0, 1.0, size=(n, 10))
    y = gpd_quantile(rng.uniform(size=n), GpdParams(1.5, 0.1))
    u = np.zeros(n)
    specs = [RegressionSpec(), RegressionSpec(sigma_columns=tuple(range(10)))]
    out = cv_interval_score(x, y, u, specs, alpha=0.5, repeats=25, seed=59,
                            n_draws=300)
    assert out[0].mean_score <= out[1].mean_score


def test_cv_train_fraction():
    x, y, u = _simulate_gpd_data(47, n=3000)
    out = cv_interval_score(x, y, u, [RegressionSpec()], repeats=2, seed=1,
                            n_draws=100, train_fraction=0.4)
    assert out[0].scores.size == 2
    with pytest.raises(ValueError):
        cv_interval_score(x, y, u, [RegressionSpec()], train_fraction=0.6)


# cv_interval_score on a small seeded input, recorded before the per-draw
# loop moved into predictive_quantiles and re-recorded once when the GPD fits
# moved to analytic-derivative Newton (each fit's NLL no higher than before).
# Refactors must reproduce it exactly.
PINNED_CV = [
    ([78.89373743623274, 350.4034583199232], [0.7833333333333333, 0.0], 0, 0),
    ([180.09670555493614, 243.79076563648624], [0.21666666666666667, 0.0], 0, 0),
]


def test_cv_pinned_values_are_bit_identical():
    x, y, u = _simulate_gpd_data(41, n=900)
    specs = [RegressionSpec(), RegressionSpec(sigma_columns=(0,))]
    out = cv_interval_score(x, y, u, specs, alpha=0.5, repeats=2, seed=7,
                            n_draws=100)
    got = [(s.scores.tolist(), s.coverages.tolist(), s.n_excluded,
            s.n_dropped_repeats) for s in out]
    assert got == PINNED_CV


def test_predictive_quantiles_clip_each_draw():
    from itertools import repeat

    from extremis.univariate import GpdRegression, predictive_quantiles
    fit = GpdRegression(np.array([0.2, 0.5]), np.array([0.1, 0.05]),
                        RegressionSpec((0,), (0,)), None, 0.0, 0, True)
    X = np.array([[-1.0], [0.0], [0.5], [2.0]])
    coef = np.array([[0.2, 0.5, 0.1, 0.05],
                     [-40.0, 0.0, 0.1, 0.0],     # sigma below the floor
                     [0.0, 0.0, 9.0, 0.0],       # xi above the cap
                     [0.0, 0.0, -3.0, 0.0],      # xi below the floor
                     [0.3, -0.2, 0.0, 1.0]])
    u = np.array([1.0, 2.0, 3.0, 4.0])
    p = 0.9
    draws, lower, upper = predictive_quantiles(fit, coef, X, p, 0.5,
                                               repeat(u, len(coef)))
    assert draws.shape == (5, 4) and lower.shape == upper.shape == (4,)
    for c, row in zip(coef, draws):
        sigma = np.maximum(np.exp(c[0] + c[1] * X[:, 0]), 1e-8)
        xi = np.clip(c[2] + c[3] * X[:, 0], -0.99, 4.99)
        np.testing.assert_allclose(row, u + gpd_quantile(p, (sigma, xi)),
                                   rtol=1e-14)
    np.testing.assert_array_equal(lower, np.quantile(draws, 0.25, axis=0))
    np.testing.assert_array_equal(upper, np.quantile(draws, 0.75, axis=0))
    # the estimate as a one-row draw matrix gives the point prediction
    (point,), _, _ = predictive_quantiles(fit, fit.coefficients[None], X, p,
                                          0.5, [0.0])
    sigma, xi = fit.predict(X)
    np.testing.assert_array_equal(point, gpd_quantile(p, (sigma, xi)))
    with pytest.raises(ValueError):
        predictive_quantiles(fit, coef, X, p, 0.5, repeat(u, 2))
