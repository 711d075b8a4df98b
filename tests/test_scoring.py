import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gpd_quantile_where
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
# loop moved into predictive_quantiles and re-recorded when the GPD fits
# moved to analytic-derivative Newton (each fit's NLL no higher than before)
# and when they moved to the projected trust-region Newton (every fit's NLL
# within one ulp of the one before: two lower, one higher by 5.7e-14).
# Refactors must reproduce it exactly.
PINNED_CV = [
    ([78.89373743623274, 350.40345832313983], [0.7833333333333333, 0.0], 0, 0),
    ([180.0967111537467, 243.79076563789977], [0.21666666666666667, 0.0], 0, 0),
]


def test_cv_pinned_values_are_bit_identical():
    x, y, u = _simulate_gpd_data(41, n=900)
    specs = [RegressionSpec(), RegressionSpec(sigma_columns=(0,))]
    out = cv_interval_score(x, y, u, specs, alpha=0.5, repeats=2, seed=7,
                            n_draws=100)
    got = [(s.scores.tolist(), s.coverages.tolist(), s.n_excluded,
            s.n_dropped_repeats) for s in out]
    assert got == PINNED_CV


def _left_to_right(design, coef):
    """The (rows, draws) linear predictors, summed column by column."""
    out = design[:, :1] * coef[:, 0]
    for j in range(1, design.shape[1]):
        out = out + design[:, j:j + 1] * coef[:, j]
    return out


def _reference_draws(coef, X, p, u, sigma_columns=(0,), xi_columns=(0,)):
    """The (n_rows, n_draws) draw matrix of the regression on the given
    columns (by default one in the scale and one in the shape), by explicit
    column sums and the two-branch GPD quantile."""
    from extremis.univariate.gpd import _design
    Xs, Xx = _design(X, sigma_columns), _design(X, xi_columns)
    k = Xs.shape[1]
    sigma = np.clip(np.exp(_left_to_right(Xs, coef[:, :k])), 1e-8, None)
    xi = np.clip(_left_to_right(Xx, coef[:, k:]), -0.99, 4.99)
    return np.asarray(u, float)[:, None] + gpd_quantile_where(np.asarray(p)[..., None],
                                                               sigma, xi)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 17),
       n_draws=st.sampled_from([1, 2, 5, 1000]), n_rows=st.integers(2, 140),
       block=st.integers(1, 140))
def test_linear_predictors_sum_columns_left_to_right(seed, k, n_draws, n_rows,
                                                     block):
    from extremis.univariate.gpd import _linear_predictors
    rng = derive_rng(seed)
    design = np.column_stack([np.ones(n_rows),
                              rng.normal(size=(n_rows, k - 1))
                              * 10.0 ** rng.uniform(-3, 3, size=k - 1)])
    coef = rng.normal(size=(n_draws, k))
    want = _left_to_right(design, coef)
    design_t, coef_t = np.ascontiguousarray(design.T), np.ascontiguousarray(coef.T)
    for s in range(0, n_rows, block):
        got = _linear_predictors(design_t[:, s:s + block], coef_t)
        np.testing.assert_array_equal(got, want[s:s + block])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 17), n_rows=st.integers(1, 60))
def test_predict_matches_the_one_draw_path(seed, k, n_rows):
    # predict and the predictive path with the estimate as its one draw
    # share one summation order: the GPD predictors left to right from the
    # intercept column, the ALD threshold left to right over the covariates
    # with the intercept added last
    from extremis.univariate import AldParams, GpdRegression, predictive_quantiles
    from extremis.univariate.gpd import _design
    rng = derive_rng(seed)
    X = rng.normal(size=(n_rows, k - 1)) * 10.0 ** rng.uniform(-3, 3, size=k - 1)
    cols = tuple(range(k - 1))
    # each GPD term at most a few tenths, so sigma and the quantiles stay finite
    spread = np.r_[1.0, np.abs(X).max(axis=0)]
    fit = GpdRegression(rng.normal(size=k) * 0.3 / spread,
                        rng.normal(size=k) * 0.1 / spread,
                        RegressionSpec(cols, cols), None, 0.0, 0, True)
    u, p = rng.uniform(0.0, 5.0, n_rows), rng.uniform(0.5, 0.999, n_rows)
    lower, upper = predictive_quantiles(fit, fit.coefficients[None], X, p, 0.5,
                                        lambda rows: u[rows, None])
    sigma, xi = fit.predict(X)
    want = u + gpd_quantile(p, (np.clip(sigma, 1e-8, None), np.clip(xi, -0.99, 4.99)))
    np.testing.assert_array_equal(lower, want)
    np.testing.assert_array_equal(upper, want)
    ald = AldParams(rng.normal(size=k) * 10.0, 0.0, 0.5, None, 0.0, n_rows, True)
    eta = ald.predict(X)
    np.testing.assert_array_equal(eta, ald.predict_draws(X, ald.coefficients[None])[:, 0])
    if n_rows > 1:  # a lone row with a lone draw is summed as a dot product
        design = _design(X, cols)
        eta_sigma = _left_to_right(design, fit.beta_sigma[None])[:, 0]
        np.testing.assert_array_equal(sigma, np.exp(eta_sigma))
        np.testing.assert_array_equal(xi, _left_to_right(design, fit.beta_xi[None])[:, 0])
        slopes = (_left_to_right(X, ald.beta_eta[None, 1:])[:, 0] if k > 1
                  else np.zeros(n_rows))
        np.testing.assert_array_equal(eta, slopes + ald.beta_eta[0])


def test_predictive_quantiles_clip_each_draw():
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
    lower, upper = predictive_quantiles(fit, coef, X, p, 0.5,
                                        lambda rows: u[rows, None])
    assert lower.shape == upper.shape == (4,)
    # each draw on its own: both quantiles of one value are that value, the
    # matching column of the draw matrix
    draws = _reference_draws(coef, X, p, u)
    for i, c in enumerate(coef):
        row, row2 = predictive_quantiles(fit, c[None], X, p, 0.5,
                                         lambda rows: u[rows, None])
        np.testing.assert_array_equal(row, row2)
        np.testing.assert_array_equal(row, draws[:, i])
    np.testing.assert_array_equal(lower, np.quantile(draws, 0.25, axis=1))
    np.testing.assert_array_equal(upper, np.quantile(draws, 0.75, axis=1))
    # the estimate as a one-row draw matrix gives the point prediction
    point, _ = predictive_quantiles(fit, fit.coefficients[None], X, p, 0.5,
                                    lambda rows: 0.0)
    sigma, xi = fit.predict(X)
    np.testing.assert_array_equal(point, gpd_quantile(p, (sigma, xi)))
    with pytest.raises(ValueError):
        predictive_quantiles(fit, coef, X, p, 0.5,
                             lambda rows: np.ones((rows.stop - rows.start, 2)))


def _predictive_input(n_rows, n_draws, seed):
    from extremis.univariate import GpdRegression
    rng = derive_rng(seed)
    fit = GpdRegression(np.array([0.2, 0.5]), np.array([0.1, 0.05]),
                        RegressionSpec((0,), (0,)), None, 0.0, 0, True)
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 1))
    coef = fit.coefficients + 0.1 * rng.standard_normal((n_draws, 4))
    u = rng.uniform(0.0, 5.0, size=n_rows)
    p = rng.uniform(0.5, 0.999, size=n_rows)
    return fit, coef, X, p, u


def test_predictive_quantiles_blocks_match_the_draw_matrix(monkeypatch):
    from extremis.univariate import predictive_quantiles, scoring
    fit, coef, X, p, u = _predictive_input(103, 40, 11)
    draws = _reference_draws(coef, X, p, u)
    want = np.quantile(draws, [0.1, 0.9], axis=1)
    default = predictive_quantiles(fit, coef, X, p, 0.2, lambda rows: u[rows, None])
    # 7 rows per block: 15 blocks, the last one short
    monkeypatch.setattr(scoring, "BLOCK_FLOATS", 7 * len(coef) + 3)
    seen = []

    def thresholds(rows):
        seen.append((rows.start, rows.stop))
        return u[rows, None]

    lower, upper = predictive_quantiles(fit, coef, X, p, 0.2, thresholds)
    assert seen == [(s, min(s + 7, 103)) for s in range(0, 103, 7)]
    np.testing.assert_array_equal(lower, want[0])
    np.testing.assert_array_equal(upper, want[1])
    np.testing.assert_array_equal(lower, default[0])
    np.testing.assert_array_equal(upper, default[1])


@pytest.mark.parametrize("sigma_columns", [(), (0,)])
@pytest.mark.parametrize("per_row_p", [False, True])
def test_predictive_quantiles_hoist_intercept_only_predictors(monkeypatch, sigma_columns,
                                                              per_row_p):
    # the shape, and with () the scale too, is one row of draws for every
    # block; the draws take the seam's and the clips' values
    from extremis.univariate import GpdRegression, predictive_quantiles, scoring
    rng = derive_rng(13)
    k = 1 + len(sigma_columns)
    fit = GpdRegression(np.r_[0.2, [0.5] * (k - 1)], np.array([0.1]),
                        RegressionSpec(sigma_columns, ()), None, 0.0, 0, True)
    n_rows, n_draws = 103, 40
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 1))
    coef = fit.coefficients + 0.1 * rng.standard_normal((n_draws, k + 1))
    coef[:8, -1] = [0.0, -0.0, 5e-9, -5e-9, 9.0, -3.0, 4.99, -0.99]
    coef[8, 0] = -40.0  # sigma below the floor
    u = rng.uniform(0.0, 5.0, size=n_rows)
    p = rng.uniform(0.5, 0.999, size=n_rows) if per_row_p else 0.99
    draws = _reference_draws(coef, X, p, u, sigma_columns, ())
    want = np.quantile(draws, [0.1, 0.9], axis=1)
    zero = np.quantile(_reference_draws(coef, X, p, np.zeros(n_rows), sigma_columns, ()),
                       [0.1, 0.9], axis=1)
    for block in (scoring.BLOCK_FLOATS, 7 * n_draws + 3):
        monkeypatch.setattr(scoring, "BLOCK_FLOATS", block)
        got = predictive_quantiles(fit, coef, X, p, 0.2, lambda rows: u[rows, None])
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), want.view(np.int64))
        # a scalar threshold still gives every row its own quantiles
        got = predictive_quantiles(fit, coef, X, p, 0.2, lambda rows: 0.0)
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), zero.view(np.int64))
    with pytest.raises(ValueError, match="no coefficient draws"):
        predictive_quantiles(fit, coef[:0], X, p, 0.2, lambda rows: u[rows, None])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31), n_rows=st.integers(1, 6),
       n_draws=st.integers(1, 60),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       special=st.floats(0.0, 0.5))
def test_sorted_quantiles_match_numpy(seed, n_rows, n_draws, alpha, special):
    """Ties, +-inf and NaN included; NaN bits compared too.  Equal values of
    opposite zero sign are the one tie whose order neither sort fixes, so
    the draws hold no -0.0.  Where numpy's arithmetic on an infinite
    neighbour gives NaN in a NaN-free row, the type-7 limit stands in."""
    from extremis.univariate.scoring import _sorted_quantiles
    rng = derive_rng(seed)
    b = rng.normal(size=(n_rows, n_draws)).round(rng.integers(0, 3))
    pick = rng.uniform(size=b.shape) < special
    b[pick] = rng.choice([np.inf, -np.inf, np.nan, 1.0, 0.0], size=pick.sum())
    b[b == 0.0] = 0.0
    levels = [alpha / 2.0, 1.0 - alpha / 2.0]
    with np.errstate(invalid="ignore"):
        want = np.quantile(b, levels, axis=1)
        got = _sorted_quantiles(b.copy(), np.array(levels))
    limit = np.isnan(want) & ~np.isnan(b).any(axis=1)
    for k, r in zip(*np.nonzero(limit)):
        want[k, r] = _type7_limit(np.sort(b[r]), levels[k])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _type7_limit(row, level):
    """The type-7 quantile (1 - t) x_lo + t x_hi of a sorted row, a term of
    weight 0 dropped, so an infinite neighbour gives its own sign and -inf
    with +inf gives NaN."""
    virtual = (len(row) - 1) * level
    lo = int(np.floor(virtual))
    hi = min(lo + 1, len(row) - 1)
    t = virtual - lo
    terms = [w * x for w, x in ((1.0 - t, row[lo]), (t, row[hi])) if w > 0.0]
    with np.errstate(invalid="ignore"):
        return np.sum(terms)


def test_sorted_quantiles_limits_at_infinite_draws():
    # numpy's rule reads NaN at each of these: inf - inf in the difference,
    # or 0 x inf at a weight of zero; every finite entry is numpy's
    from extremis.univariate.scoring import _sorted_quantiles
    inf = np.inf
    b = np.array([[inf, inf, inf], [-inf, -inf, -inf], [1.0, inf, inf],
                  [-inf, -inf, 2.0], [-inf, 1.0, inf], [-inf, inf, inf]])
    levels = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    # -inf and +inf as neighbours of weight t in (0, 1) have no limit
    want = np.array([[inf] * 6, [-inf] * 6, [1.0] + [inf] * 5, [-inf] * 5 + [2.0],
                     [-inf] * 3 + [1.0, inf, inf], [-inf, np.nan, np.nan, inf, inf, inf]])
    got = _sorted_quantiles(b.copy(), levels).T
    np.testing.assert_array_equal(got, want)
    with np.errstate(invalid="ignore"):
        numpy = np.quantile(b, levels, axis=1).T
    assert np.isnan(numpy[:4, 3]).all()
    np.testing.assert_array_equal(got[np.isfinite(numpy)], numpy[np.isfinite(numpy)])


def test_predictive_quantiles_memory_stays_in_blocks():
    import tracemalloc

    from extremis.univariate import predictive_quantiles
    n_draws, n_rows = 1000, 20_000
    fit, coef, X, p, u = _predictive_input(n_rows, n_draws, 12)
    tracemalloc.start()
    try:
        predictive_quantiles(fit, coef, X, 0.99, 0.5,
                             lambda rows: u[rows, None])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole draw matrix alone would be 160 MB.  Measured: 3.15 MB, of
    # which 0.96 MB are per-row arrays (both transposed designs and the
    # output) and the rest four 512 kB arrays of 2^16 draws (the scale, the
    # shape, gpd_quantile's output and the previous block's sorted draws);
    # the margin is 2.85 MB, under six more block arrays
    assert peak < 6e6
