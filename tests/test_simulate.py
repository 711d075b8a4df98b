import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from extremis.core import MarginSpec, derive_rng
from extremis.mgpd import (HuslerReiss, Logistic, NegLogistic,
                           exponent_measure_v, fit_hr_exchangeable,
                           fit_logistic_censored, pivot_weights)
from extremis.simulate import (RiskFunctional, composition_sample,
                               mixture_threshold_experiment,
                               sample_logistic_max_stable,
                               sample_positive_stable, simulate_mgpd_dataset)


def test_pivot_normalization_and_radius():
    fn = RiskFunctional("min", np.ones(3))
    out = composition_sample(Logistic(2.0), fn, 5000, seed=1)
    rows = np.arange(5000)
    np.testing.assert_allclose(out.samples[rows, out.pivot] / out.radius, 1.0, rtol=1e-12)
    assert np.all(out.radius >= 1.0)


def test_min_functional_homogeneity_law():
    fn = RiskFunctional("min", np.ones(3))
    out = composition_sample(Logistic(2.0), fn, 400_000, seed=2)
    mn = out.samples.min(axis=1)
    p1 = np.mean(mn > 1.0)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    for c in (2.0, 5.0, 10.0):
        pc = np.mean(mn > c)
        se = np.sqrt(pc * (1.0 - pc) / mn.size)
        assert pc == pytest.approx(1.0 / c, abs=3.0 * se)


def test_min_functional_rejects_saturated_candidates_quietly():
    # at this seed some companion cdf reaches 1, so log1p(-f) is -inf and
    # the candidate is rejected; that must not warn
    fn = RiskFunctional("min", np.array([1.0, 2.0, 1.5, 3.0, 1.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = composition_sample(Logistic(2.0), fn, 200_000, seed=1973162640)
    assert np.all(np.isfinite(out.samples))


def test_min_functional_neglogistic_law():
    fn = RiskFunctional("min", np.ones(2))
    out = composition_sample(NegLogistic(1.0), fn, 200_000, seed=3)
    mn = out.samples.min(axis=1)
    for c in (2.0, 4.0):
        pc = np.mean(mn > c)
        se = np.sqrt(pc * (1.0 - pc) / mn.size)
        assert pc == pytest.approx(1.0 / c, abs=3.0 * se)


def test_index_frequencies_match_weights():
    u = np.array([1.0, 2.0, 4.0])
    model = Logistic(2.0)
    out = composition_sample(model, RiskFunctional("min", u), 200_000, seed=4)
    w = pivot_weights(model, u, "min")
    w = w / w.sum()
    freq = np.bincount(out.pivot, minlength=3) / out.pivot.size
    se = np.sqrt(w * (1.0 - w) / out.pivot.size)
    assert np.all(np.abs(freq - w) < 3.0 * se + 1e-4)


def test_sum_functional_uniform_indices():
    out = composition_sample(Logistic(1.5), RiskFunctional("sum", np.ones(4)),
                             100_000, seed=5)
    freq = np.bincount(out.pivot, minlength=4) / out.pivot.size
    assert np.all(np.abs(freq - 0.25) < 3.0 * np.sqrt(0.25 * 0.75 / out.pivot.size))


def test_weight_scaling_invariance():
    u = np.array([1.0, 2.0])
    model = Logistic(2.0)
    fn = RiskFunctional("min", u)
    w = pivot_weights(model, u, "min")
    a = composition_sample(model, fn, 2000, seed=6, weights=w)
    b = composition_sample(model, fn, 2000, seed=6, weights=17.5 * w)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_max_functional_exceedance_exact():
    out = composition_sample(Logistic(2.0), RiskFunctional("max", np.ones(3)),
                             20_000, seed=7)
    assert np.all(out.samples.max(axis=1) >= 1.0 - 1e-12)
    # pivot is the scaled maximum
    rows = np.arange(out.pivot.size)
    assert np.all(out.samples.max(axis=1) == out.samples[rows, out.pivot])


def test_hr_restrictions_and_flags():
    hr = HuslerReiss(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="min"):
        composition_sample(hr, RiskFunctional("min", np.ones(2)), 10, seed=0)
    out = composition_sample(hr, RiskFunctional("max", np.ones(2)), 500, seed=1)
    assert "hr-gibbs-approximate" in out.flags
    ok = composition_sample(hr, RiskFunctional("sum", np.ones(2)), 500, seed=1)
    assert ok.flags == []


def test_positive_stable_laplace_transform():
    rng = derive_rng(11)
    for alpha in (0.4, 0.7):
        s = sample_positive_stable(alpha, 400_000, rng)
        got = np.exp(-s).mean()
        se = np.exp(-s).std() / np.sqrt(s.size)
        assert got == pytest.approx(np.exp(-1.0), abs=4.0 * se)


def test_logistic_max_stable_margins_and_maxlaw():
    rng = derive_rng(13)
    y = sample_logistic_max_stable(0.6, 100_000, 4, rng)
    u = np.exp(-1.0 / y[:, 2])
    assert kstest(u, "uniform").pvalue > 0.01
    z = 9.49
    p = np.mean(y.max(axis=1) > z)
    target = 1.0 - np.exp(-(4.0 ** 0.6) / z)
    assert p == pytest.approx(target, abs=3.0 * np.sqrt(target * (1 - target) / y.shape[0]))


def test_dataset_margins_ks():
    model = Logistic(2.0)
    margins = [MarginSpec("gumbel")] * 3
    ds = simulate_mgpd_dataset(model, margins, 100_000, 0.05, seed=17)
    for j in range(3):
        u = np.exp(-np.exp(-ds.values[:, j]))  # gumbel cdf
        assert kstest(u, "uniform").pvalue > 0.01


def test_dataset_margins_ks_neglogistic():
    ds = simulate_mgpd_dataset(NegLogistic(1.2), [MarginSpec("exponential")] * 2,
                               30_000, 0.06, seed=43)
    u = -np.expm1(-ds.values[:, 1])  # exponential cdf
    assert kstest(u, "uniform").pvalue > 0.01


def test_dataset_zero_fraction_pure_noise():
    ds = simulate_mgpd_dataset(Logistic(2.0), [MarginSpec("uniform")] * 2,
                               5000, 0.0, seed=19)
    assert np.all((ds.values > 0) & (ds.values < 1))
    # independence: correlation should be negligible
    assert abs(np.corrcoef(ds.values.T)[0, 1]) < 0.05


def test_logistic_fit_round_trip():
    beta = 2.0
    model = Logistic(beta)
    margins = [MarginSpec("frechet")] * 3
    f = 0.05
    ds = simulate_mgpd_dataset(model, margins, 60_000, f, seed=23)
    q0 = 1.0 - f / exponent_measure_v(model, np.ones(3))
    u = np.full(3, -1.0 / np.log(q0))  # frechet quantile of q0
    fit = fit_logistic_censored(ds.values, u, censor=u)
    assert fit.se is not None
    assert abs(fit.estimate - beta) < 3.0 * fit.se


def test_logistic_fit_uncensored_recovery():
    # fit directly on exact tail samples, no censoring
    model = Logistic(2.0)
    out = composition_sample(model, RiskFunctional("max", np.ones(3)), 5000, seed=29)
    fit = fit_logistic_censored(out.samples, np.ones(3), censor=np.zeros(3))
    assert fit.n_rows == 5000
    assert abs(fit.estimate - 2.0) < 3.0 * fit.se


def test_hr_fit_round_trip_bivariate():
    gamma = 2.0
    model = HuslerReiss(np.array([[0.0, gamma], [gamma, 0.0]]))
    margins = [MarginSpec("frechet")] * 2
    f = 0.05
    ds = simulate_mgpd_dataset(model, margins, 100_000, f, seed=31)
    q0 = 1.0 - f / exponent_measure_v(model, np.ones(2))
    u = np.full(2, -1.0 / np.log(q0))
    fit = fit_hr_exchangeable(ds.values, u, censor=u)
    assert fit.se is not None
    assert abs(fit.estimate - gamma) < 3.0 * fit.se


def test_mixture_experiment_structure():
    table = mixture_threshold_experiment([0.5], 2000, [0.8, 0.9], seed=37, d=4)
    np.testing.assert_allclose(table.shares, 1.0)
    two = mixture_threshold_experiment([0.4, 0.9], 200_000, [0.8, 0.9, 0.95],
                                       seed=41, d=8)
    np.testing.assert_allclose(two.shares.sum(axis=0), 1.0, atol=1e-12)
    weak = two.shares[1]  # alpha = 0.9, weaker dependence
    assert weak[0] < weak[1] < weak[2]


def test_functional_validation():
    with pytest.raises(ValueError):
        RiskFunctional("median", np.ones(2))
    with pytest.raises(ValueError):
        RiskFunctional("min", np.array([1.0, -1.0]))
