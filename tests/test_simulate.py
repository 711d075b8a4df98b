import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from helpers import subset_sums
from extremis.core import MarginSpec, derive_rng
from extremis.mgpd import (HuslerReiss, Logistic, NegLogistic, _head_factor,
                           exponent_measure_v, fit_hr_exchangeable,
                           fit_logistic_censored, pivot_weights, xi_measure)
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
    # the bench thresholds: here head factors 1 - e^(-x) round to 1 for
    # large candidates and the truncated companion draws reach both ends
    # of their range; neither may warn or leave a non-finite angle
    fn = RiskFunctional("min", np.array([1.0, 2.0, 1.5, 3.0, 1.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = composition_sample(Logistic(2.0), fn, 200_000, seed=1973162640)
    assert np.all(np.isfinite(out.samples))


@pytest.mark.parametrize("kind", ["min", "max", "sum"])
def test_near_independent_logistic_samples_quietly(kind):
    # at beta = 1.01 the pivot's Gamma(0.0099) draws underflow to 0 about
    # once in a thousand; the angles must stay finite and not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = composition_sample(Logistic(1.01), RiskFunctional(kind, np.ones(3)),
                                 20_000, seed=1)
    assert np.all(np.isfinite(out.samples))


def _companion_cdf(p, a, i, kind, w):
    """P(omega_i <= w | pivot) for an iid family with exponent p.

    In T-space every companion weights the pivot density t^p e^(-t) by a
    signed sum of exponentials e^(-c t): 1 - e^(-a t) for a head, e^(-a t)
    for a tail, 1 under ``sum``; each term integrates to
    Gamma(1 + p) (1 + c)^(-(1 + p)).  The heads' product expands by
    inclusion-exclusion over the subset sums A_S.
    """
    q = 1.0 + p
    head = kind != "sum" and (kind == "min") != (p > 0.0)
    rest = np.delete(a, i)
    if kind == "sum":
        rates, signs = np.zeros(1), np.ones(1)
    elif head:
        rates, sizes = subset_sums(rest)
        signs = np.where(sizes % 2 == 0, 1.0, -1.0)
    else:
        rates, signs = np.array([rest.sum()]), np.ones(1)

    def mass(c):
        c = np.asarray(c, dtype=float)[..., None]
        return np.sum(signs * (1.0 + c + rates) ** -q, axis=-1)

    b = np.asarray(w, dtype=float) ** (1.0 / p)  # omega_i = (T_i / t)^p
    if head:  # P(b t < T_i <= a_i t)
        surv = (mass(b) - mass(a[i])) / (mass(0.0) - mass(a[i]))
    else:
        surv = mass(b) / mass(0.0 if kind == "sum" else a[i])
    return surv if p < 0.0 else 1.0 - surv


@pytest.mark.parametrize("model", [Logistic(2.0), NegLogistic(1.5)])
@pytest.mark.parametrize("kind", ["min", "max", "sum"])
def test_iid_companions_follow_their_exact_conditional_law(model, kind):
    # every companion column of every pivot block against its closed form
    u = np.array([1.0, 2.0, 1.5, 3.0])
    p = model._exponent
    rng = derive_rng(59)
    pvalues = []
    for j in range(u.size):
        k = u / u[j]
        a = np.delete(k, j) ** (1.0 / p)
        omega = model.pivot_block(j, k, 20_000, rng, kind)
        assert np.all(omega[:, j] == 1.0)
        for c, i in enumerate(np.flatnonzero(np.arange(u.size) != j)):
            col = omega[:, i]
            if kind == "min":
                assert np.all(col >= k[i] * (1.0 - 1e-12))
            elif kind == "max":
                assert np.all(col <= k[i] * (1.0 + 1e-12))
            pvalues.append(kstest(col, lambda w: _companion_cdf(p, a, c, kind, w)).pvalue)
        if (kind == "min") != (p > 0.0) and kind != "sum":
            # heads jointly: max_i (T_i / t) / a_i <= r has probability
            # sum_S (-1)^|S| (1 + r A_S)^(-(1 + p)), normalized at r = 1;
            # this sees the pivot's law more sharply than any one column
            sums, sizes = subset_sums(a)
            signs = np.where(sizes % 2 == 0, 1.0, -1.0)

            def joint(r):
                r = np.asarray(r, dtype=float)[..., None]
                return (np.sum(signs * (1.0 + r * sums) ** -(1.0 + p), axis=-1)
                        / np.sum(signs * (1.0 + sums) ** -(1.0 + p)))

            ratio = np.delete(omega, j, axis=1) ** (1.0 / p) / a
            pvalues.append(kstest(ratio.max(axis=1), joint).pvalue)
    # a Bonferroni bound at the 0.1 % level over the columns and joint laws
    assert min(pvalues) > 1e-3 / len(pvalues)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 1.0, 36.8, 745.2,
                                    1e300, np.inf]),
                   st.floats(0.0, 1e308)),
       power=st.sampled_from([0, 1]))
@example(x=0.0, power=1)
def test_head_factor_is_a_probability(x, power):
    f = _head_factor(np.array([x]), power)[0]
    assert np.isfinite(f) and 0.0 <= f <= 1.0
    if x == 0.0:
        assert f == float(power)  # 1 - e^(-x) ~ x: limit 1 when divided by x
    elif x < np.inf:
        want = -np.expm1(-x) / x ** power
        assert f == pytest.approx(want, rel=1e-15)


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


def test_max_functional_exceedance_exact():
    # for every family and sampled functional the pivot coordinate is the
    # Pareto radius, and under max (min) it is the scaled maximum (minimum)
    families = (Logistic(2.0), NegLogistic(1.5), HuslerReiss.exchangeable(3, 1.0))
    for model in families:
        for kind in model.sample_kinds:
            out = composition_sample(model, RiskFunctional(kind, np.ones(3)),
                                     20_000, seed=7)
            y = out.samples
            top = y[np.arange(out.pivot.size), out.pivot][:, None]
            assert np.all(top[:, 0] == out.radius) and np.all(out.radius >= 1.0)
            if kind == "max":
                assert np.all(y <= top * (1.0 + 1e-12)), model
            elif kind == "min":
                assert np.all(y >= top * (1.0 - 1e-12)), model


def test_hr_max_samples_are_exact():
    # X = u_pivot Y puts the pivot-normalized samples on the limit measure
    # restricted to {max_i X_i / u_i > 1} and normalized by V(u); so
    # P(X_i > t) = 1 / (t V(u)) for t >= u_i, and P(min_i X_i / s_i > 1) =
    # Xi(s) / V(u) for s >= u.  A non-exchangeable gamma (a Brownian
    # variogram of four sites) with unequal thresholds; the oracles are
    # 1e6-point QMC, and each check allows 4 combined standard errors.
    sites = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, 1.5]])
    model = HuslerReiss(0.8 * np.linalg.norm(sites[:, None] - sites[None], axis=-1))
    u = np.array([1.0, 2.0, 1.5, 3.0])
    n = 200_000
    out = composition_sample(model, RiskFunctional("max", u), n, seed=61)
    x = out.samples * u[out.pivot][:, None]
    assert np.all((x / u).max(axis=1) >= 1.0 - 1e-12)
    v, v_se = exponent_measure_v(model, u, n_points=1_000_000, return_se=True)
    cases = [(x[:, i] > t * u[i], 1.0 / (t * u[i]), 0.0)
             for i in range(u.size) for t in (1.0, 3.0)]
    for s in (u * np.array([1.2, 1.0, 1.5, 1.1]), 2.0 * u):
        xi, xi_se = xi_measure(model, s, n_points=1_000_000, return_se=True)
        cases.append(((x / s).min(axis=1) > 1.0, xi, xi_se))
    for hits, a, a_se in cases:
        p = a / v
        se = np.hypot(np.sqrt(p * (1.0 - p) / n), p * np.hypot(a_se / a, v_se / v))
        assert abs(hits.mean() - p) <= 4.0 * se, (hits.mean(), p, se)


def test_hr_refuses_the_min_functional():
    hr = HuslerReiss(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="min"):
        composition_sample(hr, RiskFunctional("min", np.ones(2)), 10, seed=0)


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
