import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincinv
from scipy.stats import chi2

from extremis.core import derive_rng
from extremis.univariate import (BinGpdModel, GpdParams, fit_gpd_mle, gpd_logpdf,
                                 gpd_quantile, gpd_return_level,
                                 profile_return_level_ci, return_level_closed,
                                 solve_return_level)
from extremis.univariate import returns
from extremis.univariate.gpd import XI_HI, XI_LO

BASE = BinGpdModel(u=100.0, zeta_u=0.05, gpd=GpdParams(10.0, 0.1))


def test_closed_form_value():
    # 100 + (10/0.1) ((300*200*0.05)^0.1 - 1)
    expect = 100.0 + 100.0 * (3000.0 ** 0.1 - 1.0)
    assert return_level_closed(BASE, T=200, Ny=300) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(222.6959, abs=1e-3)


def test_closed_form_threshold_and_log_limit():
    m = BinGpdModel(u=5.0, zeta_u=1.0 / (300.0 * 50.0) * (1 + 1e-9), gpd=GpdParams(1.0, 0.3))
    assert return_level_closed(m, T=50, Ny=300) == pytest.approx(5.0, abs=1e-6)
    m0 = BinGpdModel(u=0.0, zeta_u=np.e / 3000.0, gpd=GpdParams(1.0, 0.0))
    assert return_level_closed(m0, T=10, Ny=300) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        return_level_closed(BinGpdModel(1.0, 0.001, GpdParams(1.0, 0.1)), T=2, Ny=300)


def test_solver_matches_closed_form_single_model():
    z = solve_return_level([BASE], T=200, m=300)
    assert z == pytest.approx(return_level_closed(BASE, T=200, Ny=300), abs=1e-6)


def test_solver_duplicate_models_identical():
    z1 = solve_return_level([BASE], T=200, m=300)
    z2 = solve_return_level([BASE, BASE], T=200, m=300)
    assert z2 == pytest.approx(z1, abs=1e-8)


def test_solver_mixture_between_single_roots():
    a = BinGpdModel(100.0, 0.05, GpdParams(10.0, 0.1))
    b = BinGpdModel(100.0, 0.05, GpdParams(10.0, -0.1))
    za = solve_return_level([a], T=200, m=300)
    zb = solve_return_level([b], T=200, m=300)
    zm = solve_return_level([a, b], T=200, m=300)
    assert min(za, zb) < zm < max(za, zb)


def test_solver_monotone_in_T_and_zeta():
    roots = [solve_return_level([BASE], T=t, m=300) for t in (50, 100, 200, 500)]
    assert np.all(np.diff(roots) > 0)
    roots_z = [solve_return_level([BinGpdModel(100.0, z, GpdParams(10.0, 0.1))], T=200, m=300)
               for z in (0.01, 0.05, 0.2)]
    assert np.all(np.diff(roots_z) > 0)


def test_solver_annual_max_mode_close_but_distinct():
    z_obs = solve_return_level([BASE], T=200, m=300)
    z_ann = solve_return_level([BASE], T=200, m=300, annual_max=True)
    assert abs(z_ann - z_obs) > 1e-4
    assert abs(z_ann - z_obs) < 0.5


def test_solver_requires_level_above_threshold():
    shallow = BinGpdModel(100.0, 1e-6, GpdParams(10.0, 0.1))
    with pytest.raises(ValueError):
        solve_return_level([shallow], T=2, m=300)


def test_profile_interval_contains_mle_and_nests():
    rng = derive_rng(31)
    x = gpd_quantile(rng.uniform(size=800), GpdParams(2.0, 0.15))
    ci95 = profile_return_level_ci(x, zeta_u=0.05, T=200, Ny=300, level=0.95, u=50.0)
    ci99 = profile_return_level_ci(x, zeta_u=0.05, T=200, Ny=300, level=0.99, u=50.0)
    assert ci95.lower < ci95.estimate < ci95.upper
    assert ci99.lower <= ci95.lower and ci99.upper >= ci95.upper


@pytest.mark.slow
def test_profile_interval_coverage():
    truth_model = BinGpdModel(0.0, 0.05, GpdParams(2.0, 0.1))
    truth = return_level_closed(truth_model, T=100, Ny=300)
    hits = 0
    reps = 200
    for r in range(reps):
        rng = derive_rng(5150, r)
        n_exc = rng.binomial(40000, 0.05)
        x = gpd_quantile(rng.uniform(size=n_exc), GpdParams(2.0, 0.1))
        ci = profile_return_level_ci(x, zeta_u=0.05, T=100, Ny=300, level=0.95)
        hits += ci.lower <= truth <= ci.upper
    # about 2 000 exceedances, where the likelihood is narrow in the shape:
    # an interval that under-maximizes the profile over the shape falls
    # below this bound (a 160-point shape grid covers 0.875 of these samples)
    assert hits >= 0.93 * reps


# Closed-form levels (positive, negative and near-zero shape) and a profile
# interval on fixed inputs, recorded before the closed form was shared; the
# interval was re-recorded when the GPD fits moved to analytic-derivative
# Newton, and when its ends moved from a (q, xi) grid to exact roots (the
# grid's ends had deviance 1.854 and 1.834 against the cutoff 1.921).
# Refactors must reproduce them exactly.
PINNED_LEVELS = [
    (GpdParams(1.3, 0.2), 24.685418850049146),
    (GpdParams(1.3, -0.25), 6.404413094604572),
    (GpdParams(1.3, 1e-9), 11.76213584582157),
]
PINNED_PROFILE = (20.734248940496013, 41.12496577027921, 27.33037383578139, [])


def test_pinned_values_are_bit_identical():
    for params, want in PINNED_LEVELS:
        assert return_level_closed(BinGpdModel(2.0, 0.05, params), 100.0, 365.0) == want
    rng = derive_rng(5)
    x = gpd_quantile(rng.uniform(size=400), GpdParams(2.0, 0.15))
    ci = profile_return_level_ci(x, 0.1, 50.0, 100.0, u=3.0)
    assert (ci.lower, ci.upper, ci.estimate, ci.flags) == PINNED_PROFILE


def test_profile_cutoff_is_half_the_scipy_chi2_quantile_bitwise():
    # chi2.ppf(p, 1) is 2 gammaincinv(1/2, p), so halving it is exact
    level = np.concatenate([derive_rng(47).uniform(size=2000),
                            [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0, -0.0, 1e-300,
                             np.nextafter(1.0, 0.0), np.nan]])
    np.testing.assert_array_equal(gammaincinv(0.5, level).view(np.uint64),
                                  (0.5 * chi2.ppf(level, df=1)).view(np.uint64))


def test_array_closed_form_matches_scalar_form():
    rng = derive_rng(17)
    n = 2000
    u = rng.uniform(0.0, 50.0, n)
    sigma = rng.uniform(0.5, 5.0, n)
    xi = np.concatenate([rng.uniform(-0.8, 1.5, n - 2), [0.0, 1e-9]])
    zeta = rng.uniform(0.01, 0.2, n)
    got = gpd_return_level(u, sigma, xi, 365.0 * 100.0 * zeta)
    want = np.array([return_level_closed(BinGpdModel(a, z, GpdParams(s, x)), 100.0, 365.0)
                     for a, s, x, z in zip(u, sigma, xi, zeta)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # scalar arguments take the scalar path and agree exactly; the xi -> 0
    # limit is u + sigma log(lam)
    for a, s, x, z in zip(u[-5:], sigma[-5:], xi[-5:], zeta[-5:]):
        assert gpd_return_level(a, s, x, 36500.0 * z) == return_level_closed(
            BinGpdModel(a, z, GpdParams(s, x)), 100.0, 365.0)
    assert got[-1] == u[-1] + sigma[-1] * np.log(36500.0 * zeta[-1])


def _dense_deviance(x, q, lam, loglik_hat):
    """Deviance at excess ``q`` from a dense scan over every admissible shape,
    zoomed six times around its best point (final spacing about 1e-13)."""
    log_lam = np.log(lam)
    lo, hi = XI_LO, XI_HI
    if q < x.max():
        lo = max(lo, np.log1p(-q / x.max()) / log_lam)
    for _ in range(6):
        xi = np.linspace(lo, hi, 401)
        t = xi * log_lam
        e1 = np.where(t == 0.0, 1.0, np.expm1(t) / np.where(t == 0.0, 1.0, t))
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = gpd_logpdf(x, ((q / (log_lam * e1))[:, None], xi[:, None])).sum(axis=1)
        i = int(np.argmax(ll))
        step = xi[1] - xi[0]
        lo, hi = max(xi[i] - step, lo), min(xi[i] + step, hi)
    return loglik_hat - ll[i]


@pytest.mark.parametrize("seed, n, xi, T", [(5, 400, 0.15, 50.0), (8, 300, -0.4, 200.0),
                                            (11, 2000, 0.0, 100.0), (3, 60, 0.6, 200.0)])
def test_profile_ends_sit_on_the_cutoff(seed, n, xi, T):
    x = gpd_quantile(derive_rng(seed).uniform(size=n), GpdParams(2.0, xi))
    lam = 0.1 * T * 100.0
    ci = profile_return_level_ci(x, 0.1, T, 100.0)
    assert ci.flags == [] and ci.lower < ci.estimate < ci.upper
    cutoff = 0.5 * chi2.ppf(0.95, df=1)
    loglik_hat = fit_gpd_mle(x).loglik
    for end in (ci.lower, ci.upper):
        assert abs(_dense_deviance(x, end, lam, loglik_hat) - cutoff) < 1e-9
    # the MLE's own shape box: the profile peaks at the estimate
    assert abs(_dense_deviance(x, ci.estimate, lam, loglik_hat)) < 1e-9


@pytest.mark.parametrize("xi", [-0.3, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.3,
                                0.99 * returns.T_SERIES / np.log(1500.0),
                                1.01 * returns.T_SERIES / np.log(1500.0),
                                -0.99 * returns.T_SERIES / np.log(1500.0),
                                -1.01 * returns.T_SERIES / np.log(1500.0)])
def test_profile_terms_match_finite_differences(xi):
    # along sigma(q, xi) = q xi / expm1(xi log lam): central differences with
    # steps that straddle the xi = 0 seam and the series switch in phi
    x = gpd_quantile(derive_rng(41).uniform(size=300), GpdParams(2.0, 0.1))
    log_lam, q, h = np.log(1500.0), 15.0, 1e-5

    def terms(q_, xi_):
        return returns._profile_terms(x, q_, log_lam, xi_)

    g, H, _, Fq = terms(q, xi)
    assert g == pytest.approx((terms(q, xi + h)[2] - terms(q, xi - h)[2]) / (2 * h),
                              rel=1e-6, abs=1e-6)
    assert H == pytest.approx((terms(q, xi + h)[0] - terms(q, xi - h)[0]) / (2 * h),
                              rel=1e-6)
    hq = 1e-5 * q
    assert Fq == pytest.approx((terms(q + hq, xi)[2] - terms(q - hq, xi)[2]) / (2 * hq),
                               rel=1e-6, abs=1e-6)


def test_profile_terms_off_the_support():
    # shapes whose endpoint -sigma/xi falls below the largest point
    x = np.array([1.0, 2.0, 10.0])
    g, H, F, _ = returns._profile_terms(x, 5.0, np.log(1500.0), -0.5)
    assert F == np.inf and np.isnan(g) and np.isnan(H)


# Small heavy-tailed samples whose profile stays within the cutoff for the
# whole capped search on one side or both: the flagged lower end is the
# threshold, the flagged upper end +inf, and an unflagged end still sits on
# the cutoff.
@pytest.mark.parametrize("seed, n, xi, T, flags", [
    (0, 5, 0.5, 10.0, ["profile-flat", "upper-unbounded"]),
    (25, 8, 0.5, 10.0, ["profile-flat", "lower-unbounded"]),
    (0, 5, 2.0, 200.0, ["profile-flat", "lower-unbounded", "upper-unbounded"]),
])
def test_profile_flags_on_flat_profiles(seed, n, xi, T, flags):
    x = gpd_quantile(derive_rng(seed).uniform(size=n), GpdParams(1.0, xi))
    ci = profile_return_level_ci(x, 0.05, T, 300.0, u=7.0)
    assert ci.flags == flags
    assert (ci.lower == 7.0) == ("lower-unbounded" in flags)
    assert (ci.upper == np.inf) == ("upper-unbounded" in flags)
    assert ci.lower < ci.estimate < ci.upper
    lam, q_hat = 0.05 * T * 300.0, ci.estimate - 7.0
    loglik_hat = fit_gpd_mle(x).loglik
    cutoff = 0.5 * chi2.ppf(0.95, df=1)
    # the searches end at q_hat / 2^18 below, and at least 2^17 * 1e-3 q_hat
    # above the estimate
    far = {"lower-unbounded": q_hat / 2.0**18, "upper-unbounded": q_hat * 132.0}
    for flag, q in far.items():
        if flag in flags:
            assert _dense_deviance(x, q, lam, loglik_hat) < cutoff
    for end in (ci.lower, ci.upper):
        if 7.0 < end < np.inf:
            assert abs(_dense_deviance(x, end - 7.0, lam, loglik_hat) - cutoff) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(30, 400),
       xi=st.floats(-0.7, 0.8), T=st.sampled_from([20.0, 200.0]))
def test_profile_ends_match_a_dense_shape_scan(seed, n, xi, T):
    x = gpd_quantile(derive_rng(seed).uniform(size=n), GpdParams(2.0, xi))
    ci = profile_return_level_ci(x, 0.05, T, 300.0)
    assert ci.lower < ci.estimate < ci.upper
    loglik_hat = fit_gpd_mle(x).loglik
    cutoff = 0.5 * chi2.ppf(0.95, df=1)
    for end in (ci.lower, ci.upper):
        if 0.0 < end < np.inf:
            dev = _dense_deviance(x, end, 0.05 * T * 300.0, loglik_hat)
            assert abs(dev - cutoff) < 1e-8
