from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremis.core import derive_rng
from extremis.univariate import (BinGpdModel, GpdParams, gpd_logpdf, gpd_quantile,
                                 gpd_return_level, profile_return_level_ci,
                                 return_level_closed, solve_return_level)
from extremis.univariate import returns

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
        n_exc = rng.binomial(4000, 0.05)
        x = gpd_quantile(rng.uniform(size=n_exc), GpdParams(2.0, 0.1))
        ci = profile_return_level_ci(x, zeta_u=0.05, T=100, Ny=300, level=0.95,
                                     grid_size=200)
        hits += ci.lower <= truth <= ci.upper
    assert hits >= 0.90 * reps


# Closed-form levels (positive, negative and near-zero shape) and a profile
# interval on fixed inputs, recorded before the closed form was shared; the
# interval was re-recorded once when the GPD fits moved to analytic-derivative
# Newton.  Refactors must reproduce them exactly.
PINNED_LEVELS = [
    (GpdParams(1.3, 0.2), 24.685418850049146),
    (GpdParams(1.3, -0.25), 6.404413094604572),
    (GpdParams(1.3, 1e-9), 11.76213584582157),
]
PINNED_PROFILE = (20.816161680755325, 40.670783967442354, 27.33037383578139, [])


def test_pinned_values_are_bit_identical():
    for params, want in PINNED_LEVELS:
        assert return_level_closed(BinGpdModel(2.0, 0.05, params), 100.0, 365.0) == want
    rng = derive_rng(5)
    x = gpd_quantile(rng.uniform(size=400), GpdParams(2.0, 0.15))
    ci = profile_return_level_ci(x, 0.1, 50.0, 100.0, u=3.0)
    assert (ci.lower, ci.upper, ci.estimate, ci.flags) == PINNED_PROFILE


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


def _profile_loglik_by_chunks(x, q_excess, lam):
    """The profile grid as it was before the likelihood kernel: 64 q rows at
    a time as one (64, 160, n) tensor through gpd_logpdf."""
    sig = returns._sigma_of(q_excess[:, None], returns.XI_GRID[None, :], lam)
    ll = np.full(sig.shape, -np.inf)
    valid = sig > 0.0
    for a in range(0, q_excess.size, 64):
        s = sig[a:a + 64][:, :, None]
        xi = np.broadcast_to(returns.XI_GRID[None, :, None], s.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = gpd_logpdf(x[None, None, :], (s, xi))
        ll[a:a + 64] = np.where(valid[a:a + 64], lp.sum(axis=2), -np.inf)
    return ll.max(axis=1)


def _interval_or_error(*args):
    try:
        ci = profile_return_level_ci(*args)
    except (RuntimeError, ValueError) as err:
        return repr(err)
    return (ci.lower, ci.upper, ci.estimate, ci.flags)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(30, 400),
       xi=st.floats(-0.7, 0.3), T=st.sampled_from([20.0, 200.0]))
def test_profile_grid_matches_chunked_tensor(seed, n, xi, T):
    x = gpd_quantile(derive_rng(seed).uniform(size=n), GpdParams(2.0, xi))
    lam = 0.05 * T * 300.0
    qs = np.linspace(1e-9, 3.0 * gpd_return_level(0.0, 2.0, xi, lam), 130)
    got = returns._profile_loglik(x, qs, lam)
    assert np.array_equal(got, _profile_loglik_by_chunks(x, qs, lam))
    with mock.patch.object(returns, "_profile_loglik", _profile_loglik_by_chunks):
        want = _interval_or_error(x, 0.05, T, 300.0)
    assert _interval_or_error(x, 0.05, T, 300.0) == want


def test_profile_grid_cells_off_the_support_are_excluded():
    # negative shape: cells whose endpoint lies below the largest point are
    # -inf and drop out of the maximum over the xi grid
    x = gpd_quantile(derive_rng(8).uniform(size=300), GpdParams(2.0, -0.4))
    lam = 0.05 * 200.0 * 300.0
    qs = np.linspace(1e-9, 12.0, 50)
    sig = returns._sigma_of(qs[:, None], returns.XI_GRID[None, :], lam)
    off = 1.0 + returns.XI_GRID * x.max() / sig <= 0.0
    assert off.any() and not off.all()
    got = returns._profile_loglik(x, qs, lam)
    assert np.array_equal(got, _profile_loglik_by_chunks(x, qs, lam))
    assert np.isfinite(got).all()
