import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import derivative_free_minimum, gpd_quantile_where, numeric_gradient
from extremis import _optim
from extremis.cli import run
from extremis._optim import minimize_nll, numeric_hessian
from extremis.core import derive_rng
from extremis.univariate import (GpdParams, RegressionSpec, exceedance_fraction,
                                 fit_gpd_mle, fit_gpd_regression, gpd, gpd_cdf,
                                 gpd_logpdf, gpd_quantile)
from extremis.univariate.gpd import (W_SERIES, XI_ZERO, _G1_SERIES, _G2_SERIES, _g1_g2,
                                    _gpd_loglik_sum, gpd_nll_derivs)


def test_cdf_exponential_case():
    assert gpd_cdf(1.0, GpdParams(1.0, 0.0)) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)


def test_quantile_closed_form():
    # sigma/xi ((1-q)^(-xi) - 1) at q=.5, sigma=2, xi=.5 -> 4(sqrt(2)-1)
    assert gpd_quantile(0.5, GpdParams(2.0, 0.5)) == pytest.approx(4.0 * (np.sqrt(2.0) - 1.0), rel=1e-12)


def test_cdf_saturates_at_endpoint():
    assert gpd_cdf(2.0, GpdParams(1.0, -0.5)) == 1.0
    assert gpd_cdf(2.5, GpdParams(1.0, -0.5)) == 1.0
    assert gpd_logpdf(2.5, GpdParams(1.0, -0.5)) == -np.inf


@pytest.mark.parametrize("xi", [-0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0])
def test_quantile_cdf_round_trip(xi):
    p = GpdParams(1.3, xi)
    q = np.linspace(0.001, 0.999, 97)
    x = gpd_quantile(q, p)
    np.testing.assert_allclose(gpd_cdf(x, p), q, rtol=1e-10)
    np.testing.assert_allclose(gpd_quantile(gpd_cdf(x, p), p), x, rtol=1e-10)


def test_logpdf_matches_scipy():
    from scipy.stats import genpareto
    x = np.linspace(0.01, 5.0, 23)
    for xi in (-0.3, 0.0, 0.4):
        p = GpdParams(1.7, xi)
        ref = genpareto.logpdf(x, xi, scale=1.7)
        np.testing.assert_allclose(gpd_logpdf(x, p), ref, rtol=1e-9, atol=1e-12)


def test_mle_exponential_constant_sample():
    fit = fit_gpd_mle(np.full(12, 3.0), fix_xi=0.0)
    assert fit.params.sigma == pytest.approx(3.0, rel=1e-6)
    fit2 = fit_gpd_mle(np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]), fix_xi=0.0)
    assert fit2.params.sigma == pytest.approx(2.0, rel=1e-6)


def test_mle_recovery_within_3se():
    rng = derive_rng(2024)
    truth = GpdParams(2.0, 0.2)
    x = gpd_quantile(rng.uniform(size=10_000), truth)
    fit = fit_gpd_mle(x)
    assert fit.se is not None
    assert abs(fit.params.sigma - 2.0) < 3.0 * fit.se[0]
    assert abs(fit.params.xi - 0.2) < 3.0 * fit.se[1]


def test_mle_gradient_near_zero_at_optimum():
    rng = derive_rng(7)
    x = gpd_quantile(rng.uniform(size=2_000), GpdParams(1.0, 0.1))
    fit = fit_gpd_mle(x)

    def nll(t):
        return -float(np.sum(gpd_logpdf(x, (t[0], t[1]))))

    g = numeric_gradient(nll, np.array([fit.params.sigma, fit.params.xi]))
    theta = np.array([fit.params.sigma, fit.params.xi])
    scaled = np.abs(g) * np.maximum(np.abs(theta), 1.0) / max(abs(fit.loglik), 1.0)
    assert scaled.max() < 1e-4


@pytest.mark.parametrize("seed", [31, 79, 173])
def test_mle_starts_inside_a_negative_shape_support(seed):
    # the moment start puts the endpoint -sigma0/xi0 below the sample
    # maximum here; the fit must start from a scale that covers the data
    x = gpd_quantile(derive_rng(seed, 7).uniform(size=100), GpdParams(1.0, -0.3))
    sigma0, xi0 = gpd._moment_start(x)
    assert xi0 < 0.0 and x.max() > -sigma0 / xi0
    fit = fit_gpd_mle(x)
    assert fit.converged and fit.flags == [] and fit.se is not None
    assert abs(fit.params.xi + 0.3) < 3.0 * fit.se[1]


def test_mle_preconditions():
    with pytest.raises(ValueError):
        fit_gpd_mle([1.0, 2.0])
    with pytest.raises(ValueError):
        fit_gpd_mle([-1.0, 1.0, 1.0, 1.0, 1.0])


def test_regression_intercept_only_matches_pooled():
    rng = derive_rng(11)
    y = gpd_quantile(rng.uniform(size=600), GpdParams(1.5, 0.1))
    X = rng.normal(size=(600, 2))
    u = np.zeros(600)
    pooled = fit_gpd_mle(y)
    reg = fit_gpd_regression(X, y, u, RegressionSpec())
    assert reg.beta_sigma[0] == pytest.approx(np.log(pooled.params.sigma), abs=2e-4)
    assert reg.beta_xi[0] == pytest.approx(pooled.params.xi, abs=2e-4)


def test_regression_recovery_within_3se():
    rng = derive_rng(21)
    n = 20_000
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sigma = np.exp(0.5 + 0.3 * x[:, 0])
    xi = 0.1
    y = gpd_quantile(rng.uniform(size=n), (sigma, np.full(n, xi)))
    reg = fit_gpd_regression(x, y, np.zeros(n), RegressionSpec(sigma_columns=(0,)))
    assert reg.cov is not None
    se = np.sqrt(np.diag(reg.cov))
    est = np.concatenate([reg.beta_sigma, reg.beta_xi])
    truth = np.array([0.5, 0.3, 0.1])
    assert np.all(np.abs(est - truth) < 3.0 * se)


def test_regression_recovers_shape_covariate():
    rng = derive_rng(27)
    n = 20_000
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    xi = 0.05 + 0.15 * x[:, 0]
    y = gpd_quantile(rng.uniform(size=n), (np.full(n, np.exp(0.3)), xi))
    reg = fit_gpd_regression(x, y, np.zeros(n),
                             RegressionSpec(xi_columns=(0,)))
    se = np.sqrt(np.diag(reg.cov))
    est = np.concatenate([reg.beta_sigma, reg.beta_xi])
    assert np.all(np.abs(est - np.array([0.3, 0.05, 0.15])) < 3.0 * se)


def test_regression_insufficient_exceedances():
    X = np.ones((10, 3))
    y = np.array([2.0, 3.0, 4.0] + [0.0] * 7)
    u = np.ones(10)
    with pytest.raises(ValueError, match="insufficient exceedances"):
        fit_gpd_regression(X, y, u, RegressionSpec(sigma_columns=(0, 1)))


def test_exceedance_fraction():
    assert exceedance_fraction([1, 2, 3], [0, 0, 0]) == 1.0
    assert exceedance_fraction([1, 2, 3], [2, 2, 2]) == pytest.approx(1 / 3)
    assert exceedance_fraction([1.0, 2.0], [1.0, 2.0]) == 0.0


# Shapes on both sides of the xi = 0 seam (|xi| < XI_ZERO takes the
# exponential branch), at its edges, and across the fitting range.
seam_shapes = st.one_of(st.floats(-1e-8, 1e-8),
                        st.sampled_from([0.0, XI_ZERO, -XI_ZERO, 2e-8, -2e-8]),
                        st.floats(-0.99, 4.99))


def _points(seed, n, sigma, negative=False):
    """Exceedances spread past the endpoint -sigma/xi of a negative shape,
    with some exact zeros (and, on request, points below the origin)."""
    rng = derive_rng(seed)
    x = rng.exponential(3.0 * sigma, n)
    x[rng.uniform(size=n) < 0.1] = 0.0
    if negative:
        x[rng.uniform(size=n) < 0.05] *= -1.0
    return x


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 300),
       sigma=st.floats(0.05, 20.0), xi=seam_shapes, negative=st.booleans())
def test_loglik_sum_is_logpdf_sum(seed, n, sigma, xi, negative):
    x = _points(seed, n, sigma, negative)
    got = _gpd_loglik_sum(x, sigma, xi)
    assert got == np.sum(gpd_logpdf(x, (sigma, xi)))
    if xi < 0.0 and x.max() > -sigma / xi * (1.0 + 1e-9) or x.min() < 0.0:
        assert got == -np.inf


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 200), k=st.integers(1, 12),
       seam=st.booleans())
def test_loglik_sum_broadcasts_parameter_rows(seed, n, k, seam):
    rng = derive_rng(seed, 1)
    x = _points(seed, n, 2.0)
    sigma = rng.uniform(0.1, 8.0, (k, 1))
    xi = rng.choice([-0.9, -0.4, -0.05, 0.3, 1.5, 4.0], (k, 1))
    if seam:
        xi[rng.integers(k)] = rng.uniform(-XI_ZERO, XI_ZERO)
    want = gpd_logpdf(x, (sigma, xi)).sum(axis=-1)
    assert np.array_equal(_gpd_loglik_sum(x, sigma, xi), want)
    # per-row sums equal one row at a time
    for i in range(k):
        assert _gpd_loglik_sum(x, sigma[i, 0], xi[i, 0]) == want[i]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 300))
def test_loglik_sum_takes_per_point_parameters(seed, n):
    # the regression objective's form: one (sigma, xi) per point
    rng = derive_rng(seed, 2)
    x = _points(seed, n, 1.0)
    sigma = np.exp(rng.normal(0.0, 0.5, n))
    xi = rng.uniform(-0.6, 1.0, n)
    assert _gpd_loglik_sum(x, sigma, xi) == gpd_logpdf(x, (sigma, xi)).sum()


@settings(max_examples=300, deadline=None)
@given(q=st.floats(1e-9, 1.0 - 1e-9), sigma=st.floats(0.05, 20.0),
       xi=st.one_of(st.floats(-1e-6, 1e-6), st.sampled_from([0.0, XI_ZERO, -XI_ZERO])))
def test_cdf_inverts_quantile_across_seam(q, sigma, xi):
    # log1p keeps the cumulative hazard relatively accurate just outside
    # the seam too, so the round trip holds to a relative bound throughout
    c = gpd_cdf(gpd_quantile(q, (sigma, xi)), (sigma, xi))
    assert c == pytest.approx(q, rel=1e-12, abs=0.0)


quantile_shapes = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-9, -5e-9, XI_ZERO, -XI_ZERO, -0.99, 4.99]),
    st.floats(-1e-6, 1e-6), st.floats(-0.99, 4.99))
quantile_levels = st.one_of(st.sampled_from([1e-300, 1.0 - 2.0**-53]),
                            st.floats(1e-300, 1.0 - 2.0**-53))


@settings(max_examples=300, deadline=None)
@given(q=quantile_levels, sigma=st.floats(1e-8, 1e4), xi=quantile_shapes)
def test_quantile_is_the_two_branch_form_bit_for_bit(q, sigma, xi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning at xi = 0 either
        got = gpd_quantile(q, (sigma, xi))
    assert isinstance(got, float)
    _same_bits([got], [gpd_quantile_where(q, sigma, xi)])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 9), draws=st.integers(1, 30),
       sigma_rows=st.booleans(), xi_rows=st.booleans(), q_rows=st.booleans())
def test_quantile_broadcasts_bit_for_bit(seed, rows, draws, sigma_rows, xi_rows, q_rows):
    # a (1, draws) scale or shape against (rows, draws), levels per row or
    # one for all, the seam's and the ends' values mixed in
    rng = derive_rng(seed)
    sigma = np.exp(rng.normal(0.0, 2.0, (rows if sigma_rows else 1, draws)))
    xi = rng.uniform(-0.99, 4.99, (rows if xi_rows else 1, draws))
    pick = rng.uniform(size=xi.shape) < 0.3
    xi[pick] = rng.choice([0.0, -0.0, 5e-9, -5e-9, XI_ZERO, -XI_ZERO, -0.99, 4.99],
                          pick.sum())
    q = rng.choice([1e-300, 0.5, 0.99, 1.0 - 2.0**-53], (rows, 1)) if q_rows else 0.999
    got = gpd_quantile(q, (sigma, xi))
    assert got.shape == np.broadcast_shapes(np.shape(q), sigma.shape, xi.shape)
    _same_bits([got], [gpd_quantile_where(q, sigma, xi)])


# ---------------------------------------------------------- derivatives
#
# The analytic score and information are those of the smooth GPD
# likelihood, so the finite differences are taken of a reference NLL whose
# cumulative hazard z log1p(w) / w (w = xi z; z at w = 0) has no seam.
# gpd_logpdf instead takes the exponential limit inside the seam, which
# would put its jump into a difference across it; log1p(w) / xi itself
# (scipy's genpareto form) quantizes at subnormal xi.

deriv_shapes = st.one_of(
    st.sampled_from([0.0, 5e-9, -5e-9, XI_ZERO, -XI_ZERO, 2e-8, -2e-8]),
    st.floats(-1e-6, 1e-6), st.floats(-0.9, 4.9))


def _ref_nll(x, eta, xi):
    z = x * np.exp(-eta)
    w = xi * z
    ratio = np.where(w == 0.0, 1.0, np.log1p(w) / np.where(w == 0.0, 1.0, w))
    return float(np.sum(eta + (1.0 + xi) * z * ratio))


def test_reference_nll_matches_logpdf():
    x = np.linspace(0.0, 4.0, 23)
    for eta, xi in ((0.3, -0.3), (0.3, 0.0), (-0.2, 0.4), (1.0, 2.5)):
        want = -np.sum(gpd_logpdf(x, (np.exp(eta), xi)))
        assert _ref_nll(x, eta, xi) == pytest.approx(want, rel=1e-13)


def _gpd_sample(seed, n, eta, xi, q_max):
    """Draws from the GPD at quantile levels up to ``q_max``; near 1 they
    approach a negative shape's endpoint."""
    u = derive_rng(seed, 3).uniform(0.0, q_max, size=n)
    return gpd_quantile(u, (np.exp(eta), xi))


def _close(got, want, scale, rtol):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rtol * scale), (got, want, scale)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(5, 60), eta=st.floats(-2.0, 2.5),
       xi=deriv_shapes, q_max=st.sampled_from([0.9, 0.999, 0.999999]))
def test_scalar_score_and_information_match_finite_differences(seed, n, eta, xi, q_max):
    x = _gpd_sample(seed, n, eta, xi, q_max)
    nll, score, info = gpd_nll_derivs(x, eta, xi)
    assert nll == pytest.approx(-np.sum(gpd_logpdf(x, (np.exp(eta), xi))), rel=1e-12)
    t = np.array([eta, xi])
    f = lambda t: _ref_nll(x, t[0], t[1])  # noqa: E731
    # differences in f lose about eps |f| / step, so the scales include |f|
    g_scale = np.abs(score).sum() + abs(nll) + 1.0
    _close(score.sum(axis=1), numeric_gradient(f, t), g_scale, 1e-6)
    hess = np.array([[info[0].sum(), info[1].sum()], [info[1].sum(), info[2].sum()]])
    _close(hess, numeric_hessian(f, t), np.abs(info).sum() + abs(nll) + 1.0, 1e-4)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(5, 60), eta=st.floats(-2.0, 2.5),
       xi=deriv_shapes, q_max=st.sampled_from([0.9, 0.999999]))
def test_fixed_xi_score_and_information_match_finite_differences(seed, n, eta, xi, q_max):
    x = _gpd_sample(seed, n, eta, xi, q_max)
    nll, derivs = gpd._objective(x, np.ones((n, 1)), None, xi)
    grad, hess = derivs(np.array([eta]))
    f = lambda t: _ref_nll(x, t[0], xi)  # noqa: E731
    t = np.array([eta])
    _, score, info = gpd_nll_derivs(x, eta, xi)
    _close(grad, numeric_gradient(f, t), np.abs(score[0]).sum() + abs(nll(t)) + 1.0, 1e-6)
    _close(hess, numeric_hessian(f, t), np.abs(info[0]).sum() + abs(nll(t)) + 1.0, 1e-4)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(12, 60), xi0=deriv_shapes,
       slope=st.sampled_from([0.0, 2e-8, 0.05]), q_max=st.sampled_from([0.9, 0.999999]))
def test_regression_score_and_information_match_finite_differences(seed, n, xi0, slope,
                                                                   q_max):
    # xi0 + slope x puts shapes on both sides of the seam within one fit
    rng = derive_rng(seed, 4)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    Xs = np.column_stack([np.ones(n), X])
    Xx = np.column_stack([np.ones(n), X[:, 0]])
    beta = np.array([0.3, 0.2, -0.1, np.clip(xi0, -0.85, 4.85), slope])
    eta, xi = Xs @ beta[:3], Xx @ beta[3:]
    z = _gpd_sample(seed, n, eta, xi, q_max)
    nll, derivs = gpd._objective(z, Xs, Xx)
    grad, hess = derivs(beta)
    f = lambda b: _ref_nll(z, Xs @ b[:3], Xx @ b[3:])  # noqa: E731
    _, score, info = gpd_nll_derivs(z, eta, xi)
    g_scale = np.abs(score).sum() * np.abs(X).max() + abs(nll(beta)) + 1.0
    _close(grad, numeric_gradient(f, beta), g_scale, 1e-6)
    _close(hess, numeric_hessian(f, beta), np.abs(info).sum() + abs(nll(beta)) + 1.0, 1e-4)


def _derivative_free(nll, x0, bounds=None):
    return derivative_free_minimum(nll, x0, bounds)[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derivative_fits_reach_the_derivative_free_optimum(seed):
    rng = derive_rng(seed, 5)
    n = 800
    X = rng.uniform(-1.0, 1.0, size=(n, 3))
    xi_true = (0.1, -0.2, 0.3)[seed]
    z = gpd_quantile(rng.uniform(size=n), (np.exp(0.4 + 0.3 * X[:, 0]),
                                           xi_true + 0.1 * X[:, 1]))
    ones = np.ones((n, 1))
    Xs = np.column_stack([ones, X])
    Xx = np.column_stack([ones, X[:, 1]])
    sigma0, xi0 = gpd._moment_start(z)
    cases = [(gpd._objective(z, ones, ones), np.array([np.log(sigma0), xi0])),
             (gpd._objective(z, ones, None, xi_true),
              np.array([np.log(max(sigma0, -2.0 * xi_true * z.max()))])),
             (gpd._objective(z, Xs, Xx),
              np.array([np.log(sigma0), 0.0, 0.0, 0.0, max(xi0, 0.0), 0.0]))]
    for (nll, derivs), x0 in cases:
        _, val, ok = minimize_nll(nll, x0, derivs)
        assert ok
        assert val <= _derivative_free(nll, x0) + 1e-8
    assert fit_gpd_mle(z, fix_xi=xi_true).flags == []
    reg = fit_gpd_regression(X, z, np.zeros(n), RegressionSpec((0, 1, 2), (1,)))
    assert reg.flags == []
    nll, _ = gpd._objective(z, Xs, Xx)
    assert -reg.loglik <= _derivative_free(nll, reg.coefficients) + 1e-8


@pytest.mark.parametrize("failure", ["iteration-budget", "nan-derivatives"])
def test_failed_newton_run_raises(monkeypatch, capsys, tmp_path, failure):
    rng = derive_rng(31)
    n = 1500
    X = rng.uniform(-1.0, 1.0, size=(n, 1))
    y = gpd_quantile(rng.uniform(size=n), (np.exp(0.5 + 0.3 * X[:, 0]), 0.1))
    spec = RegressionSpec(sigma_columns=(0,))
    want = fit_gpd_mle(y)
    assert fit_gpd_regression(X, y, np.zeros(n), spec).converged
    if failure == "iteration-budget":
        monkeypatch.setattr(_optim, "NEWTON_ITER", 1)
    else:
        real = gpd.gpd_nll_derivs

        def nan_score(x, eta, xi):
            nll, score, info = real(x, eta, xi)
            return nll, score * np.nan, info

        monkeypatch.setattr(gpd, "gpd_nll_derivs", nan_score)
    with pytest.raises(RuntimeError, match="GPD fit did not converge"):
        fit_gpd_regression(X, y, np.zeros(n), spec)
    # the pooled fit that starts the regression is given its full budget
    monkeypatch.setattr(gpd, "fit_gpd_mle", lambda z: want)
    with pytest.raises(RuntimeError, match="GPD regression did not converge"):
        fit_gpd_regression(X, y, np.zeros(n), spec)
    path = tmp_path / "pot.csv"
    np.savetxt(path, np.column_stack([X[:, 0], y]), delimiter=",", header="x,y",
               comments="")
    capsys.readouterr()
    assert run(["fit-gpd", "--input", str(path), "--response", "y",
                "--sigma-covariates", "x"]) == 1
    err = capsys.readouterr().err
    assert err == "extremis fit-gpd: error: GPD regression did not converge within budget\n"


# trust-krylov's subproblem solver returned a NaN step on this sample in
# some interpreters only; the fit must not depend on the process
_SEED_28_FIT = """
import sys
import warnings
sys.path.insert(0, sys.argv[1])
from extremis.core import derive_rng
from extremis.univariate import GpdParams, fit_gpd_mle, gpd_quantile
warnings.simplefilter("error")
fit = fit_gpd_mle(gpd_quantile(derive_rng(28).uniform(size=8), GpdParams(1.0, 2.0)))
print(fit.flags)
print(repr((fit.params, fit.loglik, fit.cov.tolist())))
"""


def test_seed_28_sample_fits_alike_in_fresh_interpreters():
    src = str(Path(gpd.__file__).resolve().parents[2])
    runs = [subprocess.run([sys.executable, "-c", _SEED_28_FIT, src], capture_output=True,
                           text=True, check=True) for _ in range(2)]
    assert runs[0].stderr == runs[1].stderr == ""
    assert runs[0].stdout.splitlines()[0] == "[]"
    assert runs[0].stdout == runs[1].stdout


_XI_BOX = (gpd.XI_LO + 1e-6, gpd.XI_HI - 1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(20, 400),
       xi=st.floats(-0.6, 1.5), slope=st.floats(-0.5, 0.5),
       regression=st.booleans())
def test_newton_fit_is_no_worse_than_the_derivative_free_reference(
        seed, n, xi, slope, regression):
    # wherever both optima lie inside the fitting box, the Newton run's
    # log likelihood is at least the reference's, up to rounding
    rng = derive_rng(seed, 9)
    X = rng.uniform(-1.0, 1.0, size=(n, 1))
    shape = np.clip(xi + slope * X[:, 0], -0.9, 4.9) if regression else xi
    z = gpd_quantile(rng.uniform(size=n), (np.exp(0.2 + 0.3 * X[:, 0]), shape))
    if regression:
        try:
            fit = fit_gpd_regression(X, z, np.zeros(n), RegressionSpec((0,), (0,)))
        except RuntimeError:
            event("regression on a shape wall")
            return
        # the reference starts where the regression's Newton run does
        pooled = fit_gpd_mle(z).params
        x0 = [np.log(pooled.sigma), 0.0, np.clip(pooled.xi, -0.4, 0.9), 0.0]
        nll, _ = gpd._objective(z, *(np.column_stack([np.ones(n), X]),) * 2)
        xs, val, _ = derivative_free_minimum(nll, x0)
        ref_xi = np.column_stack([np.ones(n), X]) @ xs[2:]
        fit_xi = fit.predict(X)[1]
        inside = np.all((_XI_BOX[0] < ref_xi) & (ref_xi < _XI_BOX[1])
                        & (_XI_BOX[0] < fit_xi) & (fit_xi < _XI_BOX[1]))
    else:
        fit = fit_gpd_mle(z)
        nll, _ = gpd._objective(z, np.ones((n, 1)), np.ones((n, 1)))
        sigma0, xi0 = gpd._moment_start(z)
        x0 = [np.log(max(sigma0, -2.0 * xi0 * z.max())), xi0]
        xs, val, _ = derivative_free_minimum(nll, x0, [(-50.0, 50.0), _XI_BOX])
        inside = _XI_BOX[0] < xs[1] < _XI_BOX[1] and "xi-at-bound" not in fit.flags
    event("compared" if inside else "an optimum on the box")
    if inside:
        assert fit.loglik >= -val - 1e-9 * abs(val)


def _g1_g2_both_forms(w):
    """Both series at every point and the closed forms off the series band,
    then a pick per point: the form ``_g1_g2`` splits."""
    series = np.abs(w) < W_SERIES
    ws = np.where(series, w, 0.0)
    g1 = np.polynomial.polynomial.polyval(ws, _G1_SERIES)
    g2 = np.polynomial.polynomial.polyval(ws, _G2_SERIES)
    if not series.all():
        wd = np.where(series, 1.0, w)
        inv = 1.0 / (1.0 + wd)
        g1d = (np.log1p(wd) / wd - inv) / wd
        g1 = np.where(series, g1, g1d)
        g2 = np.where(series, g2, (2.0 * g1d - inv * inv) / wd)
    return g1, g2


def _same_bits(got, want):
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        np.testing.assert_array_equal(np.asarray(a).view(np.uint64),
                                      np.asarray(b).view(np.uint64))


def test_g1_g2_split_is_bit_identical_to_both_forms():
    edge = np.nextafter(W_SERIES, 0.0)
    points = np.array([0.0, -0.0, 1e-300, -1e-300, W_SERIES, -W_SERIES, edge, -edge,
                       -0.99, 1e6])
    rng = derive_rng(53)
    cases = [points, points[:4], points[4:], np.asarray(0.05), np.asarray(3.0),
             rng.uniform(-0.99, 3.0, 5000), rng.uniform(-0.1, 0.1, 500),
             rng.uniform(-0.99, 3.0, (7, 40))]
    for w in cases:
        _same_bits(_g1_g2(w), _g1_g2_both_forms(w))
