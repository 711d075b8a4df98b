import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import simplex_full_sort
from extremis.core import derive_rng
from extremis.univariate import ald, check_loss, fit_ald


def test_check_loss_definition():
    r = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(check_loss(r, 0.25), [1.5, 0.0, 0.75])


def test_intercept_only_median():
    rng = derive_rng(1)
    y = rng.normal(size=201)  # odd length: unique check-loss minimizer
    fit = fit_ald(np.empty((201, 0)), y, tau=0.5)
    assert fit.beta_eta[0] == pytest.approx(np.median(y), abs=1e-6)


def test_perfect_linear_fit_zero_loss():
    x = np.linspace(-1.0, 2.0, 40)
    y = 2.0 * x
    for tau in (0.2, 0.5, 0.8):
        fit = fit_ald(x[:, None], y, tau=tau)
        assert fit.beta_eta == pytest.approx([0.0, 2.0], abs=1e-6)
        resid = y - fit.predict(x[:, None])
        assert np.sum(check_loss(resid, tau)) < 1e-8


def test_intercept_only_upper_quantile_bracket():
    y = np.arange(1.0, 101.0)
    fit = fit_ald(np.empty((100, 0)), y, tau=0.9)
    # the 0.9 check loss is minimized on [y_(90), y_(91)] = [90, 91]
    assert 90.0 - 1e-6 <= fit.beta_eta[0] <= 91.0 + 1e-6


def test_quantile_recovery_with_covariate():
    rng = derive_rng(17)
    n = 4000
    x = rng.uniform(0.0, 1.0, size=n)
    y = 1.0 + 2.0 * x + rng.normal(scale=0.5, size=n)
    tau = 0.75
    fit = fit_ald(x[:, None], y, tau=tau)
    from scipy.stats import norm
    truth = np.array([1.0 + 0.5 * norm.ppf(tau), 2.0])
    se = np.sqrt(np.diag(fit.cov))
    assert np.all(np.abs(fit.beta_eta - truth) < 4.0 * se)


def test_exceedance_rate_matches_tau():
    rng = derive_rng(23)
    n = 6000
    x = rng.normal(size=(n, 2))
    y = x @ np.array([1.0, -0.5]) + rng.standard_t(df=5, size=n)
    fit = fit_ald(x, y, tau=0.95)
    below = np.mean(y <= fit.predict(x))
    assert below == pytest.approx(0.95, abs=0.01)


def test_collinear_design_reports_column():
    x = np.ones((30, 2))
    x[:, 1] = 2.0  # both columns constant: collinear with the intercept
    y = np.arange(30.0)
    with pytest.raises(ValueError, match="collinear"):
        fit_ald(x, y, tau=0.5)


def test_tau_validation():
    with pytest.raises(ValueError):
        fit_ald(np.empty((10, 0)), np.arange(10.0), tau=1.5)


def _oracle_loss(D, y, tau):
    """Check loss at HiGHS's solution of the quantile-regression dual LP,
    max y'a subject to D'a = (1-tau) D'1 and 0 <= a <= 1, whose equality
    multipliers are minus the coefficients."""
    from scipy.optimize import linprog
    res = linprog(-y, A_eq=D.T, b_eq=(1.0 - tau) * D.sum(axis=0), bounds=(0, 1),
                  method="highs")
    assert res.status == 0
    return float(np.sum(check_loss(y - D @ -res.eqlin.marginals, tau)))


def _qr_problem(seed, n, k, kind):
    """A design with k - 1 covariates and a response: continuous, integer
    (ties in both), continuous with column offsets and scales from 1e-4
    to 1e5, or continuous with rows repeated at random."""
    rng = derive_rng(seed)
    if kind == "integer":
        X = rng.integers(-3, 4, size=(n, k - 1)).astype(float)
        y = rng.integers(-4, 5, size=n).astype(float)
    else:
        X = rng.normal(size=(n, k - 1))
        y = X.sum(axis=1) + rng.standard_t(3, size=n)
        if kind == "scaled":
            X += 3.0 * rng.normal(size=k - 1)
            X *= 10.0 ** rng.uniform(-4.0, 5.0, size=k - 1)
        if kind == "repeated":
            idx = np.sort(rng.integers(0, n, size=n))
            X, y = X[idx], y[idx]
    return X, y


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 60), k=st.integers(1, 4),
       kind=st.sampled_from(["continuous", "integer", "scaled", "repeated"]),
       tau=st.one_of(st.sampled_from([1e-3, 0.02, 0.5, 0.98, 0.999]),
                     st.floats(0.001, 0.999)))
def test_exact_fit_matches_the_lp_oracle(seed, n, k, kind, tau):
    X, y = _qr_problem(seed, n, k, kind)
    D = np.column_stack([np.ones(n), X])
    assume(n > k and np.linalg.matrix_rank(D) == k)
    fit = fit_ald(X, y, tau)
    assert fit.converged and fit.flags == []
    loss = float(np.sum(check_loss(y - fit.predict(X), tau)))
    want = _oracle_loss(D, y, tau)
    # the loss scale: a perfect fit has loss 0 up to rounding of y
    assert abs(loss - want) <= 1e-9 * max(want, 1e-4 * np.abs(y).sum())


def _assert_ratio_test_matches_the_full_sort(X, y, tau, head):
    """fit_ald with the partial ratio test at ``head`` kinks gives the full
    sort's basis and coefficients, bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ald, "RATIO_HEAD", head)
        got = fit_ald(X, y, tau)
        mp.setattr(ald, "_simplex", simplex_full_sort)
        want = fit_ald(X, y, tau)
    assert got.converged == want.converged
    np.testing.assert_array_equal(got.basis, want.basis)
    np.testing.assert_array_equal(got.beta_eta.view(np.int64), want.beta_eta.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(3, 200), k=st.integers(1, 4),
       kind=st.sampled_from(["integer", "repeated"]), head=st.sampled_from([1, 2]),
       tau=st.one_of(st.sampled_from([0.02, 0.5, 0.95]), st.floats(0.001, 0.999)))
def test_partial_ratio_test_walks_the_full_sort(seed, n, k, kind, head, tau):
    # heads of one or two kinks: ties in t at the head's last kink, and
    # heads quadrupled until they cover every candidate
    X, y = _qr_problem(seed, n, k, kind)
    assume(n > k and np.linalg.matrix_rank(np.column_stack([np.ones(n), X])) == k)
    _assert_ratio_test_matches_the_full_sort(X, y, tau, head)


def test_partial_ratio_test_on_a_large_fit():
    rng = derive_rng(36)
    X = rng.normal(size=(20_000, 5))
    y = X.sum(axis=1) + rng.standard_t(3, size=20_000)
    _assert_ratio_test_matches_the_full_sort(X, y, 0.95, ald.RATIO_HEAD)


@pytest.mark.parametrize("tau", [0.05, 0.5, 0.95])
def test_exact_fit_satisfies_the_subgradient_condition(tau):
    # continuous data: exactly the k basis residuals are zero at the
    # solution, and the basis multipliers lambda solving
    # D_h' lambda = -sum psi_i d_i over the other rows lie in [tau - 1, tau]
    rng = derive_rng(5)
    n = 2000
    X = rng.normal(size=(n, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.gumbel(size=n)
    fit = fit_ald(X, y, tau)
    D = np.column_stack([np.ones(n), X])
    r = y - D @ fit.beta_eta
    h = fit.basis
    rest = np.setdiff1d(np.arange(n), h)
    assert h.size == 4 and np.abs(r[h]).max() < 1e-12 * np.abs(y).max()
    # the fitted threshold puts the basis rows on it, and no others
    u = fit.fitted(X, y)
    np.testing.assert_array_equal(u[h], y[h])
    np.testing.assert_array_equal(u[rest], fit.predict(X)[rest])
    assert np.abs(r[rest]).min() > 1e-8
    psi = np.where(r[rest] > 0.0, tau, tau - 1.0)
    lam = np.linalg.solve(D[h].T, -(psi @ D[rest]))
    assert np.all(lam >= tau - 1.0 - 1e-9) and np.all(lam <= tau + 1e-9)


def test_pivot_cap_is_flagged(monkeypatch):
    from extremis.univariate import ald
    rng = derive_rng(8)
    X = rng.normal(size=(500, 2))
    y = X @ np.array([1.0, 1.0]) + rng.normal(size=500)
    full = fit_ald(X, y, 0.7)
    assert full.converged and full.flags == []
    monkeypatch.setattr(ald, "PIVOT_CAP", 1)
    capped = fit_ald(X, y, 0.7)
    assert not capped.converged and capped.flags == ["ald-pivot-cap"]
    D = np.column_stack([np.ones(500), X])

    def loss(b):
        return np.sum(check_loss(y - D @ b, 0.7))
    assert loss(capped.beta_eta) > loss(full.beta_eta)


def test_exact_fit_ignores_column_scales():
    # covariates with offsets and scales from 1e-4 to 1e5: the basis search
    # and the rounding scales must not take the intercept for redundant
    for seed in range(30):
        X, y = _qr_problem(seed, 200, 5, "scaled")
        fit = fit_ald(X, y, 0.3)
        loss = float(np.sum(check_loss(y - fit.predict(X), 0.3)))
        D = np.column_stack([np.ones(200), X])
        assert loss == pytest.approx(_oracle_loss(D, y, 0.3), rel=1e-9)
