"""Acceptance criteria: every check prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test is also a regular assertion so the suite fails loudly on
any violation.  Budgets are generous on desk hardware; the heaviest checks
(the Monte Carlo oracles and the cross-validation study) stay within a few
minutes each.
"""
import sys
import time

import numpy as np
import pytest
from scipy.stats import t as tdist, ttest_rel

from helpers import logistic_xi_equal, mc_intensity
from extremis.condex import (fit_ht_exchangeable_gaussian,
                             fit_ht_exchangeable_skewnormal, fit_ht_gaussian,
                             ht_prob_analytic, ht_prob_simulation)
from extremis.core import MarginSpec, derive_rng
from extremis.mgpd import (ExtremalStudent, HuslerReiss, Logistic,
                           NegLogistic, exponent_measure_v,
                           fit_hr_exchangeable, fit_logistic_censored,
                           pivot_weights, xi_measure)
from extremis.mvnt import OrthantQuery, mvn_rect, mvt_rect
from extremis.simulate import (RiskFunctional, composition_sample,
                               mixture_threshold_experiment,
                               sample_logistic_max_stable,
                               simulate_mgpd_dataset)
from extremis.univariate import (BinGpdModel, GpdParams, RegressionSpec,
                                 bootstrap_weights, cv_interval_score,
                                 expected_loss, fit_ald, fit_gpd_mle,
                                 fit_gpd_regression, gpd_quantile,
                                 minimize_expected_loss, return_level_closed,
                                 solve_return_level)
from extremis.validate import ClusterSpec, exch_test, threshold_stability_scan

pytestmark = pytest.mark.acceptance

LAP = MarginSpec("laplace")


def _report(idx: int, label: str, start: float) -> None:
    # bypass pytest's capture so the line shows in any run mode
    line = f"ACCEPTANCE {idx:2d}: PASS ({time.time() - start:5.1f}s) {label}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__, flush=True)


def hr_matrix(g: float, d: int) -> HuslerReiss:
    return HuslerReiss(g * (np.ones((d, d)) - np.eye(d)))


def es_matrix(rho: float, d: int, nu: float) -> ExtremalStudent:
    s = np.full((d, d), rho)
    np.fill_diagonal(s, 1.0)
    return ExtremalStudent(s, nu)


def test_01_closed_form_xi_oracle():
    start = time.time()
    n = 10_000_000
    cases = []
    for d in (2, 3):
        us = [np.ones(d), np.array([1.0, 2.0, 4.0])[:d]]
        for beta in (1.5, 2.0, 5.0):
            cases += [(Logistic(beta), u) for u in us]
        for theta in (0.5, 1.0, 2.0):
            cases += [(NegLogistic(theta), u) for u in us]
        for g in (0.5, 2.0):
            cases += [(hr_matrix(g, d), u) for u in us]
        for nu in (2.0, 5.0):
            for rho in (0.0, 0.5):
                cases += [(es_matrix(rho, d, nu), u) for u in us]
    for seed, (model, u) in enumerate(cases):
        est, se = mc_intensity(model, u, n, seed=9000 + seed, kind="min")
        xi, xi_se = xi_measure(model, u, return_se=True)
        gap = abs(xi - est)
        assert gap < 3.0 * (se + xi_se), (
            f"{type(model).__name__} u={u}: xi={xi:.6f} mc={est:.6f} "
            f"gap={gap:.2e} tol={3 * (se + xi_se):.2e}")
    _report(1, f"Xi matches 1e7-draw Monte Carlo for {len(cases)} "
            "family/dimension/threshold combinations", start)


def test_02_exact_identities():
    start = time.time()
    for u in (1.0, 2.5):
        for beta in (1.5, 2.0, 5.0):
            got = xi_measure(Logistic(beta), np.full(2, u))
            assert abs(got - (2.0 - 2.0 ** (1.0 / beta)) / u) < 1e-9
    for d in range(2, 11):
        for theta in (0.5, 1.0, 2.0):
            got = xi_measure(NegLogistic(theta), np.full(d, 1.7))
            assert abs(got - d ** (-1.0 / theta) / 1.7) < 1e-12
        for beta in (1.5, 2.0, 5.0):
            assert abs(xi_measure(Logistic(beta), np.full(d, 1.3))
                       - logistic_xi_equal(d, beta, 1.3)) < 1e-12
    u2 = np.array([1.0, 2.0])
    lhs = 1.0 / u2[0] + 1.0 / u2[1]
    for model in (Logistic(2.0), NegLogistic(1.0), hr_matrix(0.5, 2),
                  es_matrix(0.5, 2, 2.0)):
        xi, xi_se = xi_measure(model, u2, return_se=True)
        v, v_se = exponent_measure_v(model, u2, return_se=True)
        assert abs(xi + v - lhs) < 1e-9 + 3.0 * (xi_se + v_se)
    _report(2, "equal-threshold reductions and inclusion-exclusion to "
            "stated tolerances", start)


def test_03_composition_sampling_law():
    start = time.time()
    out = composition_sample(Logistic(2.0), RiskFunctional("min", np.ones(3)),
                             1_000_000, seed=31)
    mn = out.samples.min(axis=1)
    p1 = float(np.mean(mn > 1.0))
    assert p1 == 1.0
    for c in (2.0, 5.0, 10.0):
        pc = float(np.mean(mn > c))
        se = np.sqrt(pc * (1.0 - pc) / mn.size)
        assert abs(pc - 1.0 / c) < 3.0 * se, f"c={c}: {pc} vs {1 / c}"
    u = np.array([1.0, 2.0, 4.0])
    out2 = composition_sample(Logistic(2.0), RiskFunctional("min", u),
                              400_000, seed=37)
    w = pivot_weights(Logistic(2.0), u, "min")
    w = w / w.sum()
    freq = np.bincount(out2.pivot, minlength=3) / out2.pivot.size
    se_f = np.sqrt(w * (1.0 - w) / out2.pivot.size)
    assert np.all(np.abs(freq - w) < 3.0 * se_f)
    _report(3, "min-functional homogeneity law and pivot frequencies at "
            "unequal thresholds", start)


def _sample_ald(eta, nu, tau, rng):
    pos = rng.random(eta.shape) >= tau
    draw = np.where(pos, rng.exponential(size=eta.shape) * nu / tau,
                    -rng.exponential(size=eta.shape) * nu / (1.0 - tau))
    return eta + draw


def test_04_parameter_recovery():
    start = time.time()
    # generalized Pareto maximum likelihood
    rng = derive_rng(41)
    x = gpd_quantile(rng.uniform(size=10_000), GpdParams(2.0, 0.2))
    fit = fit_gpd_mle(x)
    assert np.all(np.abs([fit.params.sigma - 2.0, fit.params.xi - 0.2])
                  < 3.0 * fit.se)

    # covariate-dependent generalized Pareto
    rng = derive_rng(43)
    n = 20_000
    xc = rng.uniform(-1.0, 1.0, size=(n, 1))
    sig = np.exp(0.5 + 0.3 * xc[:, 0])
    y = gpd_quantile(rng.uniform(size=n), (sig, np.full(n, 0.1)))
    reg = fit_gpd_regression(xc, y, np.zeros(n), RegressionSpec(sigma_columns=(0,)))
    est = np.concatenate([reg.beta_sigma, reg.beta_xi])
    assert np.all(np.abs(est - np.array([0.5, 0.3, 0.1]))
                  < 3.0 * np.sqrt(np.diag(reg.cov)))

    # asymmetric Laplace quantile regression on its own law
    rng = derive_rng(47)
    n = 8000
    xa = rng.uniform(0.0, 1.0, size=(n, 1))
    eta = 1.0 + 2.0 * xa[:, 0]
    ya = _sample_ald(eta, nu=0.5, tau=0.9, rng=rng)
    ald = fit_ald(xa, ya, tau=0.9)
    assert np.all(np.abs(ald.beta_eta - np.array([1.0, 2.0]))
                  < 3.0 * np.sqrt(np.diag(ald.cov)))

    # per-companion Gaussian conditional-extremes fit
    import sys
    sys.path.insert(0, "tests")
    from test_condex import simulate_ht
    L = simulate_ht(0.5, 0.3, 5000, 3, seed=53, u=3.0, round_robin=False)
    ht = fit_ht_gaussian(L, 0, threshold=3.0)
    for c in range(2):
        assert abs(ht.alpha[c] - 0.5) < 3.0 * ht.se[c, 0]
        assert abs(ht.beta[c] - 0.3) < 3.0 * ht.se[c, 1]

    # exchangeable skew-normal pseudo-likelihood
    L2 = simulate_ht(0.3, 0.4, 10_000, 3, seed=59, u=6.0,
                     law=("skew", 0.0, 0.25, 2.0), reject_spillover=True)
    sn = fit_ht_exchangeable_skewnormal(L2, threshold=6.0)
    truth = np.array([0.3, 0.4, 0.0, 0.25, 2.0])
    est_sn = np.array([sn.alpha, sn.beta, sn.residual_law.nu,
                       sn.residual_law.omega, sn.residual_law.kappa])
    assert np.all(np.abs(est_sn - truth) < 3.0 * sn.se)

    # censored logistic dependence
    out = composition_sample(Logistic(2.0), RiskFunctional("max", np.ones(3)),
                             5000, seed=61)
    lf = fit_logistic_censored(out.samples, np.ones(3), censor=np.zeros(3))
    assert abs(lf.estimate - 2.0) < 3.0 * lf.se

    # exchangeable Huesler-Reiss composite fit
    model = hr_matrix(2.0, 2)
    f = 0.05
    ds = simulate_mgpd_dataset(model, [MarginSpec("frechet")] * 2, 100_000,
                               f, seed=67)
    q0 = 1.0 - f / exponent_measure_v(model, np.ones(2))
    uhr = np.full(2, -1.0 / np.log(q0))
    hrf = fit_hr_exchangeable(ds.values, uhr, censor=uhr)
    assert abs(hrf.estimate - 2.0) < 3.0 * hrf.se
    _report(4, "seven fitters recover ground truth within 3 standard errors",
            start)


def test_05_cross_estimator_agreement():
    start = time.time()
    import sys
    sys.path.insert(0, "tests")
    from test_condex import simulate_ht
    L = simulate_ht(0.5, 0.3, 6000, 3, seed=71, u=3.0)
    fit = fit_ht_exchangeable_gaussian(L, threshold=3.0)
    v = float(LAP.quantile(0.999))
    ana = ht_prob_analytic(fit, v)
    prob, se, _ = ht_prob_simulation(fit, np.full(3, v), np.full(3, np.inf),
                                     v, 10_000_000, seed=73, cond=0,
                                     pool_rows="all")
    gap = abs(np.exp(ana.log_prob) - prob)
    assert gap < 3.0 * se, f"analytic {np.exp(ana.log_prob)} sim {prob} se {se}"
    _report(5, "root-finding estimator matches 1e7-draw simulation within "
            "3 standard errors", start)


def test_06_return_level_consistency():
    start = time.time()
    base = BinGpdModel(100.0, 0.05, GpdParams(10.0, 0.1))
    closed = return_level_closed(base, T=200, Ny=300)
    solved = solve_return_level([base], T=200, m=300)
    assert abs(solved - closed) < 1e-6
    for xi in (-0.2, 0.0, 0.3):
        m = BinGpdModel(50.0, 0.02, GpdParams(5.0, xi))
        roots_T = [solve_return_level([m], T=t, m=300)
                   for t in (20, 50, 100, 200, 500)]
        assert np.all(np.diff(roots_T) > 0)
    roots_z = [solve_return_level([BinGpdModel(100.0, z, GpdParams(10.0, 0.1))],
                                  T=200, m=300)
               for z in (0.005, 0.01, 0.05, 0.1, 0.2)]
    assert np.all(np.diff(roots_z) > 0)
    _report(6, "averaged-root solver reproduces the closed form and is "
            "monotone in T and zeta", start)


def test_07_loss_minimizer_exactness():
    start = time.time()
    assert minimize_expected_loss([100.0, 200.0]) == 198.0
    for rep in range(100):
        rng = derive_rng(79, rep)
        q = rng.lognormal(mean=4.5, sigma=0.4, size=rng.integers(5, 200))
        qstar = minimize_expected_loss(q)
        grid = np.linspace(0.9 * q.min(), 1.2 * q.max(), 100_000)
        assert expected_loss(q, qstar) <= expected_loss(q, grid).min() + 1e-12
    _report(7, "knot-enumeration minimizer beats a 1e5-point grid for 100 "
            "random posteriors; two-point posterior gives exactly 198", start)


def test_08_interval_score_cross_validation():
    start = time.time()
    rng = derive_rng(83)
    n = 21_000
    x = rng.uniform(-1.0, 1.0, size=(n, 11))
    u_const = 30.0
    y = rng.uniform(0.0, u_const, size=n)
    exc = rng.random(n) < 0.05
    sig = np.exp(0.6 + 0.5 * x[:, 0])
    y[exc] = u_const + gpd_quantile(rng.uniform(size=int(exc.sum())),
                                    (sig[exc], np.full(int(exc.sum()), 0.1)))
    u = np.full(n, u_const)
    true_spec = RegressionSpec(sigma_columns=(0,))
    spurious_spec = RegressionSpec(sigma_columns=tuple(range(11)))
    # unequal folds: more data to train-1 keeps the probability levels
    # sharp, so the nominal-50% intervals cover near their level
    out = cv_interval_score(x, y, u, [true_spec, spurious_spec], alpha=0.5,
                            repeats=100, seed=89, n_draws=400,
                            train_fraction=(0.6, 0.2))
    true_s, spur_s = out
    assert true_s.scores.size >= 80 and spur_s.scores.size >= 80
    cov_mean = true_s.mean_coverage
    assert 0.35 <= cov_mean <= 0.75, f"coverage {cov_mean}"
    k = min(true_s.scores.size, spur_s.scores.size)
    stat = ttest_rel(true_s.scores[:k], spur_s.scores[:k],
                     alternative="greater")
    assert stat.pvalue >= 0.05, (
        f"true model significantly worse: p={stat.pvalue}")
    _report(8, f"mean 50%-interval coverage {cov_mean:.2f} within [0.35, "
            "0.75]; true model not out-scored by the spurious one", start)


def test_09_exchangeability_calibration():
    start = time.time()
    blocks = ((0, 1, 2), (3, 4, 5))
    cs = ClusterSpec(blocks)
    lab = np.array([0, 0, 0, 1, 1, 1])
    R = np.where(lab[:, None] == lab[None, :], 0.522, 0.05)
    np.fill_diagonal(R, 1.0)
    chol = np.linalg.cholesky(R)
    rejections = 0
    diffs = []
    for rep in range(200):
        Y = derive_rng(97, rep).standard_normal((400, 6)) @ chol.T
        res = exch_test(Y, cs, n_mc=2000, seed=rep)
        rejections += res.p_e < 0.05
        diffs.append(abs(res.p_e - res.p_e_chi2))
    assert rejections <= 0.10 * 200, f"size {rejections / 200:.3f}"
    assert float(np.mean(diffs)) <= 0.02, f"mc/chi2 gap {np.mean(diffs):.4f}"
    Rp = R.copy()
    Rp[0, 1] = Rp[1, 0] = 0.760
    cholp = np.linalg.cholesky(Rp)
    power = 0
    for rep in range(10):
        Y = derive_rng(101, rep).standard_normal((10_000, 6)) @ cholp.T
        power += exch_test(Y, cs, n_mc=2000, seed=rep).p_e < 0.05
    assert power >= 8, f"power {power}/10"
    _report(9, f"size {rejections / 2:.1f}% at the 5% level, power "
            f"{power}/10, Monte Carlo and chi-square p-values agree", start)


def test_10_mixture_experiment():
    start = time.time()
    table = mixture_threshold_experiment([0.4, 0.9], 500_000,
                                         [0.8, 0.9, 0.95], seed=103, d=8)
    weak = table.shares[1]
    assert weak[0] < weak[1] < weak[2], f"weak-component shares {weak}"
    # threshold stability on mixture data: dependence weakens with the level
    rng = derive_rng(107)
    grid = np.linspace(0.4, 0.9, 10)
    parts = [sample_logistic_max_stable(a, 20_000, 3, rng) for a in grid]
    y = np.vstack(parts)[rng.permutation(10 * 20_000)]
    rows = threshold_stability_scan(y, [0.8, 0.9, 0.95], fitter="logistic")
    assert all(not r.failed for r in rows)
    assert rows[-1].estimate < rows[0].estimate, (
        f"betas {[r.estimate for r in rows]}")
    _report(10, "weak-dependence exceedance share rises with the level and "
            "the fitted logistic dependence weakens", start)


def test_11_mvnt_sanity():
    start = time.time()
    from scipy.stats import norm
    q = OrthantQuery(np.zeros(3), np.full(3, np.inf), np.zeros(3), np.eye(3))
    p, se = mvn_rect(q, seed=109)
    assert abs(p - 0.125) < 3.0 * se + 1e-4
    a = norm.ppf(0.9)
    q2 = OrthantQuery(np.full(2, a), np.full(2, np.inf), np.zeros(2), np.eye(2))
    p2, se2 = mvn_rect(q2, seed=113)
    assert abs(p2 - 0.01) < 3.0 * se2 + 2e-5
    ones = np.ones((2, 2))
    q3 = OrthantQuery(np.full(2, 0.7), np.full(2, np.inf), np.zeros(2), ones)
    p3, se3 = mvn_rect(q3, seed=127)
    assert abs(p3 - norm.cdf(-0.7)) < 3.0 * se3 + 1e-4
    qt = OrthantQuery([-0.8], [1.1], [0.0], [[1.0]], df=4.0)
    pt, _ = mvt_rect(qt)
    assert abs(pt - (tdist.cdf(1.1, 4) - tdist.cdf(-0.8, 4))) < 1e-6
    _report(11, "independence, perfect correlation, and univariate Student "
            "cases verified", start)


def test_12_determinism():
    start = time.time()
    fn = RiskFunctional("min", np.ones(3))
    a = composition_sample(Logistic(2.0), fn, 5000, seed=131)
    b = composition_sample(Logistic(2.0), fn, 5000, seed=131)
    assert a.samples.tobytes() == b.samples.tobytes()
    q = OrthantQuery(np.zeros(2), np.full(2, np.inf), np.zeros(2),
                     np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert mvn_rect(q, seed=137) == mvn_rect(q, seed=137)
    assert (bootstrap_weights(100, "bayesian", seed=139).tobytes()
            == bootstrap_weights(100, "bayesian", seed=139).tobytes())
    t1 = mixture_threshold_experiment([0.5, 0.8], 20_000, [0.9], seed=149, d=4)
    t2 = mixture_threshold_experiment([0.5, 0.8], 20_000, [0.9], seed=149, d=4)
    assert t1.counts.tobytes() == t2.counts.tobytes()
    import sys
    sys.path.insert(0, "tests")
    from test_condex import simulate_ht
    L = simulate_ht(0.5, 0.3, 2000, 3, seed=151, u=3.0)
    fit = fit_ht_exchangeable_gaussian(L, threshold=3.0)
    v = float(LAP.quantile(0.995))
    s1 = ht_prob_simulation(fit, np.full(3, v), np.full(3, np.inf), v,
                            100_000, seed=157, cond=0)
    s2 = ht_prob_simulation(fit, np.full(3, v), np.full(3, np.inf), v,
                            100_000, seed=157, cond=0)
    assert s1[0] == s2[0]
    _report(12, "stochastic runs repeat byte-identically under a fixed seed",
            start)
