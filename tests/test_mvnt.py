import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtr
from scipy.stats import norm, t as tdist

from extremis.core import derive_rng
from extremis.mgpd import _hr_pivot_law
from extremis.mvnt import (OrthantQuery, _hermite_rule, _one_factor, _one_factor_log_cdf,
                           mvn_cdf, mvn_rect, mvt_cdf, mvt_rect)

INF = np.inf


def test_independent_orthant():
    q = OrthantQuery(np.zeros(3), np.full(3, INF), np.zeros(3), np.eye(3))
    p, se = mvn_rect(q, seed=1)
    assert p == pytest.approx(0.125, abs=max(3 * se, 1e-4))


def test_product_of_normal_tails():
    a = norm.ppf(0.9)  # 1.281552
    q = OrthantQuery(np.full(2, a), np.full(2, INF), np.zeros(2), np.eye(2))
    p, se = mvn_rect(q, seed=2)
    assert p == pytest.approx(0.01, abs=max(3 * se, 2e-5))


def test_perfect_correlation_degenerate():
    a = 0.7
    sig = np.array([[1.0, 1.0], [1.0, 1.0]])
    q = OrthantQuery(np.full(2, a), np.full(2, INF), np.zeros(2), sig)
    p, se = mvn_rect(q, seed=3)
    assert p == pytest.approx(norm.cdf(-a), abs=max(3 * se, 1e-4))


def test_one_dimensional_exact():
    q = OrthantQuery([-1.0], [2.0], [0.5], [[4.0]])
    p, se = mvn_rect(q)
    assert se == 0.0
    assert p == pytest.approx(norm.cdf(0.75) - norm.cdf(-0.75), rel=1e-12)
    qt = OrthantQuery([-1.0], [2.0], [0.0], [[1.0]], df=3.0)
    pt, _ = mvt_rect(qt)
    assert pt == pytest.approx(tdist.cdf(2.0, 3) - tdist.cdf(-1.0, 3), rel=1e-9)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 3.0, 7.5, 30.0, 1e6])
def test_student_cdf_kernel_is_scipy_t_cdf_bitwise(df):
    # the 1-D Student rectangle calls the ufunc scipy.stats.t.cdf wraps
    x = np.concatenate([derive_rng(41).standard_normal(2000) * 10.0,
                        [-np.inf, -0.0, 0.0, np.inf, np.nan, 1e-300, -1e300]])
    np.testing.assert_array_equal(_bits(stdtr(df, x)), _bits(tdist.cdf(x, df)))
    lo, hi = x[:200:2], x[1:200:2]
    for a, b in zip(lo, hi):
        got, se = mvt_rect(OrthantQuery([min(a, b)], [max(a, b)], [0.0], [[1.0]], df=df))
        assert got == tdist.cdf(max(a, b), df) - tdist.cdf(min(a, b), df) and se == 0.0


def test_against_scipy_mvn():
    from scipy.stats import multivariate_normal
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    sig = A @ A.T + np.eye(3)
    hi = np.array([0.5, 1.0, -0.2])
    p, se = mvn_cdf(hi, np.zeros(3), sig, seed=7)
    ref = multivariate_normal(mean=np.zeros(3), cov=sig).cdf(hi)
    assert p == pytest.approx(ref, abs=max(5 * se, 5e-4))


def test_student_gaussian_limit():
    sig = np.array([[1.0, 0.4], [0.4, 1.0]])
    lo = np.array([-0.3, 0.1])
    hi = np.array([1.4, INF])
    pn, sen = mvn_rect(OrthantQuery(lo, hi, np.zeros(2), sig), seed=11)
    pt, set_ = mvt_rect(OrthantQuery(lo, hi, np.zeros(2), sig, df=1e6), seed=11)
    assert pt == pytest.approx(pn, abs=max(3 * (sen + set_), 3e-4))


def test_student_coordinate_symmetry():
    sig = np.eye(2)
    lo = np.array([0.2, -1.0])
    hi = np.array([2.0, 1.5])
    p1, se1 = mvt_rect(OrthantQuery(lo, hi, np.zeros(2), sig, df=4.0), seed=13)
    p2, se2 = mvt_rect(OrthantQuery(lo[::-1], hi[::-1], np.zeros(2), sig, df=4.0), seed=14)
    assert p1 == pytest.approx(p2, abs=3 * (se1 + se2) + 1e-4)


def test_monotone_in_rectangle():
    sig = np.array([[1.0, 0.3], [0.3, 1.0]])
    small = OrthantQuery([0.0, 0.0], [1.0, 1.0], np.zeros(2), sig)
    large = OrthantQuery([-0.5, -0.2], [1.5, 2.0], np.zeros(2), sig)
    ps, ses = mvn_rect(small, seed=17)
    pl, sel = mvn_rect(large, seed=18)
    assert pl >= ps - 3 * (ses + sel)


def test_complement_partition():
    sig = np.array([[1.0, -0.25], [-0.25, 1.0]])
    c = 0.4
    pieces = []
    ses = []
    for lo0, hi0 in [(-INF, c), (c, INF)]:
        for lo1, hi1 in [(-INF, c), (c, INF)]:
            p, se = mvn_rect(OrthantQuery([lo0, lo1], [hi0, hi1], np.zeros(2), sig), seed=19)
            pieces.append(p)
            ses.append(se)
    assert sum(pieces) == pytest.approx(1.0, abs=5 * sum(ses) + 1e-5)


def test_seed_determinism_bitwise():
    sig = np.array([[1.0, 0.6], [0.6, 1.0]])
    q = OrthantQuery([0.0, 0.0], [INF, INF], np.zeros(2), sig)
    assert mvn_rect(q, seed=42) == mvn_rect(q, seed=42)
    assert mvn_rect(q, seed=42) != mvn_rect(q, seed=43)


def test_relative_accuracy_mid_dimension():
    rng = np.random.default_rng(23)
    d = 12
    A = rng.normal(size=(d, d)) * 0.3
    sig = A @ A.T + np.eye(d)
    sd = np.sqrt(np.diag(sig))
    q = OrthantQuery(np.full(d, -INF), 0.8 * sd, np.zeros(d), sig)
    p, se = mvn_rect(q, seed=29)
    assert 0.0 < p < 1.0
    assert se / p < 1e-3


def test_query_validation():
    with pytest.raises(ValueError):
        OrthantQuery([0.0], [-1.0], [0.0], [[1.0]])
    with pytest.raises(ValueError):
        OrthantQuery([0.0], [1.0], [0.0], [[1.0]], df=-1.0)
    q = OrthantQuery([0.0, 0.0], [1.0, 1.0], np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        mvt_rect(q)
    qt = OrthantQuery([0.0, 0.0], [1.0, 1.0], np.zeros(2), np.eye(2), df=2.0)
    with pytest.raises(ValueError):
        mvn_rect(qt)


def test_student_cdf_convenience():
    sig = np.array([[1.0, 0.5], [0.5, 1.0]])
    p, se = mvt_cdf([0.3, -0.1], np.zeros(2), sig, df=5.0, seed=31)
    assert 0.0 < p < 1.0 and se >= 0.0


def _exchangeable_hr_term(m, gamma, log_k, direction):
    """(x, mu, sigma) of an exchangeable Huesler-Reiss pivot term: the angle
    law N(-gamma 1, gamma (I + 11')) below log k, or above it for min."""
    sigma = gamma * (np.eye(m) + 1.0)
    mu = np.full(m, -gamma)
    return (-log_k, -mu, sigma) if direction == "min" else (log_k, mu, sigma)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.floats(np.log(1e-4), np.log(100.0)),
       st.lists(st.floats(-8.0, 8.0), min_size=12, max_size=12),
       st.sampled_from(["min", "max"]))
# a 40-node rule is off by 1e-10 here, 60 and 80 nodes by 1e-13
@example(11, np.log(18.5), [-1.33, -7.7, -0.77, -1.79, -2.94, -2.66, -0.28, -1.04, -5.56,
                            1.13, -7.17, 0.0], "max")
def test_one_factor_rule_agrees_with_twice_the_nodes(m, log_gamma, log_k, direction):
    x, mu, sigma = _exchangeable_hr_term(m, np.exp(log_gamma), np.array(log_k[:m]), direction)
    p, se = mvn_cdf(x, mu, sigma)
    assert se == 0.0
    c, delta = _one_factor(OrthantQuery(np.full(m, -INF), x, mu, sigma).sigma)
    ref = np.exp(_one_factor_log_cdf((x - mu) / np.sqrt(delta), np.sqrt(c / delta),
                                     _hermite_rule(160)))
    if ref > 1e-300:
        assert abs(p - ref) <= 1e-12 * ref


def test_hermite_rule_matches_scipy_nodes_and_weights():
    from scipy.special import roots_hermitenorm
    for n in (80, 160):
        z, log_w = _hermite_rule(n)
        zs, ws = roots_hermitenorm(n)
        np.testing.assert_allclose(z, zs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(np.exp(log_w), ws / np.sqrt(2.0 * np.pi), rtol=1e-11)


@pytest.mark.parametrize("m, gamma, log_k, direction", [
    (2, 0.7, [0.4, -0.3], "max"),
    (4, 1.8, np.log([2.0, 1.5, 3.0, 1.2]), "min"),
    (8, 0.3, np.linspace(-1.0, 1.0, 8), "max"),
])
def test_one_factor_matches_four_million_point_qmc(m, gamma, log_k, direction):
    x, mu, sigma = _exchangeable_hr_term(m, gamma, np.asarray(log_k, dtype=float), direction)
    p, _ = mvn_cdf(x, mu, sigma)
    ref, se = mvn_rect(OrthantQuery(np.full(m, -INF), x, mu, sigma), 4_000_000, seed=1)
    assert abs(p - ref) <= 4.0 * se, (p, ref, se)


def test_one_factor_unequal_delta_matches_scipy_bivariate():
    from scipy.stats import multivariate_normal
    sigma = np.array([[1.0, 0.7], [0.7, 1.6]])  # delta = (0.3, 0.9)
    for x, mu in (([0.2, -0.4], [0.5, -0.8]), ([-1.3, 0.9], [0.0, 0.0])):
        p, se = mvn_cdf(x, mu, sigma)
        ref = multivariate_normal(mu, sigma, abseps=1e-14, releps=1e-14).cdf(x)
        assert se == 0.0 and p == pytest.approx(ref, rel=1e-12)


def test_one_factor_deep_tail_keeps_relative_precision():
    # a rule centred at 0 misses a term this far out entirely
    from scipy.integrate import quad
    from scipy.special import log_ndtr
    a, s = np.array([-24.0, -27.0, -30.0]), np.array([1.0, 0.5, 2.0])

    def h(t):
        return -0.5 * t * t + log_ndtr(a - s * t).sum()

    grid = np.linspace(-60.0, 30.0, 9001)
    peak = grid[np.argmax([h(t) for t in grid])]  # the integrand is shifted by h(peak)
    val, _ = quad(lambda t: np.exp(h(t) - h(peak)), -60.0, 30.0, points=[peak],
                  limit=200, epsabs=0.0, epsrel=1e-13)
    ref = h(peak) + np.log(val) - 0.5 * np.log(2.0 * np.pi)
    assert ref < np.log(1e-150)
    assert _one_factor_log_cdf(a, s) == pytest.approx(ref, rel=0.0, abs=1e-12)


def test_one_factor_infinite_bounds():
    sigma = np.array([[2.0, 1.0], [1.0, 3.0]])  # c = 1, delta = (1, 2)
    assert _one_factor_log_cdf(np.array([-INF, 0.3]), np.array([1.0, 0.5 ** 0.5])) == -INF
    p, se = mvn_cdf([INF, 0.3], np.zeros(2), sigma)
    assert se == 0.0 and p == pytest.approx(norm.cdf(0.3 / np.sqrt(3.0)), rel=1e-14)
    assert mvn_cdf([INF, INF], np.zeros(2), sigma) == (1.0, 0.0)


def _brownian_hr_pivot_covariances():
    sites = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, 1.5]])
    gamma = 0.8 * np.linalg.norm(sites[:, None] - sites[None], axis=-1)
    return [_hr_pivot_law(gamma, j) for j in range(4)]


@pytest.mark.parametrize("mu, sigma", [
    *_brownian_hr_pivot_covariances(),  # the d = 4 variogram of test_simulate
    (np.zeros(2), np.array([[1.0, -0.25], [-0.25, 1.0]])),
    (np.zeros(2), np.array([[1.0, 1.0], [1.0, 2.0]])),  # delta_0 = 0
    (np.zeros(3), np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.5], [0.5, 0.5 + 1e-15, 2.0]])),
])
def test_other_covariances_stay_on_qmc_bit_for_bit(mu, sigma):
    x = np.linspace(-0.3, 0.8, mu.size)
    q = OrthantQuery(np.full(mu.size, -INF), x, mu, sigma)
    got = mvn_cdf(x, mu, sigma, n_points=5000, seed=9)
    assert got == mvn_rect(q, 5000, seed=9) and got[1] > 0.0


def test_mvn_rect_keeps_qmc_on_one_factor_covariances():
    # mvn-tail and every rectangle query keep the lattice estimate
    sigma = 1.8 * (np.eye(4) + 1.0)
    p, se = mvn_rect(OrthantQuery(np.full(4, -INF), np.ones(4), np.zeros(4), sigma), seed=5)
    assert se > 0.0 and p == pytest.approx(mvn_cdf(np.ones(4), np.zeros(4), sigma)[0],
                                           abs=4.0 * se)
