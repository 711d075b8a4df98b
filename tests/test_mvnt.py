import numpy as np
import pytest
from scipy.special import stdtr
from scipy.stats import norm, t as tdist

from extremis.core import derive_rng
from extremis.mvnt import OrthantQuery, mvn_cdf, mvn_rect, mvt_cdf, mvt_rect

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
