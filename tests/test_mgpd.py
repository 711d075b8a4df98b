import itertools
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from helpers import (bounded_scalar_minimum, logistic_xi_equal, mc_intensity,
                     numeric_gradient, power_set_head_sum)
from extremis._optim import numeric_hessian
from extremis.core import derive_rng
from extremis.mgpd import (ExtremalStudent, HuslerReiss, Logistic,
                           NegLogistic, _hr_pair_terms, _logistic_censored_nll,
                           exponent_measure_v,
                           fit_hr_exchangeable, fit_logistic_censored,
                           joint_exceedance_prob, model_chi, pivot_weights,
                           xi_measure)
from extremis.simulate import RiskFunctional, composition_sample


def hr2(gamma):
    return HuslerReiss(np.array([[0.0, gamma], [gamma, 0.0]]))


def test_logistic_bivariate_equal_u():
    assert xi_measure(Logistic(2.0), [1.0, 1.0]) == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-12)


def test_neglogistic_trivariate_equal_u():
    assert xi_measure(NegLogistic(1.0), [1.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_hr_bivariate_closed_form():
    assert xi_measure(hr2(2.0), [1.0, 1.0]) == pytest.approx(2.0 * norm.cdf(-1.0), rel=1e-10)


@pytest.mark.parametrize("model", [Logistic(1.7), NegLogistic(0.8),
                                   hr2(1.2), ExtremalStudent(np.eye(2), 3.0)])
def test_homogeneity(model):
    u = np.array([1.0, 2.0])
    for c in (0.5, 3.0):
        assert xi_measure(model, c * u) == pytest.approx(xi_measure(model, u) / c, rel=2e-3)


def test_logistic_equal_u_shortcut_matches_power_set():
    for d in range(2, 11):
        for beta in (1.5, 2.0, 5.0):
            general = xi_measure(Logistic(beta), np.full(d, 1.3))
            assert logistic_xi_equal(d, beta, 1.3) == pytest.approx(general, rel=1e-12, abs=1e-12)


def test_neglogistic_equal_u_reduction():
    for d in range(2, 11):
        for theta in (0.5, 1.0, 2.0):
            got = xi_measure(NegLogistic(theta), np.full(d, 2.0))
            assert got == pytest.approx(d ** (-1.0 / theta) / 2.0, rel=1e-12)


@pytest.mark.parametrize("model", [Logistic(2.0), NegLogistic(1.0),
                                   hr2(0.5),
                                   ExtremalStudent(np.array([[1.0, 0.5], [0.5, 1.0]]), 2.0)])
def test_inclusion_exclusion_bivariate(model):
    u = np.array([1.0, 2.0])
    xi, xi_se = xi_measure(model, u, return_se=True)
    v, v_se = exponent_measure_v(model, u, return_se=True)
    lhs = 1.0 / u[0] + 1.0 / u[1]
    tol = 1e-9 + 3.0 * (xi_se + v_se)
    assert xi + v == pytest.approx(lhs, abs=tol)


def test_dependence_bounds_on_v():
    u = np.array([1.0, 2.0, 4.0])
    for model in (Logistic(3.0), NegLogistic(2.0)):
        v = exponent_measure_v(model, u)
        assert max(1.0 / u) <= v <= np.sum(1.0 / u) + 1e-12


def test_xi_bounds():
    u = np.array([0.5, 2.0])
    for model in (Logistic(1.5), NegLogistic(0.5)):
        assert 0.0 <= xi_measure(model, u) <= min(1.0 / u) + 1e-12


def test_model_chi_values_and_limits():
    assert model_chi(Logistic(2.0), 2) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-4)
    assert model_chi(Logistic(1.01), 2) < 0.02
    assert model_chi(Logistic(40.0), 2) > 0.97
    # complete-dependence and independence directions
    chis = [model_chi(Logistic(b), 3) for b in (1.2, 2.0, 4.0, 8.0)]
    assert np.all(np.diff(chis) > 0)
    chis_hr = [model_chi(hr2(g), 2) for g in (0.25, 1.0, 4.0)]
    assert np.all(np.diff(chis_hr) < 0)


def test_v_limits_logistic():
    assert exponent_measure_v(Logistic(200.0), [1.0, 1.0]) == pytest.approx(1.0, rel=1e-2)
    assert exponent_measure_v(Logistic(2.0), [1.0, 1.0]) == pytest.approx(np.sqrt(2.0), rel=1e-12)


MODELS_MC = [
    (Logistic(1.5), [1.0, 1.0]),
    (Logistic(2.0), [1.0, 2.0, 4.0]),
    (NegLogistic(0.5), [1.0, 2.0, 4.0]),
    (NegLogistic(2.0), [1.0, 1.0, 1.0]),
    (HuslerReiss(np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])), [1.0, 2.0, 4.0]),
    (ExtremalStudent(np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]), 2.0), [1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize("model,u", MODELS_MC)
def test_xi_against_generator_monte_carlo(model, u):
    n = 1_000_000
    est, se = mc_intensity(model, u, n, seed=101, kind="min")
    xi, xi_se = xi_measure(model, np.asarray(u), return_se=True)
    assert abs(xi - est) < 3.0 * (se + xi_se)


@pytest.mark.parametrize("model,u", MODELS_MC[:4])
def test_v_against_generator_monte_carlo(model, u):
    n = 1_000_000
    est, se = mc_intensity(model, u, n, seed=103, kind="max")
    v = exponent_measure_v(model, np.asarray(u))
    assert abs(v - est) < 3.0 * se + 1e-6


U_D3 = np.array([1.0, 2.0, 4.0])
MODELS_D3 = {
    "logistic": Logistic(2.0),
    "neglogistic": NegLogistic(1.3),
    "hr": HuslerReiss(np.array([[0.0, 0.5, 0.8], [0.5, 0.0, 0.6], [0.8, 0.6, 0.0]])),
    "es": ExtremalStudent(np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4],
                                    [0.3, 0.4, 1.0]]), 2.5),
}


def test_pivot_weights_sum_to_measures():
    u = U_D3
    for model in MODELS_D3.values():
        assert pivot_weights(model, u, "min").sum() == pytest.approx(
            xi_measure(model, u), rel=1e-10)
        assert pivot_weights(model, u, "max").sum() == pytest.approx(
            exponent_measure_v(model, u), rel=1e-10)


def _mp_head_log_mass(q, log_a):
    """log E prod_i (1 - e^(-a_i T)) over T ~ Gamma(q) at 30 digits: a
    trapezoid in s = log t, whose integrand is log-concave and analytic in
    |Im s| < pi/2, at step min(0.2, sigma / 3) about a mode found by pattern
    search, out to 60 below the maximum on each side."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        q = mp.mpf(q)
        a = [mp.exp(mp.mpf(v)) for v in log_a]

        def g(s):
            t = mp.exp(s)
            return q * s - t + mp.fsum(mp.log(-mp.expm1(-ai * t)) for ai in a)

        mode, step = mp.log(q + len(a)), mp.mpf(1)
        top = g(mode)
        while step > 1e-4:
            for trial in (mode - step, mode + step):
                value = g(trial)
                if value > top:
                    mode, top = trial, value
                    break
            else:
                step /= 2
        delta = mp.mpf(1e-6)
        sigma = mp.sqrt(delta ** 2 / (2 * top - g(mode - delta) - g(mode + delta)))
        h = min(mp.mpf(0.2), sigma / 3)
        total = mp.mpf(1)
        for sign in (-1, 1):
            k = 1
            while True:
                value = g(mode + sign * k * h) - top
                total += mp.exp(value)
                if value < -60:
                    break
                k += 1
        return top + mp.log(total * h) - mp.loggamma(q)


IID_FAMILY = st.one_of(
    st.floats(-4.0, np.log10(49.0)).map(lambda x: Logistic(1.0 + 10.0 ** x)),
    st.floats(np.log10(0.05), np.log10(20.0)).map(lambda x: NegLogistic(10.0 ** x)))


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(model=IID_FAMILY, log10_u=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=40),
       pivot=st.integers(0, 39))
@example(model=Logistic(2.115459131160021),
         log10_u=np.log10([0.0812, 8.4263, 8.7382, 9.5756, 0.8449, 0.2578, 0.052,
                           2.3973, 3.7414]).tolist(), pivot=6)
@example(model=Logistic(1.0001), log10_u=[4.0, -4.0, -4.0, 4.0], pivot=0)
def test_iid_pivot_weights_match_a_high_precision_integral(model, log10_u, pivot):
    # both directions, up to 40 dimensions and threshold ratios of 1e+-8;
    # weights below the smallest normal double may underflow
    u = 10.0 ** np.array(log10_u)
    j = pivot % u.size
    p = model._exponent
    for direction in ("min", "max"):
        w = pivot_weights(model, u, direction)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        with mpmath.workdps(30):
            log_a = [mpmath.log(float(x)) / p for x in np.delete(u, j) / u[j]]
            if (direction == "min") == (p > 0.0):
                ref = -(1 + p) * mpmath.log(1 + mpmath.fsum(mpmath.exp(x) for x in log_a))
            else:
                ref = _mp_head_log_mass(1 + p, log_a)
            ref = float(mpmath.exp(ref) / u[j])
        if ref > 1e-300:
            assert w[j] > 0.0 and abs(w[j] / ref - 1.0) <= 1e-12
        else:
            assert w[j] <= 1e-299


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_iid_measures_match_the_power_set_sums(d):
    # the head direction's totals, logistic Xi and negative logistic V,
    # against inclusion-exclusion; that sum's rounding is the tolerance
    rng = derive_rng(41, d)
    for _ in range(6):
        u = np.exp(rng.uniform(-1.5, 1.5, d))
        for model, measure in ((Logistic(1.0 + rng.exponential(2.0)), xi_measure),
                               (NegLogistic(rng.exponential(2.0)), exponent_measure_v)):
            p = model._exponent
            sums = [power_set_head_sum((np.delete(u, j) / u[j]) ** (1.0 / p), 1.0 + p)
                    for j in range(d)]
            want = sum(total / uj for (total, _), uj in zip(sums, u))
            scale = sum(size / uj for (_, size), uj in zip(sums, u))
            assert abs(measure(model, u) - want) <= 1e-13 * want + 4e-16 * scale


@pytest.mark.filterwarnings("error")
def test_iid_measures_in_200_dimensions():
    # the power set had 2^199 terms per pivot; the Gamma mixtures scale
    # linearly in the dimension per pivot
    u = np.exp(derive_rng(200).uniform(-1.0, 1.0, 200))
    for model in (Logistic(2.0), NegLogistic(1.3)):
        calls = [lambda: xi_measure(model, u), lambda: exponent_measure_v(model, u),
                 lambda: pivot_weights(model, u, "min"), lambda: pivot_weights(model, u, "max")]
        for call in calls:
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                value = call()
                best = min(best, time.perf_counter() - start)
            assert best < 0.25
            assert np.all(np.isfinite(value)) and np.all(np.asarray(value) > 0.0)
        assert pivot_weights(model, u, "min").sum() == pytest.approx(xi_measure(model, u), rel=1e-14)
        assert pivot_weights(model, u, "max").sum() == pytest.approx(
            exponent_measure_v(model, u), rel=1e-12)


def test_logistic_censored_density_integrates_to_v():
    # 2-d quadrature of the uncensored density over {max(y/u) > 1}
    beta = 1.7
    u = np.array([1.0, 1.5])

    def dens(y1, y2):
        T = y1 ** -beta + y2 ** -beta
        return (beta - 1.0) * (y1 * y2) ** (-beta - 1.0) * T ** (1.0 / beta - 2.0)

    v = exponent_measure_v(Logistic(beta), u)
    hi = np.inf
    a1, _ = dblquad(dens, u[0], hi, 0.0, hi)
    a2, _ = dblquad(dens, 0.0, u[0], u[1], hi)
    assert a1 + a2 == pytest.approx(v, rel=1e-3)


def test_hr_model_validation():
    with pytest.raises(ValueError):
        HuslerReiss(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        HuslerReiss(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="at least two variables"):
        HuslerReiss(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        ExtremalStudent(np.array([[1.0, 2.0], [2.0, 1.0]]), 2.0)
    with pytest.raises(ValueError):
        Logistic(0.9)
    with pytest.raises(ValueError):
        NegLogistic(-1.0)


def test_joint_exceedance_prob_composition():
    # synthetic rows: exceedance fraction 0.05 exactly
    y = np.full((1000, 2), 0.5)
    y[:50] = 2.0
    u = np.array([1.0, 1.0])
    s = np.array([10.0, 10.0])
    model = Logistic(2.0)
    got = joint_exceedance_prob(model, y, u, s)
    expect = 0.05 * (2.0 - np.sqrt(2.0)) / 10.0 / np.sqrt(2.0)
    assert got == pytest.approx(expect, rel=1e-10)
    assert got == pytest.approx(2.0711e-3, rel=1e-3)
    # halving s doubles the probability
    got2 = joint_exceedance_prob(model, y, u, s / 2.0)
    assert got2 == pytest.approx(2.0 * got, rel=1e-10)


# Pinned values of the tail measures and of seeded composition sampling at
# d = 3.  Refactors of the family code must reproduce them exactly; a
# change here is a numeric change that needs explaining.  The two iid
# entries were re-recorded when the pivot blocks moved to the T-space
# sampler, whose law test_simulate checks against its closed form; the
# ("hr", "max") samples when the Gibbs sweeps gave way to exact rejection,
# checked by test_simulate's Huesler-Reiss max exactness test; the "hr"
# measures when its 2 x 2 one-factor pivot terms became exact, checked
# against a 200-node rule and scipy's bivariate normal CDF; and the iid
# measures when their pivot weights became Gamma mixtures, each within
# 3e-16 of a 40-digit power-set sum (the old logistic "min" weight 0 was
# off by 9e-15).
PINNED_MEASURES = {
    "logistic": {
        "xi": (0.18781653420970262, 0.0),
        "v": (1.14564392373896, 0.0),
        "min": [0.008301869798721752, 0.047397496986055485, 0.13211716742492538],
        "max": [0.8728715609439696, 0.2182178902359924, 0.0545544725589981]},
    "neglogistic": {
        "xi": (0.17661252335029468, 0.0),
        "v": (1.1272860476659863, 0.0),
        "min": [0.018541695293241615, 0.04565500914843628, 0.11241581890861677],
        "max": [0.8759602354857893, 0.21652364897228524, 0.034802163207911845]},
    "hr": {
        "xi": (0.18083013860768996, 0.0),
        "v": (1.1216305384665746, 0.0),
        "min": [0.020698576720207848, 0.044537444296750835, 0.11559411759073127],
        "max": [0.8623360042313974, 0.196795679116112, 0.062498855119065104]},
    "es": {
        "xi": (0.06125898061514107, 9.087465536507818e-05),
        "v": (1.3719090089455563, 0.00026431153960160053),
        "min": [0.010799842658552933, 0.016170946428372253, 0.03428819152821588],
        "max": [0.902091104605392, 0.32732376670460206, 0.14249413763556226]},
}
PINNED_SAMPLES = {
    ("logistic", "min"): (
        [[2.043233634398895, 2.4386864850228283, 5.3416514993954625],
         [1.932705955670512, 2.298575518146255, 1.6052986593205536],
         [0.9700699473019523, 1.7974495874636027, 1.1793677791278026],
         [2.2553230622087126, 10.095593440396021, 9.253469714297557]],
        [1, 2, 2, 0]),
    ("neglogistic", "max"): (
        [[1.1631591917670367, 0.16085151466915468, 0.16124329688245556],
         [9.573160823327346, 18.033105343932053, 0.9578046677886385],
         [1.7744277811997395, 0.3598232462644512, 0.4908766924408335],
         [8.108283439151146, 0.36540839166151295, 0.757254862777835]],
        [0, 0, 0, 0]),
    ("hr", "sum"): (
        [[2.965976856971457, 1.3354080890267572, 0.6206388413741465],
         [1.7663146969537247, 1.3798981162580044, 0.1353079357429771],
         [3.370333649558563, 1.1600498409911697, 0.9201947173616987],
         [4.7178622708326206, 5.058561457050257, 2.9775377089989017]],
        [0, 1, 1, 0]),
    ("hr", "max"): (
        [[2.6618419866255496, 1.1984737211606034, 0.5569977805515411],
         [6.518629876691043, 6.9893710231575055, 4.11403834080748],
         [3.464486449286453, 4.4346559073260785, 0.3749760570362099],
         [2.631086934090149, 3.1511753083515424, 1.6483592514576733]],
        [0, 0, 0, 0]),
}


def test_pinned_values_are_bit_identical():
    kw = {"n_points": 2000, "seed": 3}
    for name, model in MODELS_D3.items():
        want = PINNED_MEASURES[name]
        assert xi_measure(model, U_D3, return_se=True, **kw) == want["xi"]
        assert exponent_measure_v(model, U_D3, return_se=True, **kw) == want["v"]
        for direction in ("min", "max"):
            got = pivot_weights(model, U_D3, direction, **kw)
            assert got.tolist() == want[direction]
    for (name, kind), (samples, pivot) in PINNED_SAMPLES.items():
        out = composition_sample(MODELS_D3[name], RiskFunctional(kind, U_D3),
                                 4, seed=11)
        assert out.samples.tolist() == samples
        assert out.pivot.tolist() == pivot


def _max_linear(seed, n, d, a):
    """n rows of max(a F_0, (1 - a) F_j), j = 1..d, for iid unit Frechet
    F: unit Frechet margins, dependence rising with a."""
    F = -1.0 / np.log(derive_rng(seed, 7).uniform(size=(n, d + 1)))
    return np.maximum(a * F[:, :1], (1.0 - a) * F[:, 1:])


def _ref_logistic_nll(Y, u, censor, beta):
    """The censored logistic NLL row by row: sum_(k<m) log(k beta - 1) -
    (beta + 1) sum log y_unc + (1/beta - m) log T per row, less the
    normalizer n log V(u)."""
    Ye = Y[np.max(Y / u, axis=1) > 1.0]
    M = Ye > censor
    Ye, M = Ye[M.any(axis=1)], M[M.any(axis=1)]
    m = M.sum(axis=1)
    Yt = np.where(M, Ye, censor)
    cum = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, u.size) * beta - 1.0))])
    ll = (cum[m - 1] - (beta + 1.0) * np.where(M, np.log(Yt), 0.0).sum(axis=1)
          + (1.0 / beta - m) * np.log(np.sum(Yt ** -beta, axis=1)))
    return -(ll.sum() - Ye.shape[0] / beta * np.log(np.sum(u ** -beta)))


def _ref_hr_pair_nll(x, y, cx, cy, ux, uy, theta):
    """One pair's censored Huesler-Reiss NLL row by row, at gamma = e^theta."""
    a = np.sqrt(2.0 * np.exp(theta))

    def arg(p, q):
        return 0.5 * a + np.log(q / p) / a
    ox, oy = x > cx, y > cy
    ll = np.where(ox & oy, -0.5 * arg(x, y) ** 2 - 0.5 * np.log(2.0 * np.pi) - np.log(a)
                  - 2.0 * np.log(x) - np.log(y), 0.0)
    ll += np.where(ox & ~oy, -2.0 * np.log(x) + log_ndtr(arg(x, cy)), 0.0)
    ll += np.where(~ox & oy, -2.0 * np.log(y) + log_ndtr(arg(y, cx)), 0.0)
    return -(ll.sum() - x.size * np.log(ndtr(arg(ux, uy)) / ux + ndtr(arg(uy, ux)) / uy))


def _ref_hr_nll(Y, u, censor, theta):
    total = 0.0
    for i, j in itertools.combinations(range(u.size), 2):
        rows = (Y[:, i] / u[i] > 1.0) | (Y[:, j] / u[j] > 1.0)
        total += _ref_hr_pair_nll(Y[rows, i], Y[rows, j], censor[i], censor[j],
                                  u[i], u[j], theta)
    return total


def _fit_input(seed, n, d, a, q, cq):
    Y = _max_linear(seed, n, d, a)
    return Y, np.quantile(Y, q, axis=0), np.quantile(Y, cq, axis=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(200, 800), d=st.integers(2, 4),
       a=st.floats(0.05, 0.95), q=st.floats(0.7, 0.95), cq=st.floats(0.3, 0.7),
       beta=st.one_of(st.floats(1.0 + 1e-3, 1.05), st.floats(1.05, 20.0)))
def test_logistic_censored_derivatives_match_finite_differences(seed, n, d, a, q, cq, beta):
    Y, u, censor = _fit_input(seed, n, d, a, q, cq)
    parts, _, _ = _logistic_censored_nll(Y, u, censor)
    t = np.array([beta])
    f = lambda b: _ref_logistic_nll(Y, u, censor, b[0])  # noqa: E731
    value, grad, hess = parts(beta)
    assert value == pytest.approx(f(t), rel=1e-12)
    scale = abs(f(t)) / (beta - 1.0) ** 2  # the curvature of log(beta - 1)
    assert abs(grad - numeric_gradient(f, t)[0]) <= 1e-6 * scale
    step = 1e-3 * (beta - 1.0) / beta  # a thousandth of the distance to the pole
    assert abs(hess - numeric_hessian(f, t, step)[0, 0]) <= 1e-4 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(100, 600), a=st.floats(0.05, 0.95),
       q=st.floats(0.6, 0.9), cq=st.floats(0.2, 0.6), theta=st.floats(-9.0, 4.5))
def test_hr_pair_derivatives_match_finite_differences(seed, n, a, q, cq, theta):
    Y, u, censor = _fit_input(seed, n, 2, a, q, cq)
    # one row of each censoring class at least: both above, only x, only y
    Y = np.vstack([Y, [2.0 * u[0], 2.0 * u[1]], [2.0 * u[0], 0.5 * censor[1]],
                   [0.5 * censor[0], 2.0 * u[1]]])
    rows = (Y[:, 0] / u[0] > 1.0) | (Y[:, 1] / u[1] > 1.0)
    x, y = Y[rows, 0], Y[rows, 1]
    terms = _hr_pair_terms(x, y, censor[0], censor[1], u[0], u[1])
    f = lambda t: _ref_hr_pair_nll(x, y, censor[0], censor[1], u[0], u[1], t[0])  # noqa: E731
    t = np.array([theta])
    value, grad, hess = terms(theta)
    assert value == pytest.approx(f(t), rel=1e-12)
    scale = abs(f(t)) + 1.0
    assert abs(grad - numeric_gradient(f, t)[0]) <= 1e-6 * scale
    assert abs(hess - numeric_hessian(f, t)[0, 0]) <= 1e-4 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(400, 3000), d=st.integers(2, 4),
       a=st.floats(0.1, 0.9), q=st.floats(0.8, 0.97), cq=st.floats(0.4, 0.8))
def test_censored_fits_match_a_bounded_brent_reference(seed, n, d, a, q, cq):
    Y, u, censor = _fit_input(seed, n, d, a, q, cq)
    for fit, nll, low, high, to_estimate in (
            (fit_logistic_censored, _ref_logistic_nll, 1.0 + 1e-6, 50.0, float),
            (fit_hr_exchangeable, _ref_hr_nll, np.log(1e-4), np.log(100.0), np.exp)):
        got = fit(Y, u, censor)
        x, value = bounded_scalar_minimum(lambda t: nll(Y, u, censor, t), low, high)
        assert got.estimate == pytest.approx(to_estimate(x), rel=1e-7)
        assert got.loglik >= -value - 1e-9 * abs(value)


def test_single_pair_hr_se_is_the_observed_information_in_gamma():
    Y, u, censor = _fit_input(3, 2000, 2, 0.5, 0.9, 0.6)
    fit = fit_hr_exchangeable(Y, u, censor)
    f = lambda g: _ref_hr_nll(Y, u, censor, np.log(g[0]))  # noqa: E731
    info = numeric_hessian(f, np.array([fit.estimate]), 1e-4)[0, 0]
    assert fit.flags == []
    assert fit.se == pytest.approx(info ** -0.5, rel=1e-4)


def test_censored_fits_reject_one_column_or_no_exceedances():
    Y = np.tile([0.0, 1.0, 2.0], (200, 4)).reshape(-1, 4)[:200]
    for fit in (fit_logistic_censored, fit_hr_exchangeable):
        with pytest.raises(ValueError, match="no exceedance rows"):
            fit(Y, np.full(4, 2.0), 1.0)
        with pytest.raises(ValueError, match="at least two columns"):
            fit(_max_linear(0, 100, 1, 0.5), [2.0], 1.0)
