import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.stats import norm

from helpers import mc_intensity
from extremis.mgpd import (ExtremalStudent, HuslerReiss, Logistic,
                           NegLogistic, _logistic_xi_equal, exponent_measure_v,
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
            assert _logistic_xi_equal(d, beta, 1.3) == pytest.approx(general, rel=1e-12, abs=1e-12)


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


def test_logistic_dimension_cap():
    with pytest.raises(ValueError, match="Monte Carlo"):
        xi_measure(Logistic(2.0), np.ones(21))


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
# sampler, whose law test_simulate checks against its closed form.
PINNED_MEASURES = {
    "logistic": {
        "xi": (0.1878165342097027, 0.0),
        "v": (1.14564392373896, 0.0),
        "min": [0.008301869798721828, 0.0473974969860555, 0.13211716742492538],
        "max": [0.8728715609439696, 0.2182178902359924, 0.0545544725589981]},
    "neglogistic": {
        "xi": (0.17661252335029468, 0.0),
        "v": (1.1272860476659865, 0.0),
        "min": [0.018541695293241612, 0.04565500914843628, 0.11241581890861675],
        "max": [0.8759602354857895, 0.21652364897228532, 0.03480216320791184]},
    "hr": {
        "xi": (0.18082587097205605, 1.4715596727668423e-05),
        "v": (1.1215987242733874, 3.144544689996458e-05),
        "min": [0.020702932394410595, 0.04453943996070723, 0.11558349861693824],
        "max": [0.862307647802384, 0.196795980167508, 0.06249509630349545]},
    "es": {
        "xi": (0.06125898061514107, 9.087465536507818e-05),
        "v": (1.3719090089455563, 0.00026431153960160053),
        "min": [0.010799842658552933, 0.016170946428372253, 0.03428819152821588],
        "max": [0.902091104605392, 0.32732376670460206, 0.14249413763556226]},
}
PINNED_SAMPLES = {
    ("logistic", "min"): (
        [[1.4490084299541806, 2.1542512485762786, 16.96057013987901],
         [0.9587742716625196, 1.2004664554682598, 1.3257437893270316],
         [4.005918365888873, 5.114550696132923, 2.1542216479614504],
         [6.2003978649551845, 20.13045162912511, 43.97457124466422]],
        [1, 2, 2, 0], []),
    ("neglogistic", "max"): (
        [[1.298759744087214, 2.118672596981736, 1.0129165365815065],
         [2.5639134978481093, 0.8269662102915051, 1.1582728788074834],
         [1.285688718890768, 1.2673785371295028, 1.618279908809434],
         [2.4738740736563174, 1.0944829891376138, 0.08622235985247778]],
        [0, 0, 0, 0], []),
    ("hr", "sum"): (
        [[2.965976856971457, 1.3354080890267572, 0.6206388413741465],
         [1.7663146969537247, 1.3798981162580044, 0.1353079357429771],
         [3.370333649558563, 1.1600498409911697, 0.9201947173616987],
         [4.7178622708326206, 5.058561457050257, 2.9775377089989017]],
        [0, 1, 1, 0], []),
    ("hr", "max"): (
        [[2.3553722265991777, 1.661996076055978, 1.388510983848753],
         [1.933290782993951, 0.5067612441110033, 0.7879773519736915],
         [3.4360690096273423, 4.860026474127741, 1.914526009961372],
         [15.647773623900248, 14.241170881547363, 5.894972730994302]],
        [0, 0, 0, 0], ["hr-gibbs-approximate"]),
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
    for (name, kind), (samples, pivot, flags) in PINNED_SAMPLES.items():
        out = composition_sample(MODELS_D3[name], RiskFunctional(kind, U_D3),
                                 4, seed=11)
        assert out.samples.tolist() == samples
        assert out.pivot.tolist() == pivot
        assert out.flags == flags
