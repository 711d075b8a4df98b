import numpy as np
import pytest

from extremis import core
from extremis.core import derive_rng, rank_transform
from extremis.mgpd import Logistic, model_chi
from extremis.simulate import sample_logistic_max_stable
from extremis.taildep import (chi_estimate, directional_extrapolate,
                              eta_estimate, hrv_extrapolate, taildep_profile)


def test_chi_comonotone():
    # rank-based pipeline: the exceedance count is deterministic and the
    # estimate hits 1 up to rank granularity
    rng = derive_rng(1)
    base = rank_transform(rng.uniform(size=5000))
    U = np.column_stack([base, base])
    est = chi_estimate(U, 0.9)
    slack = 2.0 / (U.shape[0] * 0.1)
    assert abs(est.chi - 1.0) <= slack


def test_chi_independent_within_3se():
    rng = derive_rng(2)
    U = rng.uniform(size=(1_000_000, 2))
    est = chi_estimate(U, 0.9)
    assert abs(est.chi - 0.1) < 3.0 * est.se


def test_chi_empty_exceedances_flagged():
    U = np.full((50, 2), 0.4)
    U += np.linspace(0, 0.01, 50)[:, None]
    est = chi_estimate(U, 0.99)
    assert est.chi == 0.0 and est.var == 0.0
    assert "no-exceedances" in est.flags


def test_chi_rank_invariance():
    rng = derive_rng(3)
    x = rng.normal(size=(4000, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    u1 = rank_transform(x)
    u2 = rank_transform(np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3]))
    a = chi_estimate(u1, 0.95)
    b = chi_estimate(u2, 0.95)
    assert a.chi == pytest.approx(b.chi, abs=1e-12)


def test_chi_matches_logistic_model_chi():
    beta = 2.0
    rng = derive_rng(5)
    y = sample_logistic_max_stable(1.0 / beta, 1_000_000, 2, rng)
    U = rank_transform(y)
    est = chi_estimate(U, 0.99)
    target = 2.0 - 2.0 ** (1.0 / beta)
    assert abs(est.chi - target) < 3.0 * est.se
    assert model_chi(Logistic(beta), 2) == pytest.approx(target, abs=1e-9)


def test_eta_comonotone_near_one():
    # comonotone data: the structure variable is Exp(1) above u, mean 1;
    # the estimate is capped at 1 and sits within sampling error of it
    rng = derive_rng(7)
    e = rng.exponential(size=20_000)
    E = np.column_stack([e, e])
    est = eta_estimate(E, u=float(np.quantile(e, 0.95)))
    assert est.eta <= 1.0
    assert abs(est.eta - 1.0) < 3.0 * est.se


def test_eta_truncation_flag():
    E = np.column_stack([np.array([0.1, 6.5, 7.8]), np.array([0.2, 6.6, 8.0])])
    est = eta_estimate(E, u=5.0)
    assert est.eta == 1.0
    assert "eta-truncated" in est.flags


def test_eta_independent_half():
    rng = derive_rng(11)
    E = rng.exponential(size=(1_000_000, 2))
    T = E.min(axis=1)
    u = float(np.quantile(T, 0.985))
    est = eta_estimate(E, u)
    assert abs(est.eta - 0.5) < 3.0 * est.se


def test_eta_single_exceedance():
    E = np.column_stack([np.array([0.1, 0.2, 5.3]), np.array([0.9, 0.1, 5.4])])
    est = eta_estimate(E, u=5.0)
    assert est.n_exceed == 1
    assert est.eta == pytest.approx(0.3, abs=1e-12)


def test_hrv_extrapolate_cases():
    rng = derive_rng(13)
    E = rng.exponential(size=(50_000, 2))
    T = E.min(axis=1)
    u = float(np.quantile(T, 0.98))
    p0 = hrv_extrapolate(E, u, 0.0)
    assert p0 == pytest.approx(float(np.mean(T > u)), rel=1e-12)
    est = eta_estimate(E, u)
    p = hrv_extrapolate(E, u, np.log(4.0))
    assert p == pytest.approx(p0 * np.exp(-np.log(4.0) / est.eta), rel=1e-12)
    ts = np.linspace(0.0, 3.0, 7)
    probs = [hrv_extrapolate(E, u, t) for t in ts]
    assert np.all(np.diff(probs) < 0)


def test_directional_reduces_to_hrv():
    rng = derive_rng(17)
    E = rng.exponential(size=(30_000, 3))
    T = E.min(axis=1)
    u = float(np.quantile(T, 0.97))
    t = 1.3
    # omega = 1 collapses the direction
    out = directional_extrapolate(E, [2], omega=1.0, t=t, threshold=u)
    assert out.log_prob == pytest.approx(np.log(hrv_extrapolate(E, u, t)),
                                         abs=1e-12)
    # all columns in the first group: single assignment, same structure
    out2 = directional_extrapolate(E, [], omega=0.7, t=t, threshold=u)
    assert out2.log_prob == pytest.approx(np.log(hrv_extrapolate(E, u, t)),
                                          abs=1e-12)


def test_directional_omega_from_task_rates():
    omega = np.log(12.0 / 300.0) / np.log(1.0 / 300.0)
    assert omega == pytest.approx(0.56435, abs=1e-5)


def test_directional_exchangeable_assignments_agree():
    rng = derive_rng(19)
    y = sample_logistic_max_stable(0.6, 100_000, 3, rng)
    E = -np.log1p(-rank_transform(y))
    omega = np.log(12.0 / 300.0) / np.log(1.0 / 300.0)
    out = directional_extrapolate(E, [2], omega=omega, t=1.5,
                                  threshold_quantile=0.985)
    assert out.n_assignments == 3
    probs = np.exp(out.log_probs)
    assert probs.std() / probs.mean() < 0.10


def test_directional_validation_and_subsample_cap(monkeypatch):
    rng = derive_rng(23)
    E = rng.exponential(size=(3000, 14))
    monkeypatch.setattr(core, "MAX_ASSIGNMENTS", 100)
    out = directional_extrapolate(E, list(range(7)), omega=0.6, t=1.0,
                                  threshold_quantile=0.95, seed=3)
    assert out.n_assignments == 100
    assert "assignment-subsample" in out.flags
    with pytest.raises(ValueError):
        directional_extrapolate(E, [0], omega=1.5, t=1.0, threshold_quantile=0.9)
    with pytest.raises(ValueError):
        directional_extrapolate(E, [0], omega=0.5, threshold_quantile=0.9)


def test_directional_target_mode():
    rng = derive_rng(29)
    E = rng.exponential(size=(20_000, 2))
    T = E.min(axis=1)
    u = float(np.quantile(T, 0.98))
    a = directional_extrapolate(E, [], omega=1.0, t=2.0, threshold=u)
    b = directional_extrapolate(E, [], omega=1.0, target=u + 2.0, threshold=u)
    assert a.log_prob == pytest.approx(b.log_prob, abs=1e-12)


def test_taildep_profile_table():
    rng = derive_rng(31)
    U = rank_transform(rng.normal(size=(5000, 2)) @ np.array([[1.0, 0.5], [0.0, 1.0]]))
    rows = taildep_profile(U, [0.9, 0.95])
    assert len(rows) == 2
    assert rows[0].level == 0.9
    assert rows[0].n_exceed > 0
    assert 0.0 < rows[0].eta <= 1.0
