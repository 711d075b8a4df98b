"""Tail-dependence summaries and joint-tail extrapolation.

The tail correlation chi(v) compares the joint exceedance probability of a
common uniform-scale level v against the marginal tail mass 1 - v.  The
coefficient of tail dependence eta is the exponential-scale decay rate of
the structure variable min_j E_j; its maximum likelihood estimate is the
mean excess above a high threshold, truncated at one.  Extrapolation
multiplies the empirical threshold exceedance rate by exp(-t/eta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .core import label_assignments


@dataclass
class ChiEstimate:
    level: float
    chi: float
    var: float
    n_exceed: int
    flags: list[str] = field(default_factory=list)

    @property
    def se(self) -> float:
        return float(np.sqrt(self.var))


@dataclass
class EtaEstimate:
    threshold: float
    eta: float
    se: float
    n_exceed: int
    flags: list[str] = field(default_factory=list)


def chi_estimate(U, v: float) -> ChiEstimate:
    """Empirical tail correlation at level v from uniform-scale data.

    chi_hat = p_hat/(1-v) with p_hat the joint exceedance fraction, and
    binomial variance p_hat(1-p_hat)/(n (1-v)^2).  An empty exceedance set
    yields (0, 0) with a flag; estimates above one are flagged, not
    clipped.  The standard error is approximate for rank-transformed data.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if not 0.0 < v < 1.0:
        raise ValueError("v must be in (0, 1)")
    if np.any(U <= 0.0) or np.any(U >= 1.0):
        raise ValueError("U must live strictly inside (0, 1)")
    n = U.shape[0]
    joint = np.min(U, axis=1) > v
    k = int(joint.sum())
    p = k / n
    chi = p / (1.0 - v)
    var = p * (1.0 - p) / (n * (1.0 - v) ** 2)
    flags = []
    if k == 0:
        flags.append("no-exceedances")
    if chi > 1.0:
        flags.append("chi-above-one")
    return ChiEstimate(float(v), float(chi), float(var), k, flags)


def _structure_excesses(T: np.ndarray, u: float):
    exc = T > u
    k = int(exc.sum())
    if k == 0:
        raise ValueError("no exceedances of the structure variable")
    return T[exc] - u, k


def eta_estimate(E, u: float) -> EtaEstimate:
    """Tail-dependence coefficient from exponential-scale data.

    The structure variable is T = min_j E_j; eta_hat is the mean excess of
    T above u truncated at 1 (flagged when the truncation binds), with the
    exponential-scale standard error eta_hat/sqrt(k) (approximate).
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    T = E.min(axis=1)
    excess, k = _structure_excesses(T, u)
    raw = float(excess.mean())
    flags = []
    eta = raw
    if raw > 1.0:
        eta = 1.0
        flags.append("eta-truncated")
    return EtaEstimate(float(u), eta, eta / math.sqrt(k), k, flags)


def hrv_extrapolate(E, u: float, t: float) -> float:
    """Joint survival at u + t: empirical P(T > u) times exp(-t/eta_hat).

    The model factor is always used above the threshold, even when u + t
    sits inside the sample range.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    E = np.atleast_2d(np.asarray(E, dtype=float))
    T = E.min(axis=1)
    est = eta_estimate(E, u)
    p_u = est.n_exceed / T.size
    return float(p_u * np.exp(-t / est.eta))


@dataclass
class DirectionalExtrapolation:
    log_prob: float
    n_assignments: int
    etas: np.ndarray
    log_probs: np.ndarray
    flags: list[str] = field(default_factory=list)


def directional_extrapolate(E, group2, omega: float, t: float | None = None,
                            target: float | None = None,
                            threshold: float | None = None,
                            threshold_quantile: float | None = None,
                            exchangeable: bool = True,
                            seed: int = 0) -> DirectionalExtrapolation:
    """Directional joint-tail extrapolation with permutation averaging.

    Components in the second group are scaled by ``omega`` in (0, 1]; the
    structure variable is min_j E_j/beta_j with beta_j = omega on that
    group and 1 elsewhere.  Under exchangeability the extrapolated
    probability is averaged over every assignment of the omega-weight to a
    subset of matching size (a seeded random subsample once the
    combination count exceeds ``core.MAX_ASSIGNMENTS``).  The threshold is a
    raw value (``threshold``) or an empirical quantile level of the
    structure variable (``threshold_quantile``), and the target is either
    an increment ``t`` above the threshold or an absolute ``target``
    level.  Returns the log of the averaged probability.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    n, d = E.shape
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must be in (0, 1]")
    if (threshold is None) == (threshold_quantile is None):
        raise ValueError("give exactly one of threshold, threshold_quantile")
    if (t is None) == (target is None):
        raise ValueError("give exactly one of t, target")
    group2 = np.asarray(sorted(group2), dtype=int)
    if np.any(group2 < 0) or np.any(group2 >= d) or np.unique(group2).size != group2.size:
        raise ValueError("group2 must be distinct column indices")
    assignments, flags = label_assignments(d, group2, exchangeable, seed)

    log_probs = np.empty(len(assignments))
    etas = np.empty(len(assignments))
    for a, cols in enumerate(assignments):
        beta = np.ones(d)
        beta[cols] = omega
        T = (E / beta).min(axis=1)
        u = (threshold if threshold is not None
             else float(np.quantile(T, threshold_quantile)))
        excess, k = _structure_excesses(T, u)
        eta = min(float(excess.mean()), 1.0)
        t_a = t if t is not None else target - u
        if t_a < 0.0:
            raise ValueError("target lies below the threshold")
        etas[a] = eta
        log_probs[a] = np.log(k / n) - t_a / eta
    log_prob = float(logsumexp(log_probs) - np.log(len(assignments)))
    return DirectionalExtrapolation(log_prob, len(assignments), etas,
                                    log_probs, flags)


@dataclass
class TailDepEstimate:
    """One row of a (chi, eta) tail-dependence profile."""

    level: float
    chi: float
    chi_var: float
    eta: float
    eta_se: float
    n_exceed: int
    flags: list[str] = field(default_factory=list)


def taildep_profile(U, levels) -> list[TailDepEstimate]:
    """Per-level chi and eta estimates from uniform-scale data.

    The eta estimate at level v thresholds the exponential-scale structure
    variable at its v-quantile.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    E = -np.log1p(-U)
    T = E.min(axis=1)
    out = []
    for v in np.asarray(levels, dtype=float).ravel():
        c = chi_estimate(U, v)
        u = float(np.quantile(T, v))
        try:
            e = eta_estimate(E, u)
            eta, eta_se, flags = e.eta, e.se, c.flags + e.flags
            k = e.n_exceed
        except ValueError:
            eta, eta_se, k = np.nan, np.nan, 0
            flags = c.flags + ["no-exceedances"]
        out.append(TailDepEstimate(v, c.chi, c.var, eta, eta_se,
                                   c.n_exceed if k == 0 else k, flags))
    return out
