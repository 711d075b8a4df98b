"""Binomial-GPD return levels: closed form, covariate-averaged root, profile CI."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from .._optim import newton_root
from .gpd import XI_HI, XI_LO, XI_ZERO, GpdParams, fit_gpd_mle, gpd_nll_derivs


@dataclass(frozen=True)
class BinGpdModel:
    """Threshold u, exceedance probability zeta_u, and GPD tail above u."""

    u: float
    zeta_u: float
    gpd: GpdParams

    def __post_init__(self) -> None:
        if not 0.0 < self.zeta_u < 1.0:
            raise ValueError("zeta_u must be in (0, 1)")

    def survival(self, z):
        """P(Y > z) = zeta_u (1 + xi (z-u)/sigma)_+^{-1/xi} for z >= u."""
        z = np.asarray(z, dtype=float)
        sigma, xi = self.gpd.sigma, self.gpd.xi
        excess = np.maximum(z - self.u, 0.0)
        if abs(xi) < XI_ZERO:
            tail = np.exp(-excess / sigma)
        else:
            arg = np.maximum(1.0 + xi * excess / sigma, 0.0)
            with np.errstate(divide="ignore"):
                tail = arg ** (-1.0 / xi)
        return self.zeta_u * tail


def return_level_closed(m: BinGpdModel, T: float, Ny: float) -> float:
    """T-year return level u + sigma/xi {(Ny T zeta_u)^xi - 1}.

    Equivalently the level with per-observation exceedance probability
    1/(Ny T).  Requires Ny*T*zeta_u > 1 so the level sits above the
    threshold.
    """
    return float(gpd_return_level(m.u, m.gpd.sigma, m.gpd.xi, Ny * T * m.zeta_u))


def gpd_return_level(u, sigma, xi, lam):
    """Closed-form level u + sigma/xi (lam^xi - 1), elementwise.

    ``lam`` = Ny T zeta_u > 1 counts the threshold exceedances per return
    period; below |xi| < XI_ZERO the limit u + sigma log(lam) is used.
    Scalars stay scalars: numpy's array power can differ in the last bit.
    """
    if np.any(lam <= 1.0):
        raise ValueError("return level below threshold: Ny*T*zeta_u <= 1")
    small = np.abs(xi) < XI_ZERO
    xi_safe = np.where(small, 1.0, xi)[()]  # [()] keeps a scalar a scalar
    return u + np.where(small, sigma * np.log(lam),
                        sigma / xi_safe * (lam ** xi_safe - 1.0))


def solve_return_level(models, T: float, m: int,
                       annual_max: bool = False,
                       tol: float = 1e-8) -> float:
    """Root of the covariate-averaged return-level equation.

    With B per-covariate binomial-GPD models F_i, finds z solving
    ``mean_i survival_i(z) = p*`` by bisection, to a width ``tol``, between
    the highest threshold and an end found by doubling (or by halving
    toward the largest finite endpoint).  The default target ``p* = 1/(m
    T)``, the per-observation exceedance probability of a T-year level with
    m observations per year, reproduces :func:`return_level_closed` when
    B = 1.  ``annual_max=True`` solves ``[mean_i F_i(z)]^m = 1 - 1/T``.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if T <= 1.0:
        raise ValueError("T must exceed 1")
    if annual_max:
        target = -np.expm1(np.log1p(-1.0 / T) / m)
    else:
        target = 1.0 / (m * T)

    def mean_surv(z: float) -> float:
        return float(np.mean([md.survival(z) for md in models]))

    lo = max(md.u for md in models)
    if mean_surv(lo) <= target:
        raise ValueError("target level not above the highest threshold")
    # when every shape is negative the survival vanishes at the largest
    # endpoint; cap bracket expansion there
    sup = max(md.u + md.gpd.upper for md in models)
    hi = lo + max(1.0, abs(lo))
    if np.isfinite(sup):
        hi = min(hi, 0.5 * (lo + sup))
    for _ in range(200):
        if mean_surv(hi) < target:
            break
        if np.isfinite(sup):
            nxt = 0.5 * (hi + sup)
            if nxt <= hi or sup - hi < 1e-13 * max(abs(sup), 1.0):
                raise ValueError("target level not achievable: all finite "
                                 "endpoints lie below the requirement")
            hi = nxt
        else:
            hi = lo + 2.0 * (hi - lo)
    else:
        raise RuntimeError("bracket expansion failure")

    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        lo, hi = (mid, hi) if mean_surv(mid) > target else (lo, mid)
        mid = 0.5 * (lo + hi)
    return float(mid)


@dataclass
class ProfileInterval:
    lower: float
    upper: float
    level: float
    estimate: float
    flags: list[str] = field(default_factory=list)


EXPAND_STEPS = 18  # bracket search: out to 2^17 steps above, q_hat / 2^18 below
T_SERIES = 1e-2  # |t| below which phi's Bernoulli series replaces its closed forms


def _phi_derivs(t: float) -> tuple[float, float]:
    """phi'(t), phi''(t) for phi(t) = log(expm1(t) / t)."""
    if abs(t) < T_SERIES:
        return 0.5 + t / 12.0 - t**3 / 720.0, 1.0 / 12.0 - t * t / 240.0
    em = -math.expm1(-t)
    return 1.0 / em - 1.0 / t, 1.0 / (t * t) - math.exp(-t) / (em * em)


def _profile_terms(x: np.ndarray, q: float, log_lam: float, xi: float):
    """(dF/dxi, d2F/dxi2, F, dF/dq at fixed xi) for F the GPD NLL of ``x`` at
    return-level excess q = sigma/xi (lam^xi - 1), i.e. at eta = log sigma =
    log q - log log lam - phi(xi log lam), chaining :func:`gpd_nll_derivs`'s
    (eta, xi) derivatives; F is +inf and the rest NaN off the support."""
    t = xi * log_lam
    d1, d2 = _phi_derivs(t)
    eta_x, eta_xx = -log_lam * d1, -log_lam * log_lam * d2
    eta = math.log(q / log_lam * (t / math.expm1(t) if t else 1.0))
    nll, score, info = gpd_nll_derivs(x, eta, xi)
    (fe, fx), (fee, fex, fxx) = score.sum(axis=1), info.sum(axis=1)
    return (fe * eta_x + fx, (fee * eta_x + 2.0 * fex) * eta_x + fxx + fe * eta_xx,
            nll, fe / q)


def profile_return_level_ci(exceedances, zeta_u: float, T: float, Ny: float,
                            level: float = 0.95, u: float = 0.0) -> ProfileInterval:
    """Profile-likelihood confidence interval for the T-year return level.

    Its exact ends are the roots of dev(q) = chi2_1(level) / 2, dev the drop
    of the profile log likelihood in the return-level excess q from the MLE
    (Venzon & Moolgavkar 1988; Coles 2001, 4.3.3).  A profile point is a
    safeguarded Newton (``_optim.newton_root``) over xi, to 1e-10 (1 + |xi|),
    in the MLE's box (XI_LO, XI_HI), cut below by the support; each end is
    bracketed by steps doubling from the delta-method SE, then solved by
    ``newton_root`` on the envelope slope dF/dq, to 1e-12 (1 + q).  Cost per
    end: about ten profile points of a few O(n) passes each, for n
    exceedances.  An end not bracketed within 2^17 steps above,
    or above q_hat / 2^18 below, is flagged ``profile-flat`` and
    ``upper-unbounded`` (the end is +inf) or ``lower-unbounded`` (the end
    is the threshold ``u``).
    """
    x = np.asarray(exceedances, dtype=float).ravel()
    fit = fit_gpd_mle(x)
    lam = Ny * T * zeta_u
    sigma_hat, xi_hat = fit.params.sigma, fit.params.xi
    q_hat = gpd_return_level(0.0, sigma_hat, xi_hat, lam)
    log_lam = math.log(lam)
    cutoff = gammaincinv(0.5, level)  # chi2_1(level) / 2
    # first step: the delta-method SE, floored for a shape on its bound
    grad = np.array([q_hat / sigma_hat, q_hat * log_lam * _phi_derivs(xi_hat * log_lam)[0]])
    var = grad @ fit.cov @ grad if fit.cov is not None else 0.0
    step = max(math.sqrt(var) if var > 0.0 else 0.25 * q_hat, 1e-3 * q_hat)
    warm = [xi_hat]  # the shape maximizing the last profile point

    def over_cutoff(q: float) -> tuple[float, float]:  # dev(q) - cutoff, slope
        # the root of the log likelihood's slope in xi; a shape whose endpoint
        # falls below max(x) gives NaN, left of the optimum, so the first one
        # met cuts the bracket at the support
        warm[0], _, loglik, score = newton_root(
            lambda xi: [-v for v in _profile_terms(x, q, log_lam, xi)],
            XI_LO, XI_HI, warm[0], 1e-10)
        return fit.loglik - loglik - cutoff, -score

    flags: list[str] = []

    def end(side: int) -> float:
        inside = q_hat
        for k in range(EXPAND_STEPS):
            q = q_hat + side * step * 2.0 ** k
            if side < 0:
                q = max(q, q_hat * 2.0 ** -(k + 1))  # halve toward the threshold
            if over_cutoff(q)[0] > 0.0:  # rising away from the MLE on either side
                return newton_root(lambda s: [-side * v for v in over_cutoff(s)],
                                   *sorted((inside, q)), q, 1e-12)[0]
            inside = q
        flags.append("upper-unbounded" if side > 0 else "lower-unbounded")
        return np.inf if side > 0 else 0.0

    lower, upper = end(-1), end(+1)
    if flags:
        flags.insert(0, "profile-flat")
    return ProfileInterval(u + lower, u + upper, level, u + q_hat, flags)
