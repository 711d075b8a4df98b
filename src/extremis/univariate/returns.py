"""Binomial-GPD return levels: closed form, covariate-averaged root, profile CI."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2

from .gpd import XI_ZERO, GpdParams, fit_gpd_mle, gpd_logpdf


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

    def cdf(self, z):
        return 1.0 - self.survival(z)


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
    ``mean_i survival_i(z) = p*`` by bracketing and bisection on the log
    scale.  The default target ``p* = 1/(m T)`` is the per-observation
    exceedance probability of a T-year level with m observations per year
    and reproduces :func:`return_level_closed` exactly when B = 1.  With
    ``annual_max=True`` the target instead solves
    ``[mean_i F_i(z)]^m = 1 - 1/T`` exactly.
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

    def h(z: float) -> float:
        s = mean_surv(z)
        return np.log(max(s, 1e-300)) - np.log(target)

    return float(brentq(h, lo, hi, xtol=tol))


@dataclass
class ProfileInterval:
    lower: float
    upper: float
    level: float
    estimate: float
    flags: list[str] = field(default_factory=list)


def _sigma_of(q_excess: float, xi: np.ndarray, lam: float) -> np.ndarray:
    """Scale implied by the return-level reparametrization q = u + sigma/xi (lam^xi - 1)."""
    xi = np.asarray(xi, dtype=float)
    small = np.abs(xi) < XI_ZERO
    denom = np.where(small, np.log(lam), np.expm1(xi * np.log(lam)) / np.where(small, 1.0, xi))
    return q_excess / denom


def profile_return_level_ci(exceedances, zeta_u: float, T: float, Ny: float,
                            level: float = 0.95, u: float = 0.0,
                            grid_size: int = 400) -> ProfileInterval:
    """Profile-likelihood confidence interval for the T-year return level.

    The GPD likelihood is reparametrized in (q, xi) with q the return level;
    xi is profiled out on a grid of q spanning the MLE +/- 8 standard
    errors (expanded adaptively), and the interval is the set where the
    deviance drop stays within the chi-square(1) cutoff.  A side whose
    cutoff is never bracketed is reported unbounded and flagged.
    """
    x = np.asarray(exceedances, dtype=float).ravel()
    fit = fit_gpd_mle(x)
    lam = Ny * T * zeta_u
    sigma_hat, xi_hat = fit.params.sigma, fit.params.xi
    q_hat = gpd_return_level(0.0, sigma_hat, xi_hat, lam)
    loglik_hat = fit.loglik
    cutoff = 0.5 * chi2.ppf(level, df=1)

    # delta-method SE of q to set the initial grid span
    if fit.cov is not None:
        eps = 1e-6
        g = np.array([(gpd_return_level(0.0, sigma_hat + a, xi_hat + b, lam)
                       - gpd_return_level(0.0, sigma_hat - a, xi_hat - b, lam))
                      / (2 * eps) for a, b in ((eps, 0.0), (0.0, eps))])
        se_q = float(np.sqrt(max(g @ fit.cov @ g, 1e-12)))
    else:
        se_q = 0.25 * q_hat

    xi_grid = np.linspace(XI_LO_GRID, XI_HI_GRID, 160)

    def profile_loglik(q_excess: np.ndarray) -> np.ndarray:
        # vectorized over the q grid and the xi grid: (Q, XI) tensor
        sig = _sigma_of(q_excess[:, None], xi_grid[None, :], lam)
        ll = np.full(sig.shape, -np.inf)
        valid = sig > 0.0
        chunk = 64
        for a in range(0, q_excess.size, chunk):
            b = min(a + chunk, q_excess.size)
            s = sig[a:b][:, :, None]
            xi = xi_grid[None, :, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                lp = gpd_logpdf(x[None, None, :], (s, np.broadcast_to(xi, s.shape)))
            ll[a:b] = np.where(valid[a:b], lp.sum(axis=2), -np.inf)
        return ll.max(axis=1)

    span = 8.0 * se_q
    flags: list[str] = []
    first = last = None
    for _ in range(8):
        lo_q = max(q_hat - span, 1e-9)
        qs = np.linspace(lo_q, q_hat + span, grid_size)
        dev = loglik_hat - profile_loglik(qs)
        inside = dev <= cutoff + 1e-9
        if not inside.any():
            span *= 2.0
            continue
        first = int(np.argmax(inside))
        last = int(len(qs) - 1 - np.argmax(inside[::-1]))
        hit_lower_floor = first == 0 and lo_q <= 1e-8
        need_expand = (first == 0 and not hit_lower_floor) or last == len(qs) - 1
        if not need_expand:
            break
        if span > 1e5 * max(se_q, 1.0):
            flags.append("profile-flat")
            break
        span *= 2.0
    if first is None:
        raise RuntimeError("profile likelihood never reached the cutoff")
    lower = _cross(qs, dev, cutoff, first, -1)
    upper = _cross(qs, dev, cutoff, last, +1)
    if first == 0 and "profile-flat" in flags:
        flags.append("lower-unbounded")
    if last == len(qs) - 1 and "profile-flat" in flags:
        upper = np.inf
        flags.append("upper-unbounded")
    return ProfileInterval(u + lower, u + upper, level, u + q_hat, flags)


XI_LO_GRID, XI_HI_GRID = -0.95, 3.5


def _cross(qs: np.ndarray, dev: np.ndarray, cutoff: float, idx: int, direction: int) -> float:
    """Linear interpolation of the deviance/cutoff crossing next to ``idx``."""
    j = idx - 1 if direction < 0 else idx + 1
    if j < 0 or j >= len(qs) or not np.isfinite(dev[j]):
        return float(qs[idx])
    d0, d1 = dev[idx], dev[j]
    if not np.isfinite(d0) or d1 == d0:
        return float(qs[idx])
    w = (cutoff - d0) / (d1 - d0)
    w = float(np.clip(w, 0.0, 1.0))
    return float(qs[idx] + w * (qs[j] - qs[idx]))
