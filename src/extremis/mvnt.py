"""Multivariate normal and Student-t rectangle probabilities.

Separation-of-variables estimator: a permuted Cholesky factor (variables
reordered so the narrowest conditional intervals integrate first) turns the
rectangle probability into a sequential conditioning integral over the unit
cube, evaluated under a randomized Richtmyer lattice.  The Student variant
mixes a chi-square scale inside the same loop.  Estimates are deterministic
given the seed; the standard error comes from the random lattice shifts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtr, ndtri, stdtr

from .core import derive_rng

_JITTER = 1e-10
_N_BATCHES = 12
# first 100 primes for the Richtmyer generator
_PRIMES = np.array([p for p in range(2, 600)
                    if all(p % q for q in range(2, int(p ** 0.5) + 1))][:100])


@dataclass(frozen=True)
class OrthantQuery:
    """Rectangle query for a (possibly Student) Gaussian vector.

    Bounds may be infinite; ``df`` switches to the Student law.
    """

    lower: np.ndarray
    upper: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    df: float | None = None

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        mu = np.asarray(self.mu, dtype=float).ravel()
        sg = np.asarray(self.sigma, dtype=float)
        d = lo.size
        if not (hi.size == d and mu.size == d and sg.shape == (d, d)):
            raise ValueError("inconsistent query dimensions")
        if np.any(lo >= hi):
            raise ValueError("lower bounds must be below upper bounds")
        if self.df is not None and self.df <= 0.0:
            raise ValueError("df must be positive")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", 0.5 * (sg + sg.T))

    @property
    def dim(self) -> int:
        return self.lower.size


def _phi(x):
    return ndtr(x)


def _phinv(p):
    return ndtri(np.clip(p, 1e-300, 1.0 - 1e-16))


def _permuted_cholesky(sigma, lo, hi):
    """Scaled, reordered Cholesky factor with transformed bounds.

    Variables with the smallest conditional interval probability integrate
    first (outermost), which concentrates the integrand variance in the
    trailing coordinates where the lattice is most effective.
    """
    d = lo.size
    scale = np.sqrt(np.maximum(np.diag(sigma), _JITTER))
    c = sigma / np.outer(scale, scale) + _JITTER * np.eye(d)
    a = lo / scale
    b = hi / scale
    L = np.zeros((d, d))
    y = np.zeros(d)
    order = np.arange(d)
    for i in range(d):
        # pick the remaining variable with the narrowest conditional interval
        best, best_p = i, np.inf
        for j in range(i, d):
            denom = c[j, j] - L[j, :i] @ L[j, :i]
            if denom <= 0.0:
                p = 0.0
            else:
                s = L[j, :i] @ y[:i]
                sd = np.sqrt(denom)
                p = _phi((b[j] - s) / sd) - _phi((a[j] - s) / sd)
            if p < best_p:
                best, best_p = j, p
        for arr in (a, b):
            arr[[i, best]] = arr[[best, i]]
        c[[i, best]] = c[[best, i]]
        c[:, [i, best]] = c[:, [best, i]]
        L[[i, best], :] = L[[best, i], :]
        order[[i, best]] = order[[best, i]]

        denom = c[i, i] - L[i, :i] @ L[i, :i]
        L[i, i] = np.sqrt(max(denom, _JITTER))
        for j in range(i + 1, d):
            L[j, i] = (c[j, i] - L[j, :i] @ L[i, :i]) / L[i, i]
        s = L[i, :i] @ y[:i]
        ai, bi = (a[i] - s) / L[i, i], (b[i] - s) / L[i, i]
        pa, pb = _phi(ai), _phi(bi)
        width = max(pb - pa, 1e-300)
        # conditional mean of the truncated coordinate
        y[i] = (np.exp(-0.5 * ai * ai) - np.exp(-0.5 * bi * bi)) / (np.sqrt(2 * np.pi) * width)
    return L, a, b


def _sov_batches(L, a, b, n_points, seed, df=None):
    d = L.shape[0]
    rng = derive_rng(seed)
    n_per = max(n_points // _N_BATCHES, 8)
    extra = 1 if df is not None else 0
    q = np.sqrt(_PRIMES[: d + extra - 1]) if d + extra > 1 else np.empty(0)
    k = np.arange(1, n_per + 1)[:, None]
    estimates = np.empty(_N_BATCHES)
    for batch in range(_N_BATCHES):
        shift = rng.random(max(d + extra - 1, 1))
        z = np.abs(2.0 * ((k * q[None, :] + shift[: d + extra - 1]) % 1.0) - 1.0)
        col = 0
        if df is not None:
            w = 2.0 * gammaincinv(0.5 * df, np.clip(z[:, col], 1e-15, 1 - 1e-15))
            r = np.sqrt(w / df)
            col += 1
        else:
            r = np.ones(n_per)
        lo0, hi0 = a[0] * r, b[0] * r
        cvals = _phi(lo0)
        dvals = _phi(hi0)
        pv = dvals - cvals
        ysum = np.zeros((n_per, d))
        for i in range(1, d):
            u = z[:, col]
            col += 1
            yi = _phinv(cvals + u * (dvals - cvals))
            ysum[:, i:] += np.outer(yi, L[i:, i - 1])
            s = ysum[:, i]
            cvals = _phi((a[i] * r - s) / L[i, i])
            dvals = _phi((b[i] * r - s) / L[i, i])
            pv = pv * np.maximum(dvals - cvals, 0.0)
        estimates[batch] = pv.mean()
    prob = float(estimates.mean())
    se = float(estimates.std(ddof=1) / np.sqrt(_N_BATCHES))
    return prob, se


def _rect(q: OrthantQuery, n_points: int, seed: int):
    """Rectangle probability under the query's Gaussian or Student law."""
    if q.dim > 100:
        raise ValueError("dimension capped at 100")
    lo = q.lower - q.mu
    hi = q.upper - q.mu
    if q.dim == 1:
        sd = np.sqrt(max(q.sigma[0, 0], _JITTER))
        cdf = _phi if q.df is None else (lambda x: stdtr(q.df, x))
        return float(cdf(hi[0] / sd) - cdf(lo[0] / sd)), 0.0
    L, a, b = _permuted_cholesky(q.sigma.copy(), lo.copy(), hi.copy())
    return _sov_batches(L, a, b, n_points, seed, df=q.df)


def mvn_rect(q: OrthantQuery, n_points: int = 100_000, seed: int = 0):
    """Gaussian rectangle probability and standard error.

    Deterministic given the seed.  One-dimensional queries are exact with
    zero reported error.
    """
    if q.df is not None:
        raise ValueError("query carries df; use mvt_rect")
    return _rect(q, n_points, seed)


def mvt_rect(q: OrthantQuery, n_points: int = 100_000, seed: int = 0):
    """Student rectangle probability via the chi-square scale mixture."""
    if q.df is None:
        raise ValueError("query lacks df; use mvn_rect")
    return _rect(q, n_points, seed)


def mvn_cdf(x, mu, sigma, n_points: int = 100_000, seed: int = 0):
    """Convenience Phi_k(x; mu, sigma) with error estimate."""
    x = np.asarray(x, dtype=float).ravel()
    q = OrthantQuery(np.full(x.size, -np.inf), x, mu, sigma)
    return mvn_rect(q, n_points, seed)


def mvt_cdf(x, mu, sigma, df, n_points: int = 100_000, seed: int = 0):
    """Convenience St_k(x; mu, sigma, df) with error estimate."""
    x = np.asarray(x, dtype=float).ravel()
    q = OrthantQuery(np.full(x.size, -np.inf), x, mu, sigma, df=df)
    return mvt_rect(q, n_points, seed)
