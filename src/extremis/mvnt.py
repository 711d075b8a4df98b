"""Multivariate normal and Student-t rectangle probabilities.

Separation-of-variables estimator: a permuted Cholesky factor (variables
reordered so the narrowest conditional intervals integrate first) turns the
rectangle probability into a sequential conditioning integral over the unit
cube, evaluated under a randomized Richtmyer lattice.  The Student variant
mixes a chi-square scale inside the same loop.  Estimates are deterministic
given the seed; the standard error comes from the random lattice shifts.

``mvn_cdf`` is exact, with zero reported error, when the covariance is one
factor, diag(delta) + c 11' with 0 < c <= 4 min(delta) (as every pivot term
of an exchangeable Huesler-Reiss model is): the orthant probability is then
the one-dimensional integral of phi(t) prod_i Phi(a_i - s_i t), s_i =
sqrt(c / delta_i) <= 2 (Dunnett & Sobel 1955; Genz & Bretz 2009, ch. 2),
taken by a Gauss-Hermite rule centred on the integrand's mode.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, gammaincinv, log_ndtr, logsumexp, ndtr, ndtri, stdtr

from ._optim import concave_mode
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
    """Convenience Phi_k(x; mu, sigma) with error estimate.

    Exact, with zero reported error, in one dimension and for a one-factor
    sigma (see ``_one_factor``); any other sigma takes the quasi-Monte Carlo
    estimate of ``mvn_rect``.
    """
    x = np.asarray(x, dtype=float).ravel()
    q = OrthantQuery(np.full(x.size, -np.inf), x, mu, sigma)
    factor = _one_factor(q.sigma)
    if factor is None:
        return mvn_rect(q, n_points, seed)
    c, delta = factor
    log_p = _one_factor_log_cdf((q.upper - q.mu) / np.sqrt(delta), np.sqrt(c / delta))
    return float(np.exp(log_p)), 0.0


def mvt_cdf(x, mu, sigma, df, n_points: int = 100_000, seed: int = 0):
    """Convenience St_k(x; mu, sigma, df) with error estimate."""
    x = np.asarray(x, dtype=float).ravel()
    q = OrthantQuery(np.full(x.size, -np.inf), x, mu, sigma, df=df)
    return mvt_rect(q, n_points, seed)


def _hermite_rule(n: int):
    """Nodes z_k and log weights of the n-point Gauss rule for the standard
    normal density, by Golub-Welsch: the nodes are the eigenvalues of the
    Jacobi matrix of the orthonormal Hermite polynomials p_j = He_j /
    sqrt(j!), polished by one Newton step on p_n, and the weights are the
    Christoffel numbers 1 / sum_(j<n) p_j(z_k)^2, accurate to a few ulps
    even where they are tiny."""
    off = np.sqrt(np.arange(1.0, n))
    z = np.linalg.eigvalsh(np.diag(off, -1))
    p = _orthonormal_hermite(z, n)
    z = z - p[n] / (np.sqrt(n) * p[n - 1])
    z = 0.5 * (z - z[::-1])
    return z, -np.log(np.sum(_orthonormal_hermite(z, n)[:n] ** 2, axis=0))


def _orthonormal_hermite(z, n):
    """(n + 1, z.size) values p_0..p_n at z by the three-term recurrence
    sqrt(j + 1) p_(j+1) = z p_j - sqrt(j) p_(j-1)."""
    p = np.empty((n + 1, z.size))
    p[0] = 1.0
    p[1] = z
    for j in range(1, n):
        p[j + 1] = (z * p[j] - np.sqrt(j) * p[j - 1]) / np.sqrt(j + 1.0)
    return p


# 80 nodes agree with 160 to about 1e-13 relative; tests/test_mvnt.py checks it
_RULE = _hermite_rule(80)


def _one_factor(sigma):
    """(c, delta) when ``sigma`` is diag(delta) + c 11' exactly, in two or
    more dimensions, with 0 < c <= 4 delta_i for every i; None otherwise.
    ``_RULE`` is good to a few ulps while every loading sqrt(c / delta_i) is
    at most 2; the factors Phi(a_i - s_i t) steepen as s_i grows, and at
    s_i = 3 the rule is off by up to 5e-7."""
    d = sigma.shape[0]
    if d < 2:
        return None
    off = sigma[~np.eye(d, dtype=bool)]
    c = off[0]
    delta = np.diag(sigma) - c
    if c > 0.0 and np.all(off == c) and np.all(delta >= 0.25 * c):
        return c, delta
    return None


def _mills(x):
    """phi(x) / Phi(x), at full precision far in the lower tail."""
    return np.sqrt(2.0 / np.pi) / erfcx(-x / np.sqrt(2.0))


def _one_factor_log_cdf(a, s, rule=_RULE):
    """log of int phi(t) prod_i Phi(a_i - s_i t) dt for s_i > 0.

    h(t) = -t^2/2 + sum_i log Phi(a_i - s_i t) is strictly concave, and its
    slope h'(t) = -t - sum_i s_i r(a_i - s_i t), r = phi/Phi, falls from
    above 0 at -sum_i s_i r(a_i) to at most 0 at t = 0; ``concave_mode``
    finds the mode t* in that bracket.  With sigma = (-h''(t*))^(-1/2) the
    integral is sigma times the normal expectation of exp(h(t* + sigma z) +
    z^2/2), which ``rule`` takes in log space; centring on the mode keeps
    far-tail probabilities exact to relative precision.
    """
    if np.any(a == -np.inf):
        return -np.inf
    finite = a != np.inf  # Phi(inf) = 1 drops out; NaN stays and gives NaN
    a, s = a[finite], s[finite]
    if a.size == 0:
        return 0.0

    def derivs(t):
        x = a - s * t
        r = _mills(x)
        return -t - s @ r, -1.0 - (s * s) @ (r * (x + r))

    t, curvature = concave_mode(derivs, -s @ _mills(a), 0.0, 0.0)
    sd = 1.0 / np.sqrt(-curvature)
    z, log_w = rule
    tk = t + sd * z
    h = -0.5 * tk * tk + log_ndtr(a[None, :] - tk[:, None] * s[None, :]).sum(axis=1)
    return float(np.log(sd) + logsumexp(log_w + 0.5 * z * z + h))
