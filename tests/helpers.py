"""Shared test oracles: generator-draw Monte Carlo for the tail measures,
the power-set sums of the logistic families' pivot weights, an energy
two-sample statistic, a derivative-free minimizer and a finite-difference
gradient, and small simulation utilities."""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import gamma as gammafun

from extremis.core import derive_rng
from extremis.mgpd import ExtremalStudent, HuslerReiss, Logistic, NegLogistic


def generator_draws(model, d: int, n: int, rng) -> np.ndarray:
    """Draws of the family's generator vector (each margin has unit mean)."""
    if isinstance(model, Logistic):
        c = 1.0 / gammafun(1.0 - 1.0 / model.beta)
        return c * rng.exponential(size=(n, d)) ** (-1.0 / model.beta)
    if isinstance(model, NegLogistic):
        c = 1.0 / gammafun(1.0 + 1.0 / model.theta)
        return c * rng.exponential(size=(n, d)) ** (1.0 / model.theta)
    if isinstance(model, HuslerReiss):
        g = model.gamma
        anchor = d - 1
        cov = np.empty((d, d))
        for i in range(d):
            for k in range(d):
                cov[i, k] = g[i, anchor] + g[k, anchor] - g[i, k]
        chol = np.linalg.cholesky(cov + 1e-12 * np.eye(d))
        z = rng.standard_normal((n, d)) @ chol.T
        return np.exp(z - 0.5 * np.diag(cov))
    if isinstance(model, ExtremalStudent):
        nu = model.nu
        c = np.sqrt(np.pi) * 2.0 ** (-(nu - 2.0) / 2.0) / gammafun((nu + 1.0) / 2.0)
        chol = np.linalg.cholesky(model.sigma + 1e-12 * np.eye(d))
        z = rng.standard_normal((n, d)) @ chol.T
        return c * np.maximum(z, 0.0) ** nu
    raise TypeError(type(model).__name__)


def mc_intensity(model, u, n: int, seed: int, kind: str = "min",
                 batch: int = 2_000_000):
    """Monte Carlo estimate of Xi(u) (kind='min') or V(u) (kind='max').

    Averages min_j Y_j/u_j (or max) over generator draws; returns the
    estimate and its standard error.
    """
    u = np.asarray(u, dtype=float)
    rng = derive_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(batch, n - done)
        y = generator_draws(model, u.size, m, rng)
        v = (y / u).min(axis=1) if kind == "min" else (y / u).max(axis=1)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        done += m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, np.sqrt(var / n)


def subset_sums(a: np.ndarray):
    """All 2^len(a) subset sums of ``a`` with the subset sizes, by
    iterative doubling."""
    sums = np.zeros(1)
    sizes = np.zeros(1, dtype=np.int64)
    for v in a:
        sums = np.concatenate([sums, sums + v])
        sizes = np.concatenate([sizes, sizes + 1])
    return sums, sizes


def power_set_head_sum(a: np.ndarray, q: float) -> tuple[float, float]:
    """sum over the subsets S of ``a`` of (-1)^|S| (1 + sum_S a)^(-q), the
    head mass of an iid family's pivot by inclusion-exclusion, summed
    exactly (math.fsum) over the rounded terms; also the sum of the terms'
    magnitudes, which bounds the cancellation the rounding can leave."""
    sums, sizes = subset_sums(a)
    terms = np.where(sizes % 2 == 0, 1.0, -1.0) * (1.0 + sums) ** -q
    return math.fsum(terms), math.fsum(np.abs(terms))


def logistic_xi_equal(d: int, beta: float, u: float) -> float:
    """Logistic Xi at d equal thresholds u: the power set grouped by subset
    size, (d/u) sum_k C(d-1, k) (-1)^k (1 + k)^(1/beta - 1)."""
    return d / u * math.fsum((-1) ** k * math.comb(d - 1, k) * (1.0 + k) ** (1.0 / beta - 1.0)
                             for k in range(d))


def energy_two_sample_pvalue(x, y, n_perm: int, rng) -> float:
    """Permutation p-value of the Szekely-Rizzo energy two-sample statistic."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    z = np.vstack([x, y])
    n, m = x.shape[0], y.shape[0]
    dist = np.sqrt(np.maximum(
        ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2), 0.0))

    def stat(idx_x, idx_y):
        dxy = dist[np.ix_(idx_x, idx_y)].mean()
        dxx = dist[np.ix_(idx_x, idx_x)].mean()
        dyy = dist[np.ix_(idx_y, idx_y)].mean()
        return 2.0 * dxy - dxx - dyy

    labels = np.arange(n + m)
    observed = stat(labels[:n], labels[n:])
    hits = 1
    for _ in range(n_perm):
        perm = rng.permutation(n + m)
        if stat(perm[:n], perm[n:]) >= observed:
            hits += 1
    return hits / (n_perm + 1)


def derivative_free_minimum(nll, x0, bounds=None):
    """(x, value, converged) of Nelder-Mead from ``x0``, then an L-BFGS-B
    polish within ``bounds`` when it lowers the value: a reference for the
    fits' Newton runs that uses no derivatives.  Nelder-Mead ignores
    ``bounds``; a caller's ``nll`` is +inf outside its domain."""
    res = minimize(nll, np.asarray(x0, dtype=float), method="Nelder-Mead",
                   options={"maxiter": 10_000, "maxfev": 20_000, "xatol": 1e-8,
                            "fatol": 1e-10})
    x, val, ok = res.x, res.fun, res.success
    with warnings.catch_warnings():
        # infinite values outside the domain trip the finite-difference
        # gradient; the polish copes
        warnings.simplefilter("ignore", RuntimeWarning)
        res2 = minimize(nll, x, method="L-BFGS-B", bounds=bounds,
                        options={"maxiter": 1000})
    if np.isfinite(res2.fun) and res2.fun <= val:
        x, val, ok = res2.x, res2.fun, ok or res2.success
    return np.asarray(x, dtype=float), float(val), bool(ok)


def bounded_scalar_minimum(nll, low: float, high: float):
    """(x, value) of scipy's bounded Brent search for the minimum of a
    scalar ``nll`` on [low, high]: a derivative-free reference for the
    one-parameter Newton fits."""
    res = minimize_scalar(nll, bounds=(low, high), method="bounded",
                          options={"xatol": 1e-10, "maxiter": 500})
    assert res.success
    return float(res.x), float(res.fun)


def numeric_gradient(f, x, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(np.abs(x), 1.0)
    g = np.empty(x.size)
    for i in range(x.size):
        ei = np.zeros(x.size)
        ei[i] = h[i]
        g[i] = (f(x + ei) - f(x - ei)) / (2.0 * h[i])
    return g
