"""Shared test oracles: generator-draw Monte Carlo for the tail measures,
the power-set sums of the logistic families' pivot weights, the two-level
estimator's per-assignment loop, an energy two-sample statistic, a
derivative-free minimizer and a finite-difference gradient, the dense
form of the partial-exchangeability test, the two-branch GPD quantile, the
check-loss simplex with a full sort in its ratio test, and small
simulation utilities."""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import chdtrc
from scipy.special import gamma as gammafun
from scipy.special import logsumexp

from extremis.condex import HtProbability, _level_sets, _log_tail, _shared_dependence
from extremis.core import derive_rng, label_assignments
from extremis.mgpd import ExtremalStudent, HuslerReiss, Logistic, NegLogistic
from extremis.univariate import ald
from extremis.univariate.gpd import XI_ZERO
from extremis.validate import (ExchTestResult, _orbit_average, _structure_matrix,
                               stack_pairs, tau_jackknife)


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


def two_level_loop(params, groups, s1: float, s2: float, exchangeable: bool = True,
                   paper_literal: bool = False, seed: int = 0) -> HtProbability:
    """``condex.ht_prob_two_level`` for s1 > s2 and a non-empty first group,
    one assignment at a time.  A row's conditioner must lie above s1 and in
    each entry's set [a, b] u [d, inf) at its group's level, so the pieces
    it must avoid are [s1, a) for every entry and each gap (b, d).  Their
    union is built explicitly: the pieces [s1, a) share their start, and the
    gaps are sorted by b and merged by a running maximum of d.  The masses
    e^-(y - s1) of the stretches left over are summed by one log-sum-exp
    per assignment, and the assignments' log means averaged by another."""
    d = params.dim
    assignments, flags = label_assignments(d, np.asarray(sorted(groups[1]), dtype=int),
                                           exchangeable, seed)
    alpha, beta = _shared_dependence(params)
    pool = params.residual_pool
    filled = ~np.isnan(pool)
    (a1, b1, d1), (a2, b2, d2) = tables = np.full((2, 3) + pool.shape, np.nan)
    for table, s in zip(tables, (s1, s2)):
        table[:, filled] = _level_sets(pool[filled], alpha, beta, s)
    # a gap (b, d) is a piece only where b < d: the others become
    # (-inf, -inf), which sort first and cover nothing
    piece1, piece2 = b1 < d1, b2 < d2
    cols = (piece1 | piece2).any(axis=0)
    gaps1 = [np.where(piece1, e, -np.inf)[:, cols] for e in (b1, d1)]
    gaps2 = [np.where(piece2, e, -np.inf)[:, cols] for e in (b2, d2)]
    tail = -s1 if paper_literal else _log_tail(s1)
    log_probs = []
    for cols2 in assignments:
        in2 = np.zeros(d, dtype=bool)
        in2[cols2] = True
        rows = ~in2[params.pool_cond]
        if not rows.any():
            continue
        start = np.fmax(np.fmax.reduce(np.where(in2, a2[rows], a1[rows]), axis=1), s1)
        b, end = (np.where(in2[cols], e2[rows], e1[rows]) for e1, e2 in zip(gaps1, gaps2))
        order = np.argsort(b, axis=1)
        covered = np.maximum.accumulate(
            np.column_stack([start, np.take_along_axis(end, order, axis=1)]), axis=1)
        # stretch k runs from the end of the first k pieces' union to the
        # start of piece k + 1, and the last one on to +inf
        upto = np.column_stack([np.take_along_axis(b, order, axis=1),
                                np.full(start.size, np.inf)])
        with np.errstate(invalid="ignore", divide="ignore"):
            log_mass = np.where(upto > covered,
                                s1 - covered + np.log(-np.expm1(covered - upto)), -np.inf)
        log_probs.append(float(logsumexp(log_mass) - np.log(start.size) + tail))
    if not log_probs:
        return HtProbability(-np.inf, 0, 0, flags + ["all-contributions-zero"])
    log_prob = float(logsumexp(np.asarray(log_probs)) - np.log(len(log_probs)))
    flags2 = flags + (["all-contributions-zero"] if np.isneginf(log_prob) else [])
    return HtProbability(log_prob, len(log_probs), 0, flags2)


def exch_test_dense(Y, clusters, n_mc: int = 2000, seed: int = 0,
                    jackknife=None) -> ExchTestResult:
    """``validate.exch_test`` in the original basis: the dense projector
    P = I - B pinv(B), three matrix powers of S, and four (n_mc, p) x (p, p)
    products on the same draws.  It has no ``no-null-variance`` flag: where
    S's variance lies inside span(B) its p-values are whatever rounding
    makes them."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    pairs = stack_pairs(d)
    tau, pseudo = tau_jackknife(Y) if jackknife is None else jackknife
    resid = pseudo - pseudo.mean(axis=0)
    S = _orbit_average((n - 1) / n * (resid.T @ resid), clusters, pairs)
    flags = []
    B = _structure_matrix(clusters, pairs)
    L = B.shape[1]
    P = np.eye(len(pairs)) - B @ np.linalg.pinv(B)
    Pt = P @ tau
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    bad = vals <= 1e-12 * max(vals.max(), 1e-300)
    if bad.any():
        flags.append("sigma-singular")
    magnitude = np.where(bad, 1.0, np.abs(vals))

    def power(q: float) -> np.ndarray:
        return (vecs * np.where(bad, 0.0, magnitude ** q)) @ vecs.T

    inv_sqrt = power(-0.5)
    inv_full = power(-1.0)
    e_n = float(np.linalg.norm(inv_sqrt @ Pt, 2))
    m_n = float(np.linalg.norm(inv_full @ Pt, np.inf))
    z = derive_rng(seed).standard_normal((n_mc, len(pairs))) @ power(0.5).T
    pz = z @ P.T
    e_null = np.linalg.norm(pz @ inv_sqrt.T, 2, axis=1)
    m_null = np.max(np.abs(pz @ inv_full.T), axis=1)
    p_e = float((1 + np.sum(e_null >= e_n)) / (n_mc + 1))
    p_m = float((1 + np.sum(m_null >= m_n)) / (n_mc + 1))
    df = len(pairs) - L
    if df > 0:
        p_chi = float(chdtrc(df, e_n ** 2))
    else:
        flags.append("no-degrees-of-freedom")
        p_e = p_m = p_chi = math.nan
    return ExchTestResult(e_n, m_n, p_e, p_m, p_chi, L, df, flags)


def energy_two_sample_pvalue(x, y, n_perm: int, rng) -> float:
    """Permutation p-value of the Szekely-Rizzo energy two-sample statistic.

    Column k of the membership matrix S marks the first sample's rows under
    labelling k (the observed one, then ``n_perm`` draws of
    ``rng.permutation``), so one product D S gives every labelling's
    within- and between-sample distance sums: xx = s'Ds,
    xy = s'D(1 - s) = s'D1 - xx and yy = (1 - s)'D(1 - s) = 1'D1 - 2 s'D1 + xx.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    z = np.vstack([x, y])
    n, m = x.shape[0], y.shape[0]
    dist = np.sqrt(np.maximum(
        ((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2), 0.0))
    S = np.zeros((n + m, n_perm + 1))
    S[:n, 0] = 1.0
    for k in range(1, n_perm + 1):
        S[rng.permutation(n + m)[:n], k] = 1.0
    row = dist.sum(axis=1)
    xx = np.einsum("ik,ik->k", S, dist @ S)
    xd = row @ S
    stat = (2.0 * (xd - xx) / (n * m) - xx / n ** 2
            - (row.sum() - 2.0 * xd + xx) / m ** 2)
    return (1 + int(np.sum(stat[1:] >= stat[0]))) / (n_perm + 1)


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


def gpd_quantile_where(q, sigma, xi):
    """The GPD quantile as two whole branches joined by ``np.where``: the
    exponential limit sigma ell and sigma expm1(xi ell) / xi, with
    ell = -log1p(-q), the limit taken where |xi| < XI_ZERO."""
    sigma, xi, q = (np.asarray(v, dtype=float) for v in (sigma, xi, q))
    ell = -np.log1p(-q)
    small = np.abs(xi) < XI_ZERO
    return np.where(small, sigma * ell,
                    sigma * np.expm1(np.where(small, 0.0, xi) * ell)
                    / np.where(small, 1.0, xi))


def simplex_full_sort(D, y, tau: float, h: np.ndarray):
    """``ald._simplex`` with a full stable sort of every candidate kink in
    its ratio test."""
    k = D.shape[1]
    absD = np.abs(D)
    colsum, rowsum = absD.sum(axis=0), absD.sum(axis=1)
    h = np.array(h)
    side = None
    for _ in range(ald.PIVOT_CAP):
        Dh = D[h]
        Z = np.linalg.inv(Dh)
        beta = np.linalg.solve(Dh, y[h])
        r = y - D @ beta
        r[np.abs(r) <= ald.ZERO_TOL * (np.abs(y) + rowsum * np.abs(beta).max())] = 0.0
        if side is None:
            side = np.where(r >= 0.0, 1.0, -1.0)
        psi = np.where(side > 0.0, tau, tau - 1.0)
        psi[h] = 0.0
        s = (psi @ D) @ Z
        g = np.concatenate([1.0 - tau - s, tau + s])
        descent = g < -ald.DESCENT_TOL * np.tile(colsum @ np.abs(Z) + 1.0, 2)
        if not descent.any():
            return h, True
        e = int(np.argmin(g))
        j, sign = e % k, (1.0 if e < k else -1.0)
        a = sign * (D @ Z[:, j])
        a[np.abs(a) <= ald.ZERO_TOL * rowsum * np.abs(Z[:, j]).max()] = 0.0
        a[h] = 0.0
        cand = np.flatnonzero(side * a > 0.0)
        if cand.size == 0:
            return h, True
        t = np.maximum(r[cand] / a[cand], 0.0)
        order = np.argsort(t, kind="stable")
        slope = g[e] + np.cumsum(np.abs(a[cand[order]]))
        m = min(int(np.searchsorted(slope >= 0.0, True)), cand.size - 1)
        side[cand[order[:m]]] *= -1.0
        side[h[j]] = -sign
        h[j] = cand[order[m]]
    return h, False
