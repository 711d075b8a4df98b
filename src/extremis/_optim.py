"""Shared optimization helpers: simplex start, quasi-Newton polish, numeric Hessian."""
from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize

ITER_BUDGET = 10_000


def minimize_nll(nll, x0, bounds=None, polish: bool = True):
    """Minimize a negative log likelihood: Nelder-Mead then L-BFGS-B polish.

    ``nll`` may return +inf outside its domain.  Returns (x, value,
    converged).  Derivative-free refinement first avoids hand-coded
    gradients near non-smooth regions; the polish sharpens the optimum when
    the surface is smooth there.
    """
    x0 = np.asarray(x0, dtype=float)
    res = minimize(nll, x0, method="Nelder-Mead",
                   options={"maxiter": ITER_BUDGET, "xatol": 1e-8,
                            "fatol": 1e-10, "maxfev": 2 * ITER_BUDGET})
    x, val, ok = res.x, res.fun, res.success
    if polish:
        try:
            with warnings.catch_warnings():
                # infinite nll values outside the domain trip the
                # finite-difference gradient; the polish copes
                warnings.simplefilter("ignore", RuntimeWarning)
                res2 = minimize(nll, x, method="L-BFGS-B", bounds=bounds,
                                options={"maxiter": 1000})
            if np.isfinite(res2.fun) and res2.fun <= val:
                x, val = res2.x, res2.fun
                ok = ok or res2.success
        except (ValueError, FloatingPointError):
            pass
    return np.asarray(x, dtype=float), float(val), bool(ok)


def numeric_hessian(f, x, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = rel_step * np.maximum(np.abs(x), 1.0)
    hess = np.empty((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        fpp = f(x + ei)
        fmm = f(x - ei)
        hess[i, i] = (fpp - 2.0 * f0 + fmm) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            fpq = f(x + ei + ej)
            fpm = f(x + ei - ej)
            fmp = f(x - ei + ej)
            fmq = f(x - ei - ej)
            hess[i, j] = hess[j, i] = (fpq - fpm - fmp + fmq) / (4.0 * h[i] * h[j])
    return hess


def covariance_from_hessian(hess: np.ndarray, flags: list[str]) -> np.ndarray | None:
    """Invert an observed-information matrix, reporting degeneracy."""
    hess = 0.5 * (hess + hess.T)
    if not np.all(np.isfinite(hess)):
        flags.append("hessian-nonfinite")
        return None
    try:
        eigvals = np.linalg.eigvalsh(hess)
    except np.linalg.LinAlgError:
        flags.append("hessian-degenerate")
        return None
    if eigvals.min() <= 1e-12 * max(eigvals.max(), 1.0):
        flags.append("hessian-degenerate")
        return None
    return np.linalg.inv(hess)


def numeric_gradient(f, x, rel_step: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(np.abs(x), 1.0)
    g = np.empty(x.size)
    for i in range(x.size):
        ei = np.zeros(x.size)
        ei[i] = h[i]
        g[i] = (f(x + ei) - f(x - ei)) / (2.0 * h[i])
    return g
