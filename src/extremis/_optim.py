"""Shared optimization helpers: trust-region Newton with analytic derivatives,
simplex start with quasi-Newton polish, numeric Hessian."""
from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize

ITER_BUDGET = 10_000
NEWTON_GTOL = 1e-8  # gradient norm at which the Newton run stops
NEWTON_ITER = 200
# Newton decrement g' H^-1 g (about twice the distance to the minimum),
# relative to max(1, |nll|), below which a run that stopped because its
# model predicted no float-resolvable improvement counts as converged
NEWTON_DECREMENT = 1e-12


def minimize_nll(nll, x0, bounds=None, polish: bool = True, derivs=None,
                 flags: list[str] | None = None):
    """Minimize a negative log likelihood.

    ``nll`` may return +inf outside its domain.  Returns (x, value,
    converged).

    With ``derivs``, a callable x -> (gradient, Hessian) of ``nll``, a
    trust-region Newton run (scipy's ``trust-krylov``) starts at ``x0``; a
    trial point where ``nll`` is +inf only shrinks the trust region.  If
    that run fails to converge to a finite value, the derivative-free path
    below continues from its best point and ``"newton-fallback"`` is
    appended to ``flags``.

    Without ``derivs``: Nelder-Mead, then an L-BFGS-B polish within
    ``bounds``.  Derivative-free refinement first avoids hand-coded
    gradients near non-smooth regions; the polish sharpens the optimum when
    the surface is smooth there.
    """
    x0 = np.asarray(x0, dtype=float)
    if derivs is not None:
        x, val, ok = _trust_newton(nll, x0, derivs)
        if ok:
            return x, val, True
        if flags is not None:
            flags.append("newton-fallback")
        if np.isfinite(val):
            x0 = x
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


def _trust_newton(nll, x0, derivs):
    """(x, value, converged) of a trust-krylov run from a finite start.

    The gradient and Hessian at one point come from one ``derivs`` call.
    The run converged when it ends at a finite value with a finite
    gradient, and either met NEWTON_GTOL or stopped because its quadratic
    model predicted no improvement (scipy's status 2, which happens once
    the predicted decrease drops below the float resolution of ``nll``)
    where the Hessian is positive definite and the Newton decrement is
    below NEWTON_DECREMENT.
    """
    if not np.isfinite(nll(x0)):
        return x0, np.inf, False
    last = [None, None]

    def at(x):
        if last[0] is None or not np.array_equal(last[0], x):
            last[0], last[1] = np.array(x), derivs(x)
        return last[1]

    try:
        res = minimize(nll, x0, method="trust-krylov",
                       jac=lambda x: at(x)[0], hess=lambda x: at(x)[1],
                       options={"gtol": NEWTON_GTOL, "maxiter": NEWTON_ITER})
    except (ValueError, FloatingPointError, np.linalg.LinAlgError):
        return x0, np.inf, False
    x, val = np.asarray(res.x, dtype=float), float(res.fun)
    if not np.isfinite(val):
        return x, val, False
    grad, hess = at(x)
    ok = bool(np.isfinite(grad).all()) and res.status in (0, 2)
    if ok and res.status == 2:
        try:
            step = np.linalg.solve(np.linalg.cholesky(hess), grad)
            ok = bool(step @ step <= NEWTON_DECREMENT * max(1.0, abs(val)))
        except np.linalg.LinAlgError:
            ok = False
    return x, val, ok


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
