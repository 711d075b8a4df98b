"""The one optimizer of every fit, a projected trust-region Newton on analytic
derivatives, the mode finder of the 1-D quadratures, and the covariance from an
observed information; the tests' ``numeric_hessian`` has no library caller."""
from __future__ import annotations

import numpy as np

NEWTON_GTOL = 1e-8  # free-gradient norm at which the Newton run stops
NEWTON_ITER = 200
# Newton decrement g' H^-1 g (about twice the distance to the minimum),
# relative to max(1, |nll|), below which a run whose model predicts no
# float-resolvable improvement counts as converged
NEWTON_DECREMENT = 1e-12
_EPS = np.finfo(float).eps


def minimize_nll(nll, x0, derivs, bounds=None):
    """Minimize a negative log likelihood by projected trust-region Newton.

    ``nll`` may return +inf outside its domain; ``derivs`` maps x to the
    gradient and Hessian of ``nll``; ``bounds`` lists (low, high) pairs,
    None for an open side.  Returns (x, value, converged).

    Each iteration holds the coordinates that sit on a bound with the
    gradient pointing out of the box (Bertsekas 1982), solves a
    trust-region subproblem exactly in the others (:func:`_trust_step`),
    and clips the trial point into the box; the predicted decrease is that
    of the clipped step.  A trial point where ``nll`` is +inf or ``derivs``
    is not finite only shrinks the region.  The run converged when the free
    gradient norm is at most NEWTON_GTOL, or when the model predicts no
    float-resolvable decrease where the free Hessian is positive definite
    and the Newton decrement is at most NEWTON_DECREMENT max(1, |nll|).
    """
    k = np.size(x0)
    lo, hi = np.array([(-np.inf if low is None else low, np.inf if high is None else high)
                       for low, high in bounds or [(None, None)] * k], dtype=float).T
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = nll(x)
    g, hess = derivs(x) if np.isfinite(f) else (np.nan, np.nan)
    radius = 1.0
    for _ in range(NEWTON_ITER):
        if not (np.isfinite(g).all() and np.isfinite(hess).all()):
            break
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        g_free = g[free]
        if np.linalg.norm(g_free) <= NEWTON_GTOL:
            return x, float(f), True
        w, V = np.linalg.eigh(hess[np.ix_(free, free)])
        a = V.T @ g_free
        step = np.zeros(k)
        step[free] = V @ _trust_step(a, w, radius)
        s = np.clip(x + step, lo, hi) - x
        predicted = -(g @ s + 0.5 * s @ hess @ s)
        scale = max(1.0, abs(f))
        if predicted <= _EPS * scale:
            if w[0] > 0.0 and a @ (a / w) <= NEWTON_DECREMENT * scale:
                # converged; the last step, whose gain nll cannot resolve,
                # still moves x nearer the optimum
                f_new = nll(x + s)
                return (x + s, float(f_new), True) if f_new <= f else (x, float(f), True)
            radius *= 0.25
            continue
        f_new = nll(x + s)
        if np.isfinite(f_new) and f - f_new > 0.15 * predicted:
            g_new, hess_new = derivs(x + s)
            if np.isfinite(g_new).all() and np.isfinite(hess_new).all():
                if f - f_new > 0.75 * predicted and np.linalg.norm(step) > 0.99 * radius:
                    radius *= 2.0
                x, f, g, hess = x + s, f_new, g_new, hess_new
                continue
        radius *= 0.25
    return x, float(f), False


def _trust_step(a, w, radius):
    """argmin of a'p + p' diag(|w|) p / 2 over |p| <= radius, in the
    Hessian's eigenbasis with eigenvalues ``w``.

    Taking |w| (Greenstadt 1967) makes the model convex, so a direction of
    negative curvature gets a Newton-sized descent step rather than one to
    the edge of the region, which on the HT likelihoods can carry the run
    into a worse local optimum.  p(lam) = -a / (|w| + lam), with lam = 0
    for an interior minimum and otherwise the root of 1/|p(lam)| = 1/radius
    in (0, |a| / radius], by Newton steps safeguarded by bisection (Moré &
    Sorensen 1983).
    """
    w = np.abs(w)
    if w.min() > 0.0:
        p = -a / w
        if p @ p <= radius * radius:
            return p
    lo, hi = 0.0, np.linalg.norm(a) / radius
    lam = hi
    while hi - lo > _EPS * hi:
        d = w + lam
        p = -a / d
        norm = np.linalg.norm(p)
        if abs(norm - radius) <= 1e-10 * radius:
            return p
        lo, hi = (lo, lam) if norm < radius else (lam, hi)
        lam += (norm / radius - 1.0) * norm * norm / np.sum(p * p / d)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
    return -a / (w + hi)


def concave_mode(derivs, lo, hi, t):
    """The mode t of a strictly concave function whose slope is >= 0 at
    ``lo`` and <= 0 at ``hi``, and the curvature there, by Newton steps from
    ``t`` on ``derivs``: t -> (slope, curvature); each narrows the bracket,
    and one that leaves it is replaced by a bisection."""
    for _ in range(100):  # Newton takes about a dozen steps; bisection, 60
        slope, curvature = derivs(t)
        lo, hi = (t, hi) if slope > 0.0 else (lo, t)
        step = t - slope / curvature
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if abs(step - t) <= 1e-14 * (1.0 + abs(t)):
            break
        t = step
    return t, curvature


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
