"""Asymmetric Laplace likelihood for covariate-dependent threshold estimation.

The location MLE of the asymmetric Laplace coincides with the check-loss
(quantile regression) minimizer, so the fitted linear predictor is a
covariate-dependent quantile estimate usable as a threshold.  The minimizer
is found exactly, by simplex descent over the vertices where k observations
are fitted exactly (Barrodale & Roberts 1974; Koenker & d'Orey 1987).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gpd import _linear_predictors

PIVOT_CAP = 5000  # simplex pivots before the fit stops, flagged ald-pivot-cap
# an entry of D Z, or a residual, within this share of its rounding scale
# (row sum of |D| times the largest |entry| of the column of Z, or of beta)
# is an exact zero
ZERO_TOL = 1e-11
# a directional derivative below -DESCENT_TOL times its scale is a descent
DESCENT_TOL = 1e-12


def check_loss(r, tau: float):
    """Quantile-regression check function rho_tau(r) = r (tau - 1{r<0})."""
    r = np.asarray(r, dtype=float)
    return r * (tau - (r < 0.0))


@dataclass
class AldParams:
    """Fitted asymmetric Laplace quantile regression.

    ``beta_eta`` are the location coefficients (intercept first), ``log_nu``
    the log scale, ``tau`` the asymmetry level, and ``cov`` the asymptotic
    covariance of ``beta_eta``.  ``basis`` holds the k fitting rows that the
    fit passes through exactly.
    """

    beta_eta: np.ndarray
    log_nu: float
    tau: float
    cov: np.ndarray | None
    loglik: float
    n: int
    converged: bool
    flags: list[str] = field(default_factory=list)
    basis: np.ndarray = field(default_factory=lambda: np.empty(0, int))

    @property
    def nu(self) -> float:
        return float(np.exp(self.log_nu))

    @property
    def coefficients(self) -> np.ndarray:
        return np.asarray(self.beta_eta, float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Fitted threshold eta(x) per covariate row: ``predict_draws`` with
        the estimate as its one draw."""
        return self.predict_draws(X, self.coefficients[None])[:, 0]

    def fitted(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The fitted threshold at the fitting data (X, y), set to y on the
        basis rows: they lie on the threshold, so none of them exceeds it,
        whatever the rounding of the product with ``beta_eta``."""
        u = self.predict(X)
        u[self.basis] = np.asarray(y, dtype=float)[self.basis]
        return u

    def predict_draws(self, X: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """The (rows, draws) thresholds of the coefficient draws ``coef``
        (one per row) at the covariate rows ``X``: each the covariate terms
        summed left to right, then the intercept added."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        coef = np.asarray(coef, dtype=float)
        slopes = np.ascontiguousarray(coef[:, 1:].T)
        return _linear_predictors(np.ascontiguousarray(X.T), slopes) + coef[:, 0]


def _design(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([np.ones(X.shape[0]), X])


def fit_ald(X, y, tau: float) -> AldParams:
    """Maximize the asymmetric Laplace likelihood with a linear location.

    Equivalent to minimizing the summed check loss in the coefficients,
    which :func:`_simplex` does exactly; the scale MLE is the mean check
    loss.  The coefficient covariance is the asymptotic quantile-regression
    covariance under the fitted ALD law, nu^2 / (tau(1-tau)) (X'X)^{-1}; the
    check function has no curvature, so an observed-information matrix is
    unavailable.  A fit stopped by PIVOT_CAP is flagged ``ald-pivot-cap``
    and not converged.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    y = np.asarray(y, dtype=float).ravel()
    D = _design(X)
    n, k = D.shape
    if n != y.size:
        raise ValueError("X and y must have aligned rows")
    if n <= k:
        raise ValueError("need more observations than coefficients")
    rank = np.linalg.matrix_rank(D)
    if rank < k:
        # report the first column whose removal restores full column rank
        for j in range(k):
            keep = [c for c in range(k) if c != j]
            if np.linalg.matrix_rank(D[:, keep]) == rank:
                label = "intercept" if j == 0 else f"column {j - 1}"
                raise ValueError(f"collinear design: {label} is redundant")
        raise ValueError("collinear design")

    # the basis search and its rounding scales ignore column scales
    S = D / np.abs(D).max(axis=0)
    h, ok = _simplex(S, y, tau, _start_basis(S, y))
    beta = np.linalg.solve(D[h], y[h])
    flags = [] if ok else ["ald-pivot-cap"]
    val = float(np.sum(check_loss(y - D @ beta, tau)))
    nu = max(val / n, 1e-12)
    loglik = n * (np.log(tau * (1.0 - tau)) - np.log(nu)) - val / nu
    cov = nu ** 2 / (tau * (1.0 - tau)) * np.linalg.inv(D.T @ D)
    return AldParams(beta, float(np.log(nu)), float(tau), cov,
                     float(loglik), n, ok, flags, np.sort(h))


def _start_basis(D, y) -> np.ndarray:
    """k observations with a nonsingular design block, taken greedily in
    order of their absolute least-squares residual."""
    beta, *_ = np.linalg.lstsq(D, y, rcond=None)
    h = []
    for i in np.argsort(np.abs(y - D @ beta), kind="stable"):
        if np.linalg.matrix_rank(D[h + [i]], rtol=1e-8) > len(h):
            h.append(i)
            if len(h) == D.shape[1]:
                return np.array(h)
    raise ValueError("collinear design: no nonsingular basis")


def _simplex(D, y, tau: float, h: np.ndarray):
    """Optimal basis of the check loss, from the basis ``h``: (basis,
    converged).

    At a basis (k observations fitted exactly, D_h nonsingular) the edges
    free one basis residual j in either sign, along the columns +-z_j of
    Z = D_h^{-1}.  With psi_i = tau or tau - 1 on the side of each other
    observation and s = psi' D Z, the directional derivatives are
    1 - tau - s_j and tau + s_j, which are the LP reduced costs.  Each pivot
    follows the most negative one to the weighted median of the kinks along
    the edge (the exact line search), where the observation at the median
    enters the basis and j leaves it.  Observations with a zero residual
    keep the side they were assigned, so a degenerate vertex is an LP basis
    like any other.  The basis is optimal when no derivative is negative;
    a cycle of zero-length steps at a degenerate vertex ends at PIVOT_CAP.
    """
    k = D.shape[1]
    absD = np.abs(D)
    colsum, rowsum = absD.sum(axis=0), absD.sum(axis=1)
    h = np.array(h)
    side = None
    for _ in range(PIVOT_CAP):
        Dh = D[h]
        Z = np.linalg.inv(Dh)
        beta = np.linalg.solve(Dh, y[h])
        r = y - D @ beta
        r[np.abs(r) <= ZERO_TOL * (np.abs(y) + rowsum * np.abs(beta).max())] = 0.0
        if side is None:
            side = np.where(r >= 0.0, 1.0, -1.0)
        psi = np.where(side > 0.0, tau, tau - 1.0)
        psi[h] = 0.0
        s = (psi @ D) @ Z
        g = np.concatenate([1.0 - tau - s, tau + s])
        descent = g < -DESCENT_TOL * np.tile(colsum @ np.abs(Z) + 1.0, 2)
        if not descent.any():
            return h, True
        e = int(np.argmin(g))
        j, sign = e % k, (1.0 if e < k else -1.0)
        a = sign * (D @ Z[:, j])
        a[np.abs(a) <= ZERO_TOL * rowsum * np.abs(Z[:, j]).max()] = 0.0
        a[h] = 0.0
        cand = np.flatnonzero(side * a > 0.0)
        if cand.size == 0:
            # only rounding can leave a descent edge without a kink
            return h, True
        t = np.maximum(r[cand] / a[cand], 0.0)
        order = np.argsort(t, kind="stable")
        slope = g[e] + np.cumsum(np.abs(a[cand[order]]))
        m = min(int(np.searchsorted(slope >= 0.0, True)), cand.size - 1)
        side[cand[order[:m]]] *= -1.0
        side[h[j]] = -sign
        h[j] = cand[order[m]]
    return h, False
