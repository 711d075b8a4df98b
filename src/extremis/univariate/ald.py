"""Asymmetric Laplace likelihood for covariate-dependent threshold estimation.

The location MLE of the asymmetric Laplace coincides with the check-loss
(quantile regression) minimizer, so the fitted linear predictor is a
covariate-dependent quantile estimate usable as a threshold.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._optim import minimize_nll


def check_loss(r, tau: float):
    """Quantile-regression check function rho_tau(r) = r (tau - 1{r<0})."""
    r = np.asarray(r, dtype=float)
    return r * (tau - (r < 0.0))


@dataclass
class AldParams:
    """Fitted asymmetric Laplace quantile regression.

    ``beta_eta`` are the location coefficients (intercept first), ``log_nu``
    the log scale, ``tau`` the asymmetry level, and ``cov`` the asymptotic
    covariance of ``beta_eta``.
    """

    beta_eta: np.ndarray
    log_nu: float
    tau: float
    cov: np.ndarray | None
    loglik: float
    n: int
    converged: bool
    flags: list[str] = field(default_factory=list)

    @property
    def nu(self) -> float:
        return float(np.exp(self.log_nu))

    @property
    def coefficients(self) -> np.ndarray:
        return np.asarray(self.beta_eta, float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Fitted threshold eta(x) per covariate row."""
        return _design(X) @ self.beta_eta

    def predict_draws(self, X: np.ndarray, coef: np.ndarray):
        """Lazily, the threshold row of each coefficient draw in ``coef``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X @ c[1:] + c[0] for c in coef)


def _design(X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([np.ones(X.shape[0]), X])


def fit_ald(X, y, tau: float) -> AldParams:
    """Maximize the asymmetric Laplace likelihood with a linear location.

    Equivalent to minimizing the summed check loss in the coefficients; the
    scale MLE is the mean check loss.  The coefficient covariance is the
    asymptotic quantile-regression covariance under the fitted ALD law,
    nu^2 / (tau(1-tau)) (X'X)^{-1}; the check function has no curvature, so
    an observed-information matrix is unavailable.
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

    beta0, *_ = np.linalg.lstsq(D, y, rcond=None)

    def loss(beta):
        return float(np.sum(check_loss(y - D @ beta, tau)))

    beta, val, ok = minimize_nll(loss, beta0, polish=False)
    # refinement pass: restart the simplex from the incumbent; the check
    # loss is piecewise linear so quasi-Newton polish adds nothing
    beta, val, ok2 = minimize_nll(loss, beta, polish=False)
    if not (ok or ok2):
        raise RuntimeError("ALD fit did not converge within budget")
    nu = max(val / n, 1e-12)
    loglik = n * (np.log(tau * (1.0 - tau)) - np.log(nu)) - val / nu
    cov = nu ** 2 / (tau * (1.0 - tau)) * np.linalg.inv(D.T @ D)
    return AldParams(beta.copy(), float(np.log(nu)), float(tau), cov,
                     float(loglik), n, bool(ok or ok2))
