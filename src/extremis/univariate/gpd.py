"""Generalized Pareto distribution: closed forms and likelihood fitting.

The cdf/quantile/logpdf use expm1/log1p forms that stay accurate through
the shape-zero seam; the exponential limit branch engages below
|xi| < 1e-8.  Fitting constrains the shape to (-1, 5): below -1 the MLE is
degenerate, 5 is a sanity cap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._optim import (covariance_from_hessian, minimize_nll, numeric_hessian)

XI_ZERO = 1e-8
XI_LO, XI_HI = -1.0, 5.0


@dataclass(frozen=True)
class GpdParams:
    """Scale/shape pair with scale > 0."""

    sigma: float
    xi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not np.isfinite(self.xi):
            raise ValueError("xi must be finite")

    @property
    def upper(self) -> float:
        """Support endpoint: -sigma/xi for xi < 0, else +inf."""
        return -self.sigma / self.xi if self.xi < 0.0 else np.inf


def _as_params(p) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, GpdParams):
        return np.asarray(p.sigma, float), np.asarray(p.xi, float)
    sigma, xi = p
    return np.asarray(sigma, float), np.asarray(xi, float)


def gpd_cdf(x, p):
    """GPD distribution function; 0 below the origin, 1 beyond a finite endpoint."""
    sigma, xi = _as_params(p)
    x = np.asarray(x, dtype=float)
    z = np.clip(x, 0.0, None) / sigma
    small = np.abs(xi) < XI_ZERO
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.maximum(1.0 + xi * z, 0.0)
        h = np.where(small, z, np.log(np.maximum(arg, 1e-300)) / np.where(small, 1.0, xi))
        h = np.where(arg == 0.0, np.inf, h)
    out = -np.expm1(-h)
    out = np.where(x < 0.0, 0.0, out)
    return float(out) if np.ndim(out) == 0 else out


def gpd_quantile(q, p):
    """Exact inverse of :func:`gpd_cdf` for q in (0, 1)."""
    sigma, xi = _as_params(p)
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ValueError("quantile level outside (0, 1)")
    ell = -np.log1p(-q)
    small = np.abs(xi) < XI_ZERO
    out = np.where(small, sigma * ell,
                   sigma * np.expm1(np.where(small, 0.0, xi) * ell)
                   / np.where(small, 1.0, xi))
    return float(out) if np.ndim(out) == 0 else out


def gpd_logpdf(x, p):
    """Log density; -inf outside the support."""
    sigma, xi = _as_params(p)
    x = np.asarray(x, dtype=float)
    z = x / sigma
    small = np.abs(xi) < XI_ZERO
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = 1.0 + xi * z
        h = np.where(small, z, np.log(np.maximum(arg, 1e-300)) / np.where(small, 1.0, xi))
    out = -np.log(sigma) - (1.0 + xi) * h
    out = np.where((x < 0.0) | (arg <= 0.0), -np.inf, out)
    return float(out) if np.ndim(out) == 0 else out


def _gpd_loglik_sum(x, sigma, xi, work=None):
    """``gpd_logpdf(x, (sigma, xi)).sum(axis=-1)``, bit for bit.

    The same float operations run in the same order, in place in one
    buffer, so each sum is the same pairwise sum over a contiguous row; it
    is -inf where any point is off the support.  ``x`` is an (n,) array;
    ``sigma`` and ``xi`` are scalars or broadcast against it, e.g. (k, 1)
    for k parameter pairs at once.  ``work`` is an optional float buffer of
    the broadcast shape, reused across calls.  Any shape inside the seam
    |xi| < XI_ZERO takes the :func:`gpd_logpdf` path.
    """
    if (np.abs(xi) < XI_ZERO).any():
        return np.sum(gpd_logpdf(x, (sigma, xi)), axis=-1)
    out = np.empty(np.broadcast(x, sigma, xi).shape) if work is None else work
    np.divide(x, sigma, out=out)
    np.multiply(xi, out, out=out)
    np.add(1.0, out, out=out)  # arg = 1 + xi x / sigma
    # Mask to -inf only when a point is off the support (or arg is NaN).
    # Otherwise the floor is a no-op: a positive 1 + xi z is >= 2**-53.
    bad = None
    if not out.min(initial=np.inf) > 0.0 or x.min(initial=np.inf) < 0.0:
        bad = out <= 0.0
        bad |= x < 0.0
        np.maximum(out, 1e-300, out=out)
    np.log(out, out=out)
    np.divide(out, xi, out=out)
    np.multiply(1.0 + xi, out, out=out)
    np.subtract(-np.log(sigma), out, out=out)
    if bad is not None:
        np.copyto(out, -np.inf, where=bad)
    return out.sum(axis=-1)


@dataclass
class GpdFit:
    params: GpdParams
    cov: np.ndarray | None
    se: np.ndarray | None
    loglik: float
    n: int
    converged: bool
    flags: list[str] = field(default_factory=list)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.params.sigma, self.params.xi])


def _moment_start(x: np.ndarray) -> tuple[float, float]:
    m, v = x.mean(), x.var()
    if v <= 0.0:
        return max(m, 1e-8), 0.0
    xi0 = 0.5 * (1.0 - m * m / v)
    xi0 = float(np.clip(xi0, -0.45, 0.9))
    return float(max(m * (1.0 - xi0), 1e-8)), xi0


def fit_gpd_mle(exceedances, fix_xi: float | None = None) -> GpdFit:
    """Maximum likelihood GPD fit to nonnegative exceedances.

    Shape is constrained to (-1, 5); ``fix_xi`` reduces to a one-parameter
    fit.  The covariance is the inverse observed information at the optimum
    in (sigma, xi); it is omitted (with a flag) when the Hessian is
    degenerate.
    """
    x = np.asarray(exceedances, dtype=float).ravel()
    if x.size < 5:
        raise ValueError("need at least 5 exceedances")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("exceedances must be finite and >= 0")
    sigma0, xi0 = _moment_start(x)

    if fix_xi is not None:
        xi_fixed = float(fix_xi)

        def nll1(t):
            return -float(_gpd_loglik_sum(x, np.exp(t[0]), xi_fixed))

        theta, val, ok = minimize_nll(nll1, np.array([np.log(sigma0)]))
        if not ok:
            raise RuntimeError("GPD fit did not converge within budget")
        sigma = float(np.exp(theta[0]))
        flags: list[str] = []

        def nll_nat(t):
            return -float(_gpd_loglik_sum(x, t[0], xi_fixed))

        hess = numeric_hessian(nll_nat, np.array([sigma]))
        cov = covariance_from_hessian(hess, flags)
        se = np.sqrt(np.diag(cov)) if cov is not None else None
        return GpdFit(GpdParams(sigma, xi_fixed), cov, se, -val, x.size, ok, flags)

    def nll(t):
        log_sigma, xi = t
        if not (XI_LO < xi < XI_HI) or abs(log_sigma) > 50.0:
            return np.inf
        return -float(_gpd_loglik_sum(x, np.exp(log_sigma), xi))

    theta, val, ok = minimize_nll(
        nll, np.array([np.log(sigma0), xi0]),
        bounds=[(-50.0, 50.0), (XI_LO + 1e-6, XI_HI - 1e-6)])
    if not ok:
        raise RuntimeError("GPD fit did not converge within budget")
    sigma, xi = float(np.exp(theta[0])), float(theta[1])
    flags = []
    if xi <= XI_LO + 1e-4 or xi >= XI_HI - 1e-4:
        flags.append("xi-at-bound")

    def nll_nat(t):
        if t[0] <= 0.0:
            return np.inf
        return -float(_gpd_loglik_sum(x, t[0], t[1]))

    hess = numeric_hessian(nll_nat, np.array([sigma, xi]))
    cov = covariance_from_hessian(hess, flags)
    se = np.sqrt(np.diag(cov)) if cov is not None else None
    return GpdFit(GpdParams(sigma, xi), cov, se, -val, x.size, ok, flags)


@dataclass(frozen=True)
class RegressionSpec:
    """Covariate selections for the log-scale and shape linear predictors.

    Column indices refer to the covariate matrix handed to
    :func:`fit_gpd_regression`; an intercept is always included in both
    predictors.
    """

    sigma_columns: tuple[int, ...] = ()
    xi_columns: tuple[int, ...] = ()
    names: tuple[str, ...] | None = None

    def label(self, cols: tuple[int, ...]) -> tuple[str, ...]:
        if self.names is None:
            return tuple(f"x{c}" for c in cols)
        return tuple(self.names[c] for c in cols)


@dataclass
class GpdRegression:
    """Fitted GPD regression: log sigma(x) and xi(x) linear in covariates."""

    beta_sigma: np.ndarray
    beta_xi: np.ndarray
    spec: RegressionSpec
    cov: np.ndarray | None
    loglik: float
    n_exceed: int
    converged: bool
    flags: list[str] = field(default_factory=list)

    @property
    def design_columns(self) -> dict[str, tuple[str, ...]]:
        return {"sigma": ("intercept",) + self.spec.label(self.spec.sigma_columns),
                "xi": ("intercept",) + self.spec.label(self.spec.xi_columns)}

    @property
    def coefficients(self) -> np.ndarray:
        return np.concatenate([self.beta_sigma, self.beta_xi])

    def predict(self, X: np.ndarray):
        """Per-row (sigma, xi) from covariates."""
        Xs = _design(X, self.spec.sigma_columns)
        Xx = _design(X, self.spec.xi_columns)
        return np.exp(Xs @ self.beta_sigma), Xx @ self.beta_xi


def _design(X: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([np.ones(X.shape[0])] + [X[:, c] for c in cols])


def fit_gpd_regression(X, y, u, spec: RegressionSpec) -> GpdRegression:
    """Fit a GPD to exceedances of per-row thresholds with linear predictors.

    Maximizes the exceedance log likelihood with log sigma(x) and xi(x)
    linear in the selected covariates; returns coefficients and the joint
    observed-information covariance.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if not (X.shape[0] == y.size == u.size):
        raise ValueError("X, y, u must have aligned rows")
    exc = y > u
    n_par = 2 + len(spec.sigma_columns) + len(spec.xi_columns)
    n_exc = int(exc.sum())
    if n_exc < 5 * n_par:
        raise ValueError(
            f"insufficient exceedances: {n_exc} < {5 * n_par} for {n_par} coefficients")
    z = (y - u)[exc]
    Xs = _design(X[exc], spec.sigma_columns)
    Xx = _design(X[exc], spec.xi_columns)
    ks = Xs.shape[1]

    pooled = fit_gpd_mle(z)
    beta0 = np.zeros(n_par)
    beta0[0] = np.log(pooled.params.sigma)
    beta0[ks] = np.clip(pooled.params.xi, -0.4, 0.9)

    def nll(beta):
        sig = Xs @ beta[:ks]
        xi = Xx @ beta[ks:]
        if (np.abs(sig) > 50.0).any() or (xi <= XI_LO).any() or (xi >= XI_HI).any():
            return np.inf
        ll = _gpd_loglik_sum(z, np.exp(sig), xi)
        # an overflowing sum and a point off the support both give -inf
        return np.inf if ll == -np.inf else -float(ll)

    beta, val, ok = minimize_nll(nll, beta0)
    if not ok:
        raise RuntimeError("GPD regression did not converge within budget")
    flags: list[str] = []
    hess = numeric_hessian(nll, beta)
    cov = covariance_from_hessian(hess, flags)
    return GpdRegression(beta[:ks].copy(), beta[ks:].copy(), spec, cov,
                         -val, n_exc, ok, flags)


def exceedance_fraction(y, u) -> float:
    """Fraction of strict exceedances #{y_i > u_i}/n."""
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if y.size != u.size:
        raise ValueError("y and u must have aligned lengths")
    return float(np.mean(y > u))
