"""Generalized Pareto distribution: closed forms and likelihood fitting.

The cdf/quantile/logpdf use expm1/log1p forms (the cumulative hazard is
log1p(xi z) / xi) that stay relatively accurate through the shape-zero
seam; the exponential limit branch engages below |xi| < 1e-8.

:func:`gpd_nll_derivs` gives the negative log likelihood in
(log sigma, xi) with its closed-form score and observed information per
point, with power series where the closed forms cancel.  Every fit here
(scalar, fixed shape, regression) minimizes one objective built on it by
projected trust-region Newton, and takes its covariance from the analytic
information.  Fitting constrains the shape to (-1, 5): below -1 the MLE is
degenerate, 5 is a sanity cap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._optim import covariance_from_hessian, minimize_nll

XI_ZERO = 1e-8
XI_LO, XI_HI = -1.0, 5.0
W_FLOOR = np.nextafter(-1.0, 0.0)  # the least xi z on the support


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
        w = np.maximum(xi * z, -1.0)
        h = np.where(small, z, np.log1p(w) / np.where(small, 1.0, xi))
        h = np.where(w == -1.0, np.inf, h)
    out = -np.expm1(-h)
    out = np.where(x < 0.0, 0.0, out)
    return float(out) if np.ndim(out) == 0 else out


def gpd_quantile(q, p):
    """Exact inverse of :func:`gpd_cdf` for q in (0, 1)."""
    sigma, xi = _as_params(p)
    q = np.asarray(q, dtype=float)
    if ((q <= 0.0) | (q >= 1.0)).any():
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
        w = xi * z
        h = np.where(small, z, np.log1p(np.maximum(w, W_FLOOR)) / np.where(small, 1.0, xi))
    out = -np.log(sigma) - (1.0 + xi) * h
    out = np.where((x < 0.0) | (w <= -1.0), -np.inf, out)
    return float(out) if np.ndim(out) == 0 else out


def _gpd_loglik_sum(x, sigma, xi):
    """``gpd_logpdf(x, (sigma, xi)).sum(axis=-1)``, bit for bit.

    The same float operations run in the same order, in place in one
    buffer, so each sum is the same pairwise sum over a contiguous row; it
    is -inf where any point is off the support.  ``x`` is an (n,) array;
    ``sigma`` and ``xi`` are scalars or broadcast against it, e.g. (k, 1)
    for k parameter pairs at once.  Any shape inside the seam
    |xi| < XI_ZERO takes the :func:`gpd_logpdf` path.
    """
    if (np.abs(xi) < XI_ZERO).any():
        return np.sum(gpd_logpdf(x, (sigma, xi)), axis=-1)
    out = np.empty(np.broadcast(x, sigma, xi).shape)
    np.divide(x, sigma, out=out)
    np.multiply(xi, out, out=out)  # w = xi x / sigma
    # Mask to -inf only when a point is off the support (or w is NaN).
    # Otherwise the floor is a no-op: w > -1 means w >= W_FLOOR.
    bad = None
    if not out.min(initial=np.inf) > -1.0 or x.min(initial=np.inf) < 0.0:
        bad = out <= -1.0
        bad |= x < 0.0
        np.maximum(out, W_FLOOR, out=out)
    np.log1p(out, out=out)
    np.divide(out, xi, out=out)
    np.multiply(1.0 + xi, out, out=out)
    np.subtract(-np.log(sigma), out, out=out)
    if bad is not None:
        np.copyto(out, -np.inf, where=bad)
    return out.sum(axis=-1)


# Power series of g1(w) = (log1p(w)/w - 1/(1+w))/w and
# g2(w) = (2 g1(w) - 1/(1+w)^2)/w, used for |w| < W_SERIES where the closed
# forms cancel: their error there is about 6 eps/w^2, the truncated series'
# below 1e-17.
W_SERIES = 0.1
_K = np.arange(20.0)
_G1_SERIES = (-1.0) ** _K * (_K + 1.0) / (_K + 2.0)
_G2_SERIES = (-1.0) ** _K * (_K + 1.0) * (_K + 2.0) / (_K + 3.0)
_polyval = np.polynomial.polynomial.polyval


def _g1_g2(w):
    """g1(w) and g2(w): each point's series or closed form, never both."""
    series = np.abs(w) < W_SERIES
    if series.all():
        return _polyval(w, _G1_SERIES), _polyval(w, _G2_SERIES)
    g1, g2 = np.empty(w.shape), np.empty(w.shape)
    ws = w[series]
    g1[series] = _polyval(ws, _G1_SERIES)
    g2[series] = _polyval(ws, _G2_SERIES)
    closed = ~series
    wd = w[closed]
    inv = 1.0 / (1.0 + wd)
    g1d = (np.log1p(wd) / wd - inv) / wd
    g1[closed] = g1d
    g2[closed] = (2.0 * g1d - inv * inv) / wd
    return g1, g2


def gpd_nll_derivs(x, eta, xi):
    """GPD negative log likelihood in (eta, xi) = (log sigma, xi), with its
    score and observed information per point.

    ``eta`` and ``xi`` are scalars or per-point linear predictors
    broadcasting against the exceedances ``x``.  With z = x / sigma,
    w = xi z and the cumulative hazard h = log1p(w) / xi (z when
    |xi| < XI_ZERO, as in :func:`gpd_logpdf`), each point contributes
    f = eta + (1 + xi) h, and (Coles 2001, ch. 4)

        f_eta     = 1 - (1 + xi) z / (1 + w)
        f_xi      = z / (1 + w) - z^2 g1(w)
        f_eta,eta = (1 + xi) z / (1 + w)^2
        f_eta,xi  = z (z - 1) / (1 + w)^2
        f_xi,xi   = z^3 g2(w) - z^2 / (1 + w)^2

    with g1, g2 from :func:`_g1_g2`; at w = 0 they are 1/2 and 2/3, the
    exponential limits.  Inside the seam the derivatives stay those of the
    smooth log1p likelihood, which the exponential limit matches to a
    relative 5e-9 z.  Returns ``(nll, score, info)``: the summed NLL, the
    (2, n) rows (f_eta, f_xi) and the (3, n) rows (f_eta,eta, f_eta,xi,
    f_xi,xi); when a point is off the support, +inf and NaN rows.
    """
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    z = x * np.exp(-eta)
    w = xi * z
    if (w <= -1.0).any() or (x < 0.0).any():
        return np.inf, np.full((2,) + z.shape, np.nan), np.full((3,) + z.shape, np.nan)
    small = np.abs(xi) < XI_ZERO
    h = np.where(small, z, np.log1p(w) / np.where(small, 1.0, xi))
    inv = 1.0 / (1.0 + w)
    zinv = z * inv
    g1, g2 = _g1_g2(w)
    nll = float(np.sum(eta + (1.0 + xi) * h))
    score = np.stack([1.0 - (1.0 + xi) * zinv, zinv - z * z * g1])
    info = np.stack([(1.0 + xi) * zinv * inv, (z - 1.0) * zinv * inv,
                     z * z * (z * g2 - inv * inv)])
    return nll, score, info


def _objective(z, Xs, Xx, xi_fixed=None):
    """NLL of exceedances ``z`` and its (gradient, Hessian), in coefficients.

    log sigma = Xs b_s and xi = Xx b_xi for the coefficient vector
    (b_s, b_xi); with ``xi_fixed`` the shape is held there and the
    coefficients are b_s alone.  The NLL is +inf off the support, for
    |log sigma| > 50 and for a free shape outside (XI_LO, XI_HI).
    """
    ks = Xs.shape[1]

    def predictors(beta):
        return Xs @ beta[:ks], (Xx @ beta[ks:] if xi_fixed is None else xi_fixed)

    def nll(beta):
        eta, xi = predictors(beta)
        if (np.abs(eta) > 50.0).any() or (
                xi_fixed is None and ((xi <= XI_LO).any() or (xi >= XI_HI).any())):
            return np.inf
        ll = _gpd_loglik_sum(z, np.exp(eta), xi)
        # an overflowing sum and a point off the support both give -inf
        return np.inf if ll == -np.inf else -float(ll)

    def derivs(beta):
        _, (fe, fx), (fee, fex, fxx) = gpd_nll_derivs(z, *predictors(beta))
        if xi_fixed is not None:
            return fe @ Xs, (Xs.T * fee) @ Xs
        cross = (Xs.T * fex) @ Xx
        return (np.concatenate([fe @ Xs, fx @ Xx]),
                np.block([[(Xs.T * fee) @ Xs, cross],
                          [cross.T, (Xx.T * fxx) @ Xx]]))

    return nll, derivs


def _natural_information(x, eta, xi) -> np.ndarray:
    """Observed information in (sigma, xi) at sigma = exp(eta), exactly.

    d/dsigma = (1/sigma) d/deta, so the sigma-sigma entry picks up
    -f_eta / sigma^2 besides f_eta,eta / sigma^2.
    """
    _, (fe, _), (fee, fex, fxx) = gpd_nll_derivs(x, eta, xi)
    sigma = np.exp(eta)
    hss = (fee.sum() - fe.sum()) / sigma**2
    hsx = fex.sum() / sigma
    return np.array([[hss, hsx], [hsx, fxx.sum()]])


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

    The intercept-only case of :func:`fit_gpd_regression`'s objective,
    minimized by projected trust-region Newton on the analytic derivatives
    within |log sigma| <= 50 and XI_LO + 1e-6 <= xi <= XI_HI - 1e-6;
    ``fix_xi`` reduces to a one-parameter fit.  The covariance is the
    inverse of the analytic observed information at the optimum in
    (sigma, xi); it is omitted (with a flag) when that information is
    degenerate.  A run that does not converge raises RuntimeError.
    """
    x = np.asarray(exceedances, dtype=float).ravel()
    if x.size < 5:
        raise ValueError("need at least 5 exceedances")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("exceedances must be finite and >= 0")
    sigma0, xi0 = _moment_start(x)
    if fix_xi is not None:
        xi0 = float(fix_xi)
    # a negative shape's endpoint -sigma/xi must start above the data
    sigma0 = max(sigma0, -2.0 * xi0 * x.max())
    ones = np.ones((x.size, 1))
    if fix_xi is None:
        nll, derivs = _objective(x, ones, ones)
        theta0 = [np.log(sigma0), xi0]
    else:
        nll, derivs = _objective(x, ones, None, xi0)
        theta0 = [np.log(sigma0)]
    k = len(theta0)
    flags: list[str] = []
    theta, val, ok = minimize_nll(
        nll, np.array(theta0), derivs,
        bounds=[(-50.0, 50.0), (XI_LO + 1e-6, XI_HI - 1e-6)][:k])
    if not ok:
        raise RuntimeError("GPD fit did not converge within budget")
    xi = float(theta[1]) if fix_xi is None else xi0
    if fix_xi is None and (xi <= XI_LO + 1e-4 or xi >= XI_HI - 1e-4):
        flags.append("xi-at-bound")
    info = _natural_information(x, theta[0], xi)[:k, :k]
    cov = covariance_from_hessian(info, flags)
    se = np.sqrt(np.diag(cov)) if cov is not None else None
    return GpdFit(GpdParams(float(np.exp(theta[0])), xi), cov, se, -val,
                  x.size, ok, flags)


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
        """Per-row (sigma, xi) from covariates, each predictor summed as
        ``predictive_quantiles`` sums the estimate as its one draw."""
        eta, xi = (_linear_predictors(np.ascontiguousarray(_design(X, cols).T),
                                      np.asarray(beta, float)[:, None])[:, 0]
                   for cols, beta in ((self.spec.sigma_columns, self.beta_sigma),
                                      (self.spec.xi_columns, self.beta_xi)))
        return np.exp(eta), xi


def _design(X: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([np.ones(X.shape[0])] + [X[:, c] for c in cols])


def _linear_predictors(design_t, coef_t) -> np.ndarray:
    """The (rows, draws) linear predictors of coefficient draws at design rows.

    ``design_t`` is a (k, rows) and ``coef_t`` a C-contiguous (k, draws)
    transpose.  With the columns on the outer axis, numpy's einsum runs its
    inner loop over rows or draws and accumulates each entry left to right
    over the k columns, (x_0 c_0 + x_1 c_1) + x_2 c_2 + ..., so a block of
    rows gets the same bits as the whole; only a lone row with a lone draw
    is summed as a dot product.  BLAS ``@`` gives no such guarantee: its
    bits depend on the number of rows.
    """
    return np.einsum("kr,kd->rd", design_t, coef_t)


def fit_gpd_regression(X, y, u, spec: RegressionSpec) -> GpdRegression:
    """Fit a GPD to exceedances of per-row thresholds with linear predictors.

    Maximizes the exceedance log likelihood with log sigma(x) and xi(x)
    linear in the selected covariates by trust-region Newton, from the
    pooled fit; returns coefficients and the inverse of the analytic
    observed information in them.  Every row's shape must stay inside
    (XI_LO, XI_HI), so a fit whose optimum lies on that wall does not
    converge, and raises RuntimeError.
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

    nll, derivs = _objective(z, Xs, Xx)
    flags: list[str] = []
    beta, val, ok = minimize_nll(nll, beta0, derivs)
    if not ok:
        raise RuntimeError("GPD regression did not converge within budget")
    cov = covariance_from_hessian(derivs(beta)[1], flags)
    return GpdRegression(beta[:ks].copy(), beta[ks:].copy(), spec, cov,
                         -val, n_exc, ok, flags)


def exceedance_fraction(y, u) -> float:
    """Fraction of strict exceedances #{y_i > u_i}/n."""
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if y.size != u.size:
        raise ValueError("y and u must have aligned lengths")
    return float(np.mean(y > u))
