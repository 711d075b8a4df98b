"""Parametric multivariate generalized Pareto dependence families.

Implements the closed-form joint-exceedance measure Xi(u), the intensity of
{min_j Y_j/u_j > 1} for the limiting point process, together with the
exponent measure V(u) (intensity of {max_j Y_j/u_j > 1}), model-implied
tail correlation, censored likelihood fitting for the logistic family and a
pairwise composite fit for the exchangeable Huesler-Reiss family.

Every family is a :class:`MgpdModel`: it supplies its own pivot weights
(the per-pivot terms of Xi and V), any closed forms for Xi and V, and the
pivot-block sampler used by composition sampling (``simulate``).

Conventions, fixed by Monte Carlo validation against generator draws:

* Logistic(beta > 1): iid Frechet generators, shape beta, scale
  1/Gamma(1 - 1/beta).
* NegLogistic(theta > 0): iid Weibull generators, shape theta, scale
  1/Gamma(1 + 1/theta); Xi(u) = (sum u_j^theta)^(-1/theta).
* HuslerReiss(Gamma): log-Gaussian generators with semivariogram matrix
  Gamma, i.e. Var(G_i - G_j) = 2 Gamma_ij.
* ExtremalStudent(Sigma, nu): generators c_nu max(0, eps)^nu for a Gaussian
  vector eps with correlation Sigma.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, log_ndtr, ndtr, ndtri, stdtr

from ._optim import covariance_from_hessian, numeric_hessian
from .mvnt import mvn_cdf, mvt_cdf

LOGISTIC_DIM_CAP = 20
GIBBS_SWEEPS = 50


class MgpdModel:
    """Base of the dependence families.

    A family gives the pivot weights of Xi(u) (``min``) and V(u) (``max``),
    the j-th weight being the measure's term with pivot j, with their
    quasi-Monte Carlo standard errors (zero when exact).  Xi and V default
    to the sum of the weights with a root-sum-square error.  ``pivot_block``
    draws composition-sampling angles for the risk functionals in
    ``sample_kinds``; any other functional raises ``sample_error``.  ``dim``
    is the fixed dimension, None for families defined in every dimension.
    The methods take ``u`` as checked by the module-level functions.
    """

    dim: int | None = None
    sample_kinds: tuple[str, ...] = ("min", "max", "sum")
    sample_error = ""

    def pivot_weights(self, u: np.ndarray, direction: str, n_points: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def xi(self, u: np.ndarray, n_points: int, seed: int) -> tuple[float, float]:
        return self._weight_sum(u, "min", n_points, seed)

    def v(self, u: np.ndarray, n_points: int, seed: int) -> tuple[float, float]:
        return self._weight_sum(u, "max", n_points, seed)

    def _weight_sum(self, u, direction, n_points, seed) -> tuple[float, float]:
        w, ses = self.pivot_weights(u, direction, n_points, seed)
        return float(w.sum()), float(np.sqrt(np.sum(ses ** 2)))

    def pivot_block(self, j: int, k: np.ndarray, n: int, rng, kind: str,
                    flags: list[str]) -> np.ndarray:
        """(n, D) angles omega = Z/Z_j given that pivot j is the scaled
        extreme for the functional ``kind``; ``k`` is u / u_j."""
        raise NotImplementedError


class _IidFamily(MgpdModel):
    """Families with iid generators Z = c T^p, T ~ Exp(1), for one exponent
    ``_exponent`` = p; the scale c cancels from every angle Z_i / Z_j.

    Composition sampling runs in T-space and is exact.  Given pivot j the
    pivot's T is size-biased, t ~ Gamma(1 + p), and a companion's event
    Z_i >= k_i Z_j (``min``) or Z_i <= k_i Z_j (``max``) is a *tail*
    T_i >= a_i t or a *head* T_i <= a_i t, with a_i = k_i^(1/p); under
    ``sum`` every companion is a tail with a_i = 0.  Tails weight the pivot
    density by e^(-a_i t), so t is Gamma(1 + p) / (1 + sum a_i) and
    T_i - a_i t is Exp(1); heads weight it by 1 - e^(-a_i t) (see
    ``_head_pivots``) and T_i is a truncated exponential.
    """

    def pivot_block(self, j, k, n, rng, kind, flags):
        p = self._exponent
        d = k.size
        others = np.flatnonzero(np.arange(d) != j)
        a = k[others] ** (1.0 / p) if kind != "sum" else np.zeros(d - 1)
        tail = kind == "sum" or (kind == "min") == (p > 0.0)
        t = (rng.gamma(1.0 + p, size=n) / (1.0 + a.sum()) if tail
             else _head_pivots(p, a, n, rng))
        omega = np.empty((n, d))
        omega[:, j] = 1.0
        for i, ai in zip(others, a):
            if tail:
                ti = ai * t + rng.exponential(size=n)
            else:
                # 1 - U lies in (0, 1], so T_i > 0
                ti = -np.log1p((1.0 - rng.random(n)) * np.expm1(-ai * t))
            # a pivot gamma draw of shape 1 + p near 0 can underflow to 0:
            # ti / t is then inf and omega_i its limit 0
            with np.errstate(over="ignore", divide="ignore"):
                omega[:, i] = (ti / t) ** p
        return omega


def _head_pivots(p, a, n, rng):
    """n draws of t with density proportional to t^p e^(-t) prod_i
    (1 - e^(-a_i t)), by rejection from Gamma(1 + p + m) under the envelope
    1 - e^(-x) <= x on the m smallest a_i and <= 1 on the rest (Devroye
    1986, ch. II.3 and IX.3).  m minimizes the envelope's log mass
    sum_(i<m) log a_(i) + lgamma(1 + p + m)."""
    a = np.sort(a)
    mass = (np.concatenate([[0.0], np.cumsum(np.log(a))])
            + gammaln(1.0 + p + np.arange(a.size + 1)))
    m = int(np.argmin(mass))
    t = np.empty(n)
    filled = 0
    while filled < n:
        size = max(2 * (n - filled), 256)
        cand = rng.gamma(1.0 + p + m, size=size)
        prob = np.ones(size)
        for rank, ai in enumerate(a):  # one column at a time bounds the memory
            prob *= _head_factor(ai * cand, rank < m)
        keep = cand[rng.random(size) < prob][:n - filled]
        t[filled:filled + keep.size] = keep
        filled += keep.size
    return t


def _head_factor(x, power):
    """Acceptance factor (1 - e^(-x)) / x^power of a head companion at
    x = a_i t, for power 0 or 1; it lies in [0, 1], with limit 1 at x = 0
    for power 1."""
    f = -np.expm1(-x)
    if power:
        f = np.divide(f, x, out=np.ones_like(f), where=x > 0.0)
    return f


class _QmcFamily(MgpdModel):
    """Families whose pivot terms are Gaussian or Student orthant
    probabilities, estimated by quasi-Monte Carlo above two dimensions;
    ``_pivot_probability`` gives pivot j's (p, standard error), and its
    weight is p / u_j."""

    def pivot_weights(self, u, direction, n_points, seed):
        d = u.size
        w = np.empty(d)
        ses = np.empty(d)
        for j in range(d):
            idx = [i for i in range(d) if i != j]
            p, se = self._pivot_probability(u, j, idx, direction, n_points, seed)
            w[j] = p / u[j]
            ses[j] = se / u[j]
        return w, ses


@dataclass(frozen=True)
class Logistic(_IidFamily):
    """Logistic family; dependence strengthens as beta grows."""

    beta: float

    def __post_init__(self) -> None:
        if not self.beta > 1.0:
            raise ValueError("logistic beta must exceed 1")

    def pivot_weights(self, u, direction, n_points, seed):
        beta = self.beta
        d = u.size
        if direction == "max":
            s = np.sum(u ** (-beta))
            return u ** (-beta) * s ** (1.0 / beta - 1.0), np.zeros(d)
        if d > LOGISTIC_DIM_CAP:
            raise ValueError(
                f"logistic power-set sum capped at D={LOGISTIC_DIM_CAP}; use the "
                "Monte Carlo fallback via composition sampling for larger D")
        psis = np.empty(d)
        for j in range(d):
            a = (u / u[j]) ** (-beta)
            mask = np.arange(d) != j
            sums, sizes = _subset_sums(a[mask])
            vals = (1.0 + sums) ** (1.0 / beta - 1.0)
            psis[j] = _alternating_fsum(vals, sizes) / u[j]
        return psis, np.zeros(d)

    def v(self, u, n_points, seed):
        return float(np.sum(u ** (-self.beta)) ** (1.0 / self.beta)), 0.0

    @property
    def _exponent(self) -> float:
        return -1.0 / self.beta


@dataclass(frozen=True)
class NegLogistic(_IidFamily):
    """Negative logistic (Galambos) family with shape theta > 0."""

    theta: float

    def __post_init__(self) -> None:
        if not self.theta > 0.0:
            raise ValueError("negative logistic theta must be positive")

    def pivot_weights(self, u, direction, n_points, seed):
        theta = self.theta
        d = u.size
        if direction == "min":
            s = np.sum(u ** theta)
            return u ** theta * s ** (-1.0 / theta - 1.0), np.zeros(d)
        ut = u ** theta
        phis = np.empty(d)
        for j in range(d):
            mask = np.arange(d) != j
            sums, sizes = _subset_sums(ut[mask])
            vals = (ut[j] + sums) ** (-1.0 / theta - 1.0)
            phis[j] = ut[j] * _alternating_fsum(vals, sizes)
        return phis, np.zeros(d)

    def xi(self, u, n_points, seed):
        return float(np.sum(u ** self.theta) ** (-1.0 / self.theta)), 0.0

    def v(self, u, n_points, seed):
        # inclusion-exclusion over nonempty subsets
        sums, sizes = _subset_sums(u ** self.theta)
        vals = np.zeros_like(sums)
        vals[1:] = sums[1:] ** (-1.0 / self.theta)
        signed_sizes = sizes[1:] - 1  # (-1)^(|s|+1) = (-1)^(|s|-1)
        return float(_alternating_fsum(vals[1:], signed_sizes)), 0.0

    @property
    def _exponent(self) -> float:
        return 1.0 / self.theta


@dataclass(frozen=True)
class HuslerReiss(_QmcFamily):
    """Huesler-Reiss family parametrized by a semivariogram matrix."""

    gamma: np.ndarray

    sample_kinds = ("sum", "max")
    sample_error = ("Huesler-Reiss min-functional sampling is not "
                    "supported (sum and max only)")

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gamma must be a square matrix")
        if not np.allclose(g, g.T, atol=1e-10):
            raise ValueError("gamma must be symmetric")
        if np.any(np.abs(np.diag(g)) > 1e-12):
            raise ValueError("gamma must have a zero diagonal")
        if g.shape[0] > 1 and np.any(g[~np.eye(g.shape[0], dtype=bool)] <= 0.0):
            raise ValueError("off-diagonal gamma entries must be positive")
        for j in range(g.shape[0]):
            s = _hr_sigma_minus_j(g, j)
            if np.linalg.eigvalsh(s).min() < -1e-8:
                raise ValueError("gamma is not conditionally negative definite")
        object.__setattr__(self, "gamma", g)

    @classmethod
    def exchangeable(cls, d: int, gamma: float) -> HuslerReiss:
        """The same semivariogram entry gamma for every pair of d variables."""
        return cls(gamma * (np.ones((d, d)) - np.eye(d)))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def _pivot_probability(self, u, j, idx, direction, n_points, seed):
        g = self.gamma
        gj = g[idx, j]
        cov = _hr_sigma_minus_j(g, j)
        if direction == "min":
            x = np.log(u[j]) - np.log(u[idx]) - gj
        else:
            x = np.log(u[idx]) - np.log(u[j]) + gj
        if u.size == 2:
            return float(ndtr(x[0] / np.sqrt(max(cov[0, 0], 1e-300)))), 0.0
        return mvn_cdf(x, np.zeros(u.size - 1), cov, n_points, seed)

    def pivot_block(self, j, k, n, rng, kind, flags):
        """Log-Gaussian angles: exact for sum, Gibbs-truncated for max."""
        g = self.gamma
        d = g.shape[0]
        idx = [i for i in range(d) if i != j]
        mean = -g[idx, j]
        cov = _hr_sigma_minus_j(g, j) + 1e-12 * np.eye(d - 1)
        chol = np.linalg.cholesky(cov)
        omega = np.empty((n, d))
        omega[:, j] = 1.0
        if kind == "sum":
            w = mean + rng.standard_normal((n, d - 1)) @ chol.T
        else:
            w = _gibbs_truncated_normal(mean, cov, np.log(k[idx]), n, rng)
            if "hr-gibbs-approximate" not in flags:
                flags.append("hr-gibbs-approximate")
        omega[:, idx] = np.exp(w)
        return omega


@dataclass(frozen=True)
class ExtremalStudent(_QmcFamily):
    """Extremal Student family: correlation matrix and degrees of freedom."""

    sigma: np.ndarray
    nu: float

    sample_kinds = ()
    sample_error = "extremal Student sampling is not supported"

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if not np.allclose(s, s.T, atol=1e-10):
            raise ValueError("sigma must be symmetric")
        if not np.allclose(np.diag(s), 1.0, atol=1e-10):
            raise ValueError("sigma must have unit diagonal")
        if np.linalg.eigvalsh(s).min() < -1e-8:
            raise ValueError("sigma must be positive semi-definite")
        if not self.nu > 0.0:
            raise ValueError("nu must be positive")
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def _pivot_probability(self, u, j, idx, direction, n_points, seed):
        sg, nu = self.sigma, self.nu
        sj = sg[idx, j]
        shape = (sg[np.ix_(idx, idx)] - np.outer(sj, sj)) / (nu + 1.0)
        ratio = (u[idx] / u[j]) ** (1.0 / nu)
        if direction == "min":
            x, loc = -ratio, -sj
        else:
            x, loc = ratio, sj
        if u.size == 2:
            return float(stdtr(nu + 1.0, (x[0] - loc[0]) / np.sqrt(max(shape[0, 0], 1e-300)))), 0.0
        return mvt_cdf(x, loc, shape, nu + 1.0, n_points, seed)


def _hr_sigma_minus_j(gamma: np.ndarray, j: int) -> np.ndarray:
    idx = [i for i in range(gamma.shape[0]) if i != j]
    gj = gamma[idx, j]
    return gj[:, None] + gj[None, :] - gamma[np.ix_(idx, idx)]


def _gibbs_truncated_normal(mean, cov, upper, n, rng):
    """Coordinatewise Gibbs for N(mean, cov) truncated to w <= upper."""
    d = mean.size
    prec = np.linalg.inv(cov)
    cond_sd = 1.0 / np.sqrt(np.diag(prec))
    w = np.minimum(mean, upper - 0.1 * np.abs(upper) - 0.1)
    w = np.tile(w, (n, 1))
    for _ in range(GIBBS_SWEEPS):
        for i in range(d):
            # conditional mean given the other coordinates
            resid = (w - mean) @ prec[:, i] - (w[:, i] - mean[i]) * prec[i, i]
            mu_i = mean[i] - resid / prec[i, i]
            cap = ndtr((upper[i] - mu_i) / cond_sd[i])
            u = rng.random(n) * np.maximum(cap, 1e-300)
            w[:, i] = mu_i + cond_sd[i] * ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    return w


def check_model(model) -> MgpdModel:
    """``model`` itself if it is a dependence family; TypeError otherwise."""
    if not isinstance(model, MgpdModel):
        raise TypeError(f"unsupported model {type(model).__name__}")
    return model


def _check_u(u, dim: int | None = None) -> np.ndarray:
    """Positive finite thresholds, ``dim`` of them when it is given."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size < 1 or np.any(u <= 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("u must be componentwise positive and finite")
    if dim is not None and dim != u.size:
        raise ValueError(f"model dimension {dim} does not match u ({u.size})")
    return u


def _subset_sums(a: np.ndarray):
    """All subset sums of ``a`` with subset sizes, by iterative doubling."""
    sums = np.zeros(1)
    sizes = np.zeros(1, dtype=np.int64)
    for v in a:
        sums = np.concatenate([sums, sums + v])
        sizes = np.concatenate([sizes, sizes + 1])
    return sums, sizes


def _alternating_fsum(values: np.ndarray, sizes: np.ndarray) -> float:
    """Compensated alternating sum with a grouped-reordering cross-check."""
    signed = np.where(sizes % 2 == 0, values, -values)
    direct = math.fsum(signed)
    grouped = math.fsum(
        ((-1.0) ** s) * math.fsum(values[sizes == s])
        for s in range(int(sizes.max()) + 1))
    scale = max(abs(direct), abs(grouped), 1e-300)
    if abs(direct - grouped) > 1e-8 * scale:
        warnings.warn("alternating-sum cancellation detected in the logistic "
                      "measure; results may lose precision", RuntimeWarning)
    return direct


def _logistic_xi_equal(d: int, beta: float, u: float) -> float:
    """Equal-threshold shortcut: (D/u) sum_k C(D-1,k)(-1)^k (1+k)^(1/beta-1)."""
    ks = np.arange(d)
    terms = np.array([math.comb(d - 1, int(k)) * (1.0 + k) ** (1.0 / beta - 1.0)
                      for k in ks])
    return d / u * _alternating_fsum(terms, ks)


def pivot_weights(model: MgpdModel, u, direction: str,
                  n_points: int = 100_000, seed: int = 0) -> np.ndarray:
    """Unnormalized pivot weights: the j-th term of Xi(u) (``min``) or V(u) (``max``)."""
    u = _check_u(u, check_model(model).dim)
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    return model.pivot_weights(u, direction, n_points, seed)[0]


def xi_measure(model: MgpdModel, u, n_points: int = 100_000, seed: int = 0,
               return_se: bool = False):
    """Joint-exceedance measure Xi(u): intensity of {min_j Y_j/u_j > 1}.

    Gaussian/Student CDF terms are estimated by quasi-Monte Carlo with the
    given budget; ``return_se`` also reports the aggregated standard error
    (zero for the closed-form families).
    """
    u = _check_u(u, check_model(model).dim)
    val, se = model.xi(u, n_points, seed)
    return (val, se) if return_se else val


def exponent_measure_v(model: MgpdModel, u, n_points: int = 100_000,
                       seed: int = 0, return_se: bool = False):
    """Exponent measure V(u): intensity of {max_j Y_j/u_j > 1}."""
    u = _check_u(u, check_model(model).dim)
    val, se = model.v(u, n_points, seed)
    return (val, se) if return_se else val


def model_chi(model: MgpdModel, d: int, n_points: int = 100_000,
              seed: int = 0) -> float:
    """Model-implied d-variate tail correlation Xi(1_d)."""
    return float(xi_measure(model, np.ones(d), n_points=n_points, seed=seed))


@dataclass
class CensoredFit:
    """Censored-likelihood fit of a one-parameter dependence family."""

    estimate: float
    se: float | None
    loglik: float
    n_rows: int
    n_dropped: int
    converged: bool
    flags: list[str] = field(default_factory=list)


def _logistic_censored_nll(Y, u, censor):
    """Build the vectorized negative log likelihood for the logistic family."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    u = _check_u(u)
    censor = np.asarray(censor, dtype=float).ravel()
    if censor.size == 1:
        censor = np.full(u.size, censor[0])
    if Y.shape[1] != u.size or censor.size != u.size:
        raise ValueError("Y, u, censor dimensions must agree")
    rows = np.max(Y / u, axis=1) > 1.0
    Ye = Y[rows]
    if Ye.shape[0] == 0:
        raise ValueError("no exceedance rows above the thresholds")
    M = Ye > censor
    m_r = M.sum(axis=1)
    dropped = int(np.count_nonzero(m_r == 0))
    keep = m_r > 0
    Ye, M, m_r = Ye[keep], M[keep], m_r[keep]
    Yt = np.where(M, Ye, censor)
    log_y_unc = np.where(M, np.log(Yt), 0.0).sum(axis=1)
    d = u.size

    def nll(beta: float) -> float:
        if beta <= 1.0 + 1e-9:
            return np.inf
        T = np.sum(Yt ** (-beta), axis=1)
        # cumulative log prod_{k=1}^{m-1} (k beta - 1), indexed by m
        ks = np.arange(1, d)
        cum = np.concatenate([[0.0], np.cumsum(np.log(ks * beta - 1.0))])
        ll = (cum[m_r - 1] - (beta + 1.0) * log_y_unc
              + (1.0 / beta - m_r) * np.log(T))
        v_u = np.sum(u ** (-beta)) ** (1.0 / beta)
        return -float(ll.sum() - Ye.shape[0] * np.log(v_u))

    return nll, Ye.shape[0], dropped


def fit_logistic_censored(Y, u, censor) -> CensoredFit:
    """Censored maximum likelihood for the logistic dependence parameter.

    ``Y`` is on the unit-Frechet scale; rows with max_j Y_j/u_j > 1 enter
    the likelihood, components below their censor level contribute through
    partial derivatives of V evaluated at the censor level, and the density
    is normalized by V(u).  Fully censored rows are dropped and counted.
    """
    nll, n_rows, dropped = _logistic_censored_nll(Y, u, censor)
    res = minimize_scalar(nll, bounds=(1.0 + 1e-6, 50.0), method="bounded",
                          options={"xatol": 1e-10, "maxiter": 500})
    if not res.success:
        raise RuntimeError("censored logistic fit did not converge")
    beta = float(res.x)
    flags: list[str] = []
    if beta > 49.0:
        flags.append("beta-at-upper-bound")
    hess = numeric_hessian(lambda t: nll(t[0]), np.array([beta]))
    cov = covariance_from_hessian(hess, flags)
    se = float(np.sqrt(cov[0, 0])) if cov is not None else None
    return CensoredFit(beta, se, -float(res.fun), n_rows, dropped,
                       bool(res.success), flags)


def _hr_pair_terms(x, y, cx, cy, ux, uy):
    """Censored bivariate Huesler-Reiss log likelihood contributions, as a
    function of gamma; the censoring classes and the log terms free of
    gamma are built once.  A(p, q) = a/2 + log(q/p)/a takes log(q/p)."""
    both = (x > cx) & (y > cy)
    only_x = (x > cx) & ~(y > cy)
    only_y = ~(x > cx) & (y > cy)
    log_both = np.log(y[both] / x[both]), 2.0 * np.log(x[both]), np.log(y[both])
    censored = [(rows, -2.0 * np.log(v[rows]), np.log(c / v[rows]))
                for rows, v, c in ((only_x, x, cy), (only_y, y, cx))]
    log_u = np.log(uy / ux), np.log(ux / uy)

    def terms(gamma):
        a = np.sqrt(2.0 * gamma)
        ll = np.zeros(x.size)
        arg = 0.5 * a + log_both[0] / a
        ll[both] = (-0.5 * arg ** 2 - 0.5 * np.log(2.0 * np.pi)
                    - np.log(a) - log_both[1] - log_both[2])
        for rows, fixed, log_ratio in censored:
            ll[rows] = fixed + log_ndtr(0.5 * a + log_ratio / a)
        v_u = (ndtr(0.5 * a + log_u[0] / a) / ux
               + ndtr(0.5 * a + log_u[1] / a) / uy)
        return ll - np.log(v_u)

    return terms


def fit_hr_exchangeable(Y, u, censor) -> CensoredFit:
    """Pairwise censored composite likelihood for an exchangeable variogram.

    All variable pairs share a single semivariogram entry gamma; each pair
    contributes its bivariate censored log likelihood over rows exceeding
    the pairwise threshold.  The standard error comes from a leave-one-pair-
    out jackknife of the composite estimate (observed information when only
    one pair exists).  Raises ValueError when no row exceeds the thresholds.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    u = _check_u(u)
    censor = np.asarray(censor, dtype=float).ravel()
    if censor.size == 1:
        censor = np.full(u.size, censor[0])
    d = u.size
    if Y.shape[1] != d or censor.size != d:
        raise ValueError("Y, u, censor dimensions must agree")
    n_rows = int(np.count_nonzero(np.max(Y / u, axis=1) > 1.0))
    if n_rows == 0:
        raise ValueError("no exceedance rows above the thresholds")
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    pair_terms = {}
    for (i, j) in pairs:
        rows = (Y[:, i] / u[i] > 1.0) | (Y[:, j] / u[j] > 1.0)
        pair_terms[i, j] = _hr_pair_terms(Y[rows, i], Y[rows, j], censor[i],
                                          censor[j], u[i], u[j])

    def pair_nll(gamma: float, pair_subset) -> float:
        if gamma <= 1e-8:
            return np.inf
        total = 0.0
        for pair in pair_subset:
            total -= float(pair_terms[pair](gamma).sum())
        return total

    def fit_subset(pair_subset) -> float:
        res = minimize_scalar(lambda g: pair_nll(np.exp(g), pair_subset),
                              bounds=(np.log(1e-4), np.log(100.0)),
                              method="bounded",
                              options={"xatol": 1e-10, "maxiter": 500})
        if not res.success:
            raise RuntimeError("composite Huesler-Reiss fit did not converge")
        return float(np.exp(res.x))

    gamma_hat = fit_subset(pairs)
    flags: list[str] = []
    if len(pairs) == 1:
        hess = numeric_hessian(lambda t: pair_nll(t[0], pairs), np.array([gamma_hat]))
        cov = covariance_from_hessian(hess, flags)
        se = float(np.sqrt(cov[0, 0])) if cov is not None else None
    else:
        # leave-one-pair-out jackknife of the composite estimator
        loo = np.array([fit_subset([p for p in pairs if p != drop])
                        for drop in pairs])
        npair = len(pairs)
        se = float(np.sqrt((npair - 1) / npair * np.sum((loo - loo.mean()) ** 2)))
        flags.append("composite-jackknife-se")
    return CensoredFit(gamma_hat, se, -pair_nll(gamma_hat, pairs), n_rows, 0, True,
                       flags)


def joint_exceedance_prob(model: MgpdModel, Y, u, s,
                          n_points: int = 100_000, seed: int = 0) -> float:
    """Joint tail probability: [Xi(s)/V(u)] x empirical max-exceedance rate.

    ``s`` is the target level vector (componentwise at or above ``u``); the
    empirical factor is the fraction of rows with max_j Y_j/u_j > 1.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    u = _check_u(u)
    s = _check_u(s)
    if np.any(s < u):
        raise ValueError("target levels must be at or above the thresholds")
    frac = float(np.mean(np.max(Y / u, axis=1) > 1.0))
    xi = xi_measure(model, s, n_points=n_points, seed=seed)
    v = exponent_measure_v(model, u, n_points=n_points, seed=seed)
    return xi / v * frac


@dataclass(frozen=True)
class NamedFamily:
    """A one-parameter family as chosen by name.

    ``model(value, d)`` is the d-variate model at the scalar parameter
    called ``parameter``; ``fit(Y, u, censor)`` is the family's censored
    fitter, None when it has none.
    """

    parameter: str
    model: Callable[[float, int], MgpdModel]
    fit: Callable[..., CensoredFit] | None = None


# The fitters are looked up when called, so that rebinding the module
# attributes (as the benchmark's tracer does) takes effect here too.
FAMILIES = {
    "logistic": NamedFamily("beta", lambda beta, d: Logistic(beta),
                            lambda Y, u, censor: fit_logistic_censored(Y, u, censor)),
    "neglogistic": NamedFamily("theta", lambda theta, d: NegLogistic(theta)),
    "hr": NamedFamily("gamma", lambda gamma, d: HuslerReiss.exchangeable(d, gamma),
                      lambda Y, u, censor: fit_hr_exchangeable(Y, u, censor)),
}


def fitted_family(name: str) -> NamedFamily:
    """The named family; it must have a censored fitter."""
    family = FAMILIES.get(name)
    if family is None or family.fit is None:
        raise ValueError(f"unknown fitter {name!r}")
    return family
