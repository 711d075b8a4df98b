"""Parametric multivariate generalized Pareto dependence families.

Implements the closed-form joint-exceedance measure Xi(u), the intensity of
{min_j Y_j/u_j > 1} for the limiting point process, together with the
exponent measure V(u) (intensity of {max_j Y_j/u_j > 1}), model-implied
tail correlation, censored likelihood fitting for the logistic family and a
pairwise composite fit for the exchangeable Huesler-Reiss family.

Every family is a :class:`MgpdModel`: it supplies its own pivot weights
(the per-pivot terms of Xi and V), any closed forms for Xi and V, and the
pivot-block sampler used by composition sampling (``simulate``).  The
logistic families' weights are exact Gamma mixtures (see ``_IidFamily``).

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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erfcx, gammaln, log_ndtr, ndtr

from ._optim import concave_mode, covariance_from_hessian, minimize_nll
from .mvnt import mvn_cdf, mvt_cdf


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

    def pivot_block(self, j: int, k: np.ndarray, n: int, rng,
                    kind: str) -> np.ndarray:
        """(n, D) angles omega = Z/Z_j given that pivot j is the scaled
        extreme for the functional ``kind``; ``k`` is u / u_j."""
        raise NotImplementedError


class _IidFamily(MgpdModel):
    """Families with iid generators Z = c T^p, T ~ Exp(1), for one exponent
    ``_exponent`` = p; the scale c cancels from every angle Z_i / Z_j.

    Given pivot j, let q = 1 + p and a_i = (u_i / u_j)^(1/p).  The pivot's
    T = t is size-biased, Gamma(q).  By the sign of p, a companion's event
    Z_i >= (u_i / u_j) Z_j (``min``) or Z_i <= (u_i / u_j) Z_j (``max``) is
    a *tail* T_i >= a_i t, of probability e^(-a_i t), or a *head* T_i <=
    a_i t, of probability 1 - e^(-a_i t).  Pivot j's weight is
    E prod_i P_i(T) / u_j over T ~ Gamma(q).  As x^(-q) = Gamma(q)^(-1)
    int t^(q-1) e^(-t x) dt, that is (1 + sum a_i)^(-q) / u_j for tails;
    for heads it is the alternating power-set sum of such terms, taken
    instead as one integral (``_head_log_mass``).  Composition sampling
    draws t from this weighted Gamma(q) (``_head_pivots`` for heads), a
    tail's T_i - a_i t as Exp(1) and a head's T_i as a truncated
    exponential; under ``sum`` every companion is a tail with a_i = 0.
    """

    def pivot_weights(self, u, direction, n_points, seed):
        p = self._exponent
        q = 1.0 + p
        tail = (direction == "min") == (p > 0.0) or u.size == 1
        log_mass = np.empty(u.size)
        for j in range(u.size):
            # in logs, an a_i that overflows or underflows gives no NaN
            log_a = np.log(np.delete(u, j) / u[j]) / p
            log_mass[j] = (-q * np.logaddexp.reduce(log_a, initial=0.0) if tail
                           else _head_log_mass(q, log_a))
        return np.exp(log_mass) / u, np.zeros(u.size)

    def pivot_block(self, j, k, n, rng, kind):
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


def _head_log_mass(q, log_a):
    """log E prod_i (1 - e^(-a_i T)) over T ~ Gamma(q), q > 0, from log a.

    In s = log t, Gamma(q) times the mean integrates e^g(s), g = q s - e^s +
    sum_i log(1 - e^(-x_i)), x_i = a_i e^s.  With f(x) = x / (e^x - 1) in
    [1 - x/2, 1], g' = q - e^s + sum_i f(x_i) and g'' = -e^s + sum_i [f (1 -
    f) - f x_i] < 0, so the mode of m companions lies in [log((q + m) / (1
    + sum a_i / 2)), log(q + m)].  The integrand is analytic in |Im s| <
    pi/2, where the trapezoid rule converges exponentially (Trefethen &
    Weideman 2014): step min(0.45 (-g'')^(-1/2), 0.2) from the mode out to
    where g is 40 below its maximum.
    """

    def derivs(s):
        x = np.exp(np.clip(s + log_a, -700.0, 700.0))
        f = x * np.exp(-x) / -np.expm1(-x)
        return q - np.exp(s) + f.sum(), -np.exp(s) + np.sum(f * (1.0 - f) - f * x)

    def g(s):
        lx = np.add.outer(s, log_a)
        # below x = e^-700, log(1 - e^-x) is log x to double precision, and
        # above e^700 it is 0
        head = np.log(-np.expm1(-np.exp(np.clip(lx, -700.0, 700.0))))
        return q * s - np.exp(s) + np.sum(head + np.minimum(lx + 700.0, 0.0), axis=-1)

    hi = np.log(q + log_a.size)
    lo = hi - np.logaddexp.reduce(log_a, initial=np.log(2.0)) + np.log(2.0)
    mode, curvature = concave_mode(derivs, lo, hi, hi)
    h = min(0.45 / np.sqrt(-curvature), 0.2)
    top = g(mode)
    n_lo = n_hi = 16
    while g(mode - n_lo * h) > top - 40.0:
        n_lo *= 2
    while g(mode + n_hi * h) > top - 40.0:
        n_hi *= 2
    nodes = g(mode + h * np.arange(-n_lo, n_hi + 1))
    return top + np.log(h * np.sum(np.exp(nodes - top))) - gammaln(q)


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
    probabilities; ``_pivot_probability`` gives pivot j's (p, standard
    error), and its weight is p / u_j.  A term is exact, with zero error, in
    one dimension and, for Huesler-Reiss, whenever pivot j's covariance is
    one factor with loadings at most 2 (every exchangeable gamma; see
    ``mvnt._one_factor``); any other is estimated by quasi-Monte Carlo."""

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

    def xi(self, u, n_points, seed):
        return float(np.sum(u ** self.theta) ** (-1.0 / self.theta)), 0.0

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
        if g.shape[0] < 2:
            raise ValueError("Huesler-Reiss gamma must cover at least two variables")
        if not np.allclose(g, g.T, atol=1e-10):
            raise ValueError("gamma must be symmetric")
        if np.any(np.abs(np.diag(g)) > 1e-12):
            raise ValueError("gamma must have a zero diagonal")
        if np.any(g[~np.eye(g.shape[0], dtype=bool)] <= 0.0):
            raise ValueError("off-diagonal gamma entries must be positive")
        for j in range(g.shape[0]):
            if np.linalg.eigvalsh(_hr_pivot_law(g, j)[1]).min() < -1e-8:
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
        mean, cov = _hr_pivot_law(self.gamma, j)
        log_k = np.log(u[idx]) - np.log(u[j])
        if direction == "min":  # P(w >= log k) = P(-w <= -log k)
            return mvn_cdf(-log_k, -mean, cov, n_points, seed)
        return mvn_cdf(log_k, mean, cov, n_points, seed)

    def pivot_block(self, j, k, n, rng, kind):
        """Log-Gaussian angles, exact: ``sum`` draws pivot j's law once, and
        ``max`` keeps the draws with w <= log k by plain rejection (Devroye
        1986, ch. II.3).  Pivot j is drawn with probability
        (p_j / u_j) / V(u) and accepts with probability p_j, so the expected
        proposals over all pivots are n sum_j (1 / u_j) / V(u) <= n D."""
        d = k.size
        idx = [i for i in range(d) if i != j]
        mean, cov = _hr_pivot_law(self.gamma, j)
        chol = np.linalg.cholesky(cov + 1e-12 * np.eye(d - 1))
        omega = np.empty((n, d))
        omega[:, j] = 1.0
        if kind == "sum":
            w = mean + rng.standard_normal((n, d - 1)) @ chol.T
        else:
            upper = np.log(k[idx])
            w = np.empty((n, d - 1))
            filled = drawn = 0
            while filled < n:
                # size the batch from the acceptance rate so far, capped
                # to bound the memory
                need = (n - filled) * (drawn + 1) / (filled + 1)
                size = min(max(math.ceil(1.1 * need), 256), 1 << 16)
                cand = mean + rng.standard_normal((size, d - 1)) @ chol.T
                keep = cand[np.all(cand <= upper, axis=1)][:n - filled]
                w[filled:filled + len(keep)] = keep
                filled += len(keep)
                drawn += size
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
        return mvt_cdf(x, loc, shape, nu + 1.0, n_points, seed)


def _hr_pivot_law(gamma: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of pivot j's Gaussian angle w = log(Z_i / Z_j),
    i != j: mean -Gamma_ij, covariance Gamma_ij + Gamma_kj - Gamma_ik."""
    idx = [i for i in range(gamma.shape[0]) if i != j]
    gj = gamma[idx, j]
    return -gj, gj[:, None] + gj[None, :] - gamma[np.ix_(idx, idx)]


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

    Exact for the logistic families in any dimension.  Gaussian/Student CDF
    terms are estimated by quasi-Monte Carlo with the given budget, except
    the exact one-factor Huesler-Reiss terms (every exchangeable model; see
    ``_QmcFamily``), which ignore ``n_points`` and ``seed``; ``return_se``
    also reports the aggregated standard error (zero for the logistic
    families and exact terms).
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
    flags: list[str] = field(default_factory=list)


def _censored_input(Y, u, censor):
    """Checked (Y, u, censor) of a censored fit and the mask of the rows
    with max_j Y_j/u_j > 1; ValueError for one column (no dependence to
    fit) or when no row exceeds."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    u = _check_u(u)
    if u.size < 2:
        raise ValueError("a dependence fit needs at least two columns")
    censor = np.asarray(censor, dtype=float).ravel()
    censor = np.full(u.size, censor[0]) if censor.size == 1 else censor
    if Y.shape[1] != u.size or censor.size != u.size:
        raise ValueError("Y, u, censor dimensions must agree")
    rows = (Y / u > 1.0).any(axis=1)
    if not rows.any():
        raise ValueError("no exceedance rows above the thresholds")
    return Y, u, censor, rows


def _fit_scalar(parts, start, low, high, name):
    """(x, nll) minimizing ``parts``: x -> (nll, d/dx, d2/dx2) over [low,
    high] by ``minimize_nll`` from ``start``, evaluating ``parts`` once per
    x; RuntimeError naming the ``name`` fit when it does not converge."""
    last = functools.lru_cache(maxsize=1)(lambda x: np.asarray(parts(x)))
    x, val, ok = minimize_nll(lambda t: last(t[0])[0], [start],
                              lambda t: (last(t[0])[1:2], last(t[0])[2:, None]), [(low, high)])
    if not ok:
        raise RuntimeError(f"{name} did not converge")
    return float(x[0]), val


def _scalar_se(info, flags):
    cov = covariance_from_hessian(np.array([[info]]), flags)
    return float(np.sqrt(cov[0, 0])) if cov is not None else None


def _log_power_sum(log_y, beta):
    """log T, T'/T and T''/T - (T'/T)^2 for T = sum_i y_i^-beta over the
    first axis of ``log_y`` = log y, derivatives in beta."""
    p = np.exp(-beta * log_y)
    t = p.sum(axis=0)
    d1 = -(p * log_y).sum(axis=0) / t
    return np.log(t), d1, (p * (log_y + d1) ** 2).sum(axis=0) / t


def _logistic_censored_nll(Y, u, censor):
    """(beta -> (nll, d/dbeta, d2/dbeta2), rows used, rows dropped) of the
    censored logistic likelihood sum_r [sum_(k<m) log(k beta - 1) - (beta +
    1) sum log y_unc + (1/beta - m) log T] - (n/beta) log S, for m the
    uncensored components of a row, T = sum_i y_i^-beta over the row
    (censored ones at their censor level) and S = sum_j u_j^-beta; the
    first sum is over k = 1..d-1, weighted by the rows with m > k."""
    Y, u, censor, rows = _censored_input(Y, u, censor)
    Ye = Y[rows]
    M = Ye > censor
    m_r = M.sum(axis=1)
    keep = m_r > 0
    Ye, M, m_r = Ye[keep], M[keep], m_r[keep]
    log_yt = np.log(np.where(M, Ye, censor).T, order="C")  # (d, rows)
    sum_log_unc = float(np.sum(log_yt[M.T]))
    ks = np.arange(1, u.size)
    n_above = np.count_nonzero(m_r[:, None] > ks, axis=0)

    def parts(beta):
        kb = ks * beta - 1.0
        ll = np.array([n_above @ np.log(kb) - (beta + 1.0) * sum_log_unc,
                       n_above @ (ks / kb) - sum_log_unc, -n_above @ (ks / kb) ** 2])
        b = 1.0 / beta
        # (1/beta - m) log T per row, and the normalizer -(n/beta) log S
        for log_y, m, weight in ((log_yt, m_r, 1.0), (np.log(u)[:, None], 0, -m_r.size)):
            lt, lt1, lt2 = _log_power_sum(log_y, beta)
            c = b - m
            ll += weight * np.array([np.sum(c * lt), np.sum(c * lt1 - b * b * lt),
                                     np.sum(c * lt2 - 2.0 * b * b * (lt1 - b * lt))])
        return -ll

    return parts, m_r.size, int(np.count_nonzero(~keep))


def fit_logistic_censored(Y, u, censor) -> CensoredFit:
    """Censored maximum likelihood for the logistic dependence parameter.

    ``Y`` is on the unit-Frechet scale; rows with max_j Y_j/u_j > 1 enter
    the likelihood, components below their censor level contribute through
    partial derivatives of V evaluated at the censor level, and the density
    is normalized by V(u).  Fully censored rows are dropped and counted.
    beta is fitted by Newton on the closed-form derivatives in [1 + 1e-6,
    50]; its standard error is the observed information's.
    """
    parts, n_rows, dropped = _logistic_censored_nll(Y, u, censor)
    beta, val = _fit_scalar(parts, 2.0, 1.0 + 1e-6, 50.0, "censored logistic fit")
    flags = ["beta-at-upper-bound"] if beta > 49.0 else []
    return CensoredFit(beta, _scalar_se(parts(beta)[2], flags), -val, n_rows, dropped, flags)


def _hr_pair_terms(x, y, cx, cy, ux, uy):
    """theta -> (nll, d/dtheta, d2/dtheta2) of the censored bivariate
    Huesler-Reiss likelihood of columns x and y, over the rows exceeding
    (ux, uy), in theta = log gamma; the censoring classes and the log terms
    free of gamma are built once.

    Every argument is A = a/2 + L/a in a = sqrt(2 gamma), so da/dtheta =
    a/2, d2a/dtheta2 = a/4, dA/da = 1/2 - L/a^2 and d2A/da2 = 2L/a^3.  A
    censored term log Phi(A) has derivative r = phi(A)/Phi(A), whose own
    derivative is -r (A + r); r is taken as sqrt(2/pi) / erfcx(-A/sqrt(2)),
    as in ``condex.skewnorm_logpdf_derivs``.
    """
    rows = (x / ux > 1.0) | (y / uy > 1.0)
    x, y = x[rows], y[rows]
    ox, oy = x > cx, y > cy
    both, only_x, only_y = ox & oy, ox & ~oy, ~ox & oy
    n_both = int(np.count_nonzero(both))
    l_both = np.log(y[both] / x[both])
    l_cens = np.concatenate([np.log(cy / x[only_x]), np.log(cx / y[only_y])])
    fixed = -(2.0 * np.sum(np.log(x[ox])) + np.sum(np.log(y[oy])) + np.sum(np.log(y[only_y]))
              + 0.5 * np.log(2.0 * np.pi) * n_both)
    l_u, w_u = np.log([uy / ux, ux / uy]), np.array([1.0 / ux, 1.0 / uy])

    def terms(theta):
        a = np.sqrt(2.0 * np.exp(theta))

        def arg(L):
            return 0.5 * a + L / a, 0.5 - L / a ** 2, 2.0 * L / a ** 3

        A, A1, A2 = arg(l_both)  # uncensored: -A^2/2 - log a
        ll = np.array([fixed - 0.5 * A @ A - n_both * np.log(a),
                       -A @ A1 - n_both / a, -(A1 @ A1 + A @ A2) + n_both / a ** 2])
        A, A1, A2 = arg(l_cens)  # censored: log Phi(A)
        r = np.sqrt(2.0 / np.pi) / erfcx(-A / np.sqrt(2.0))
        ll += [np.sum(log_ndtr(A)), r @ A1, -(r * (A + r)) @ A1 ** 2 + r @ A2]
        A, A1, A2 = arg(l_u)  # the normalizer -log V(u) on every row
        phi = w_u * np.exp(-0.5 * A * A) / np.sqrt(2.0 * np.pi)
        v, v1, v2 = ndtr(A) @ w_u, phi @ A1, phi @ (A2 - A * A1 ** 2)
        ll -= x.size * np.array([np.log(v), v1 / v, v2 / v - (v1 / v) ** 2])
        return -ll[0], -0.5 * a * ll[1], -0.25 * a * (a * ll[2] + ll[1])

    return terms


def fit_hr_exchangeable(Y, u, censor) -> CensoredFit:
    """Pairwise censored composite likelihood for an exchangeable variogram.

    All variable pairs share a single semivariogram entry gamma; each pair
    contributes its bivariate censored log likelihood over rows exceeding
    the pairwise threshold.  log gamma is fitted by Newton on the
    closed-form derivatives in [log 1e-4, log 100].  The standard error
    comes from a leave-one-pair-out jackknife of the composite estimate
    (Varin, Reid & Firth 2011), each refit started at the full estimate;
    with one pair it is the observed information's, in gamma.  Raises
    ValueError when no row exceeds the thresholds.
    """
    Y, u, censor, rows = _censored_input(Y, u, censor)
    pair_terms = [_hr_pair_terms(Y[:, i], Y[:, j], censor[i], censor[j], u[i], u[j])
                  for i in range(u.size) for j in range(i + 1, u.size)]

    def fit(drop, start):  # log gamma, leaving out pair number ``drop``
        def parts(theta):
            return np.sum([f(theta) for k, f in enumerate(pair_terms) if k != drop], axis=0)
        return _fit_scalar(parts, start, np.log(1e-4), np.log(100.0), "composite Huesler-Reiss fit")

    theta, val = fit(None, 0.0)
    gamma_hat = float(np.exp(theta))
    npair = len(pair_terms)
    flags: list[str] = []
    if npair == 1:
        _, g, h = pair_terms[0](theta)
        se = _scalar_se((h - g) / gamma_hat ** 2, flags)
    else:
        loo = np.exp([fit(drop, theta)[0] for drop in range(npair)])
        se = float(np.sqrt((npair - 1) / npair * np.sum((loo - loo.mean()) ** 2)))
        flags.append("composite-jackknife-se")
    return CensoredFit(gamma_hat, se, -val, int(np.count_nonzero(rows)), 0, flags)


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
