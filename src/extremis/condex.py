"""Conditional extremes modelling on the Laplace scale.

Given a conditioning component above a high threshold, the remaining
components are represented as alpha * L0 + L0^beta * Z with a residual
vector Z.  Every fit is one pseudo-likelihood driver (``_fit_pairs``) run
over (conditioner, companion) pairs taken from one conditioning-set loop
(``_conditioning_sets``): the per-component Gaussian fit is that driver
applied once per companion, and the exchangeable Gaussian and skew-normal
fits apply it once to the pairs pooled over every conditioner.  The
residual laws carry their own fitting density, its per-point derivatives,
start and bounds.  ``_pair_objective`` chains those derivatives into the
closed-form score and observed information; each fit takes trust-region
Newton steps on them and its covariance from the same information.  The
module also extracts empirical residual pools, and estimates joint tail
probabilities three ways: forward simulation, a level-set estimator that
stays accurate far beyond Monte Carlo reach, and the two-level variant for
unequal target levels with permutation averaging.

The level-set estimators map each residual z to its level set
{y in [v, v + ROOT_CAP] : alpha y + y^beta z >= v} (``_level_sets``).
g(y) = alpha y + y^beta z has g' = alpha + beta z y^(beta - 1) with at most
one zero, where alpha and beta z differ in sign: for beta < 1 a peak where
alpha < 0 and a trough where alpha > 0.  So every set is [a, b] u [d, inf),
bisected on g's monotone sides; the second piece is there only where a
trough dips below v between two stretches above it, which on the fitting
box takes beta < 0.

g grows with z at every y > 0, so the sets of a row's entries nest and
their intersection is the set of the row minimum: ``ht_prob_analytic``
bisects row minima.  Where a set is a half-line bisected on
[v, v + ROOT_CAP] (every alpha, beta >= 0), the bisection predicate is
monotone in z in floating point, so the bisected root of a row minimum is
bit for bit the row maximum of the entries' roots.  The two-level
estimator writes each set as [a, inf) less one gap (b, d), the empty
(+inf, -inf) on a half-line: one group's nested sets at one level meet in
[max a, inf) less (min b, max d), and the two groups' gaps merge where
they overlap (gaps open to +inf always do).  Both estimators sum the
``_row_terms`` of their rows in linear space.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import log_ndtr

from ._optim import covariance_from_hessian, minimize_nll
from .core import MarginSpec, derive_rng, label_assignments
from .mvnt import _mills

ROOT_CAP = 500.0  # contributions beyond exp(-500) vanish in double precision
KAPPA_CAP = 50.0
DEPENDENCE_BOUNDS = [(-1.0, 1.0), (-5.0, 1.0)]  # (alpha, beta)
BLOCK_CELLS = 2**18  # (assignment, row) cells per two-level block


@dataclass(frozen=True)
class GaussianDiag:
    """Independent Gaussian residual components.

    ``kind`` names the law in payloads; ``fit_start``/``fit_bounds``,
    ``fit_logpdf`` and ``fit_derivs`` describe its fitted parameters
    (mu, sigma) to the HT fits.
    """

    mu: np.ndarray
    sigma: np.ndarray
    kind = "gaussian"
    fit_start = (0.0, 1.0)
    fit_bounds = ((None, None), (1e-8, None))

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sg = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if np.any(sg <= 0.0):
            raise ValueError("residual scales must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sg)

    @staticmethod
    def fit_logpdf(z, extra):
        """Log density of residuals z at (mu, sigma)."""
        mu, sg = extra
        zz = (z - mu) / sg
        return -np.log(sg) - 0.5 * zz * zz - 0.5 * np.log(2.0 * np.pi)

    @staticmethod
    def fit_derivs(z, extra):
        """Derivatives of ``fit_logpdf`` in (z, mu, sigma), laid out as
        ``skewnorm_logpdf_derivs`` gives them: its zero-slant slice."""
        g_z, h_z, g_sum, h_sum = skewnorm_logpdf_derivs(z, extra[0], extra[1], 0.0)
        return g_z, h_z[:3], g_sum[:2], h_sum[:2, :2]

    @classmethod
    def from_fit(cls, extra):
        """The law at fitted (mu, sigma), shared by every component, and its flags."""
        return cls(np.array([extra[0]]), np.array([extra[1]])), []

    def sample(self, shape, rng) -> np.ndarray:
        """iid draws at the components' mean location and scale."""
        mu = float(np.mean(self.mu))
        sg = float(np.mean(self.sigma))
        return mu + sg * rng.standard_normal(shape)


@dataclass(frozen=True)
class SkewNormal:
    """Skew-normal residual margin with location, scale and slant.

    The fitted slant is capped at |kappa| = KAPPA_CAP and flagged there.
    """

    nu: float
    omega: float
    kappa: float
    kind = "skewnormal"
    fit_start = (0.0, 1.0, 0.5)
    fit_bounds = ((None, None), (1e-8, None), (-KAPPA_CAP, KAPPA_CAP))

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")

    @staticmethod
    def fit_logpdf(z, extra):
        """Log density of residuals z at (nu, omega, kappa)."""
        return skewnorm_logpdf(z, *extra)

    @staticmethod
    def fit_derivs(z, extra):
        """Derivatives of ``fit_logpdf`` in (z, nu, omega, kappa), laid out
        as ``skewnorm_logpdf_derivs`` gives them."""
        return skewnorm_logpdf_derivs(z, *extra)

    @classmethod
    def from_fit(cls, extra):
        """The law at fitted (nu, omega, kappa) and its flags."""
        law = cls(*(float(x) for x in extra))
        return law, ["kappa-capped"] if abs(law.kappa) >= KAPPA_CAP - 1e-6 else []

    def sample(self, shape, rng) -> np.ndarray:
        return skewnorm_sample(shape, self.nu, self.omega, self.kappa, rng)


def skewnorm_logpdf(x, nu, omega, kappa):
    z = (np.asarray(x, dtype=float) - nu) / omega
    return (np.log(2.0) - np.log(omega) - 0.5 * z * z
            - 0.5 * np.log(2.0 * np.pi) + log_ndtr(kappa * z))


def skewnorm_logpdf_derivs(z, nu, omega, kappa):
    """Derivatives of ``skewnorm_logpdf`` in (z, nu, omega, kappa), in the
    form the HT pair objective chains them: per point, l_z (shape (n,)) and
    the Hessian's z row (shape (4, n)); summed over the points, the
    gradient (3,) and Hessian (3, 3) in the parameters (nu, omega, kappa).

    With w = (z - nu)/omega the log density is -log omega - w^2/2 +
    log Phi(kappa w) + const.  The ratio r = phi/Phi at s = kappa w, whose
    derivative is -r (s + r), is ``mvnt._mills``: it keeps full precision far
    in the lower tail, where phi and Phi both underflow and exp(log phi -
    log_ndtr) loses about s^2/2 ulps.
    """
    w = (np.asarray(z, dtype=float) - nu) / omega
    s = kappa * w
    r = _mills(s)
    dr = -r * (s + r)
    # h(w, kappa) = -w^2/2 + log Phi(kappa w), and w's derivatives in
    # (z, nu, omega); the second ones are (0, 0, -1; 0, 0, 1; -1, 1, 2w)/omega^2
    h_w = kappa * r - w
    h_ww = kappa * kappa * dr - 1.0
    inv = 1.0 / omega
    w_u = np.stack(np.broadcast_arrays(inv, -inv, -w * inv))
    h_wk = r + s * dr  # d2h / dw dkappa
    curv = h_w * inv * inv
    h_z = np.empty((4, w.size))
    h_z[:3] = h_ww * w_u[0] * w_u
    h_z[2] -= curv
    h_z[3] = h_wk * w_u[0]
    g_sum = np.array([(h_w * w_u[1]).sum(), (h_w * w_u[2] - inv).sum(),
                      (w * r).sum()])
    h_nu, h_omega = h_ww * w_u[1], h_ww * w_u[2]
    h_sum = np.empty((3, 3))
    h_sum[0, 0] = (h_nu * w_u[1]).sum()
    h_sum[0, 1] = (h_nu * w_u[2] + curv).sum()
    h_sum[1, 0] = (h_omega * w_u[1] + curv).sum()
    h_sum[1, 1] = (h_omega * w_u[2] + (2.0 * w * curv + inv * inv)).sum()
    h_sum[0, 2] = h_sum[2, 0] = (h_wk * w_u[1]).sum()
    h_sum[1, 2] = h_sum[2, 1] = (h_wk * w_u[2]).sum()
    h_sum[2, 2] = (w * w * dr).sum()
    return h_w * w_u[0], h_z, g_sum, h_sum


def skewnorm_sample(n, nu, omega, kappa, rng):
    delta = kappa / np.sqrt(1.0 + kappa * kappa)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    return nu + omega * (delta * np.abs(u0) + np.sqrt(1.0 - delta * delta) * u1)


@dataclass
class HtParams:
    """Fitted conditional-extremes dependence model.

    ``alpha``/``beta`` are per-companion arrays for the single-conditioner
    Gaussian fit and scalars for the exchangeable fit.  The residual pool
    is variable-aligned: one row per conditioning exceedance with NaN in
    the conditioning variable's slot; ``pool_cond`` records that slot.
    """

    alpha: np.ndarray | float
    beta: np.ndarray | float
    residual_law: GaussianDiag | SkewNormal
    threshold: float
    residual_pool: np.ndarray
    pool_cond: np.ndarray
    cond_index: int | None
    exchangeable: bool
    loglik: float = np.nan
    cov: np.ndarray | None = None
    se: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.residual_pool.shape[1]

    def dependence(self, j: int):
        """(alpha, beta) aligned to the companion columns of conditioner j."""
        d = self.dim
        if self.exchangeable:
            a = np.full(d - 1, float(self.alpha))
            b = np.full(d - 1, float(self.beta))
            return a, b
        if j != self.cond_index:
            raise ValueError("fit conditions on a different variable")
        return (np.asarray(self.alpha, dtype=float),
                np.asarray(self.beta, dtype=float))


def _check_laplace_threshold(u: float) -> None:
    if not u > 0.0:
        raise ValueError("Laplace-scale threshold must be positive")


def _conditioning_sets(L, u, conds):
    """For each conditioner j in ``conds`` with exceedances of u, yield
    (its values on those rows, the other columns on those rows, j)."""
    d = L.shape[1]
    for j in conds:
        exc = L[:, j] > u
        if exc.any():
            yield L[exc, j], L[exc][:, np.arange(d) != j], j


def _residual_pool(L, u, conds, alpha, beta):
    """Variable-aligned residual rows over the conditioning sets (NaN in the
    conditioner's slot) and each row's conditioner.  ``alpha``/``beta`` are
    scalars or per-companion arrays."""
    d = L.shape[1]
    blocks, cond = [], []
    for y0, comps, j in _conditioning_sets(L, u, conds):
        block = np.full((y0.size, d), np.nan)
        block[:, np.arange(d) != j] = (comps - alpha * y0[:, None]) / y0[:, None] ** beta
        blocks.append(block)
        cond.append(np.full(y0.size, j, dtype=int))
    return np.vstack(blocks), np.concatenate(cond)


def ht_residuals(L, j: int, params: HtParams) -> np.ndarray:
    """Empirical residuals (l_k - alpha l_j)/l_j^beta on conditioning exceedances."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    _check_laplace_threshold(params.threshold)
    for y0, comps, _ in _conditioning_sets(L, params.threshold, [j]):
        alpha, beta = params.dependence(j)
        return (comps - alpha * y0[:, None]) / y0[:, None] ** beta
    raise ValueError("no conditioning exceedances")


def _resolve_threshold(col, threshold, threshold_quantile) -> float:
    if (threshold is None) == (threshold_quantile is None):
        raise ValueError("give exactly one of threshold, threshold_quantile")
    if threshold is None:
        threshold = float(np.quantile(col, threshold_quantile))
    _check_laplace_threshold(threshold)
    return float(threshold)


def _pair_objective(y0, y, law):
    """(nll, derivs, box) of the HT pseudo-likelihood over pairs of a
    conditioner value y0 and a companion value y, with y = alpha y0 +
    y0^beta Z and Z of residual law class ``law``, in parameters
    (alpha, beta, *extra).

    ``nll`` is +inf outside ``box``, DEPENDENCE_BOUNDS x ``law.fit_bounds``.
    ``derivs`` gives its gradient and Hessian by chaining the law's
    per-point derivatives in (z, extra) through z = (y - alpha y0) y0^-beta,
    whose derivatives are z_a = -y0^(1-beta), z_b = -z log y0,
    z_ab = -z_a log y0, z_bb = -z_b log y0 and z_aa = 0; the Jacobian term
    -beta log y0 adds sum(log y0) to the beta gradient.
    """
    log_y0 = np.log(y0)
    sum_log_y0 = float(np.sum(log_y0))
    box = [*DEPENDENCE_BOUNDS, *law.fit_bounds]
    lo = np.array([-np.inf if b is None else b for b, _ in box])
    hi = np.array([np.inf if b is None else b for _, b in box])

    def nll(t):
        if not (np.all(t >= lo) and np.all(t <= hi)):
            return np.inf
        val = law.fit_logpdf((y - t[0] * y0) / y0 ** t[1], t[2:])
        return float(-np.sum(val - t[1] * log_y0))

    def derivs(t):
        y0_b = y0 ** -t[1]
        z = (y - t[0] * y0) * y0_b
        g_z, h_z, g_sum, h_sum = law.fit_derivs(z, t[2:])
        dz = np.stack([-y0 * y0_b, -z * log_y0])  # z_a, z_b
        k = t.size
        grad = np.empty(k)
        grad[:2] = dz @ g_z
        grad[1] -= sum_log_y0
        grad[2:] = g_sum
        hess = np.empty((k, k))
        hess[:2, :2] = (dz * h_z[0]) @ dz.T
        cross = -(g_z * log_y0) @ dz.T  # sums of l_z z_ab and l_z z_bb
        hess[0, 1] += cross[0]
        hess[1, 0] += cross[0]
        hess[1, 1] += cross[1]
        hess[:2, 2:] = dz @ h_z[1:].T
        hess[2:, :2] = hess[:2, 2:].T
        hess[2:, 2:] = h_sum
        return -grad, -hess

    return nll, derivs, box


def _fit_pairs(y0, y, law, start, boundary_flag, name):
    """Maximize the pair pseudo-likelihood of ``_pair_objective`` from
    ``start``.

    Returns (parameters, loglik, covariance, standard errors, flags); the
    covariance and standard errors are None when the observed information
    is degenerate.  The flags are ``boundary_flag`` at |alpha| = 1, then
    the covariance flags.  ``name`` says which fit failed to converge.
    """
    nll, derivs, box = _pair_objective(y0, y, law)
    flags: list[str] = []
    t, val, ok = minimize_nll(nll, start, derivs, bounds=box)
    if not ok:
        raise RuntimeError(f"{name} did not converge")
    if abs(abs(t[0]) - 1.0) < 1e-6:
        flags.append(boundary_flag)
    cov = covariance_from_hessian(derivs(t)[1], flags)
    se = np.sqrt(np.diag(cov)) if cov is not None else None
    return t, -val, cov, se, flags


def _slope_start(y0, y) -> float:
    """The fits' starting alpha: y's slope on y0, clipped to [-0.9, 0.9]."""
    return float(np.clip(np.cov(y0, y)[0, 1] / max(np.var(y0), 1e-12), -0.9, 0.9))


def fit_ht_gaussian(L, j: int, threshold: float | None = None,
                    threshold_quantile: float | None = None) -> HtParams:
    """Per-companion Gaussian pseudo-likelihood fit conditioning on column j.

    Each companion k gets its own (alpha_k, beta_k, mu_k, sigma_k) from the
    working model l_k ~ Normal(alpha l_j + mu l_j^beta, (sigma l_j^beta)^2)
    over conditioning exceedances: the pair driver run once per companion.
    Boundary alpha estimates are flagged.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    d = L.shape[1]
    u = _resolve_threshold(L[:, j], threshold, threshold_quantile)
    if int(np.sum(L[:, j] > u)) < 20:
        raise ValueError("need at least 20 conditioning exceedances")
    [(y0, comps, _)] = _conditioning_sets(L, u, [j])
    est = np.empty((d - 1, 4))
    ses = np.empty((d - 1, 4))
    flags: list[str] = []
    loglik = 0.0
    for c, k in enumerate(np.flatnonzero(np.arange(d) != j)):
        y = comps[:, c]
        start = np.array([_slope_start(y0, y), 0.2, 0.0, max(float(np.std(y)), 1e-3)])
        est[c], ll, _, se, fit_flags = _fit_pairs(
            y0, y, GaussianDiag, start, f"alpha-boundary:{k}",
            f"conditional fit for companion {k}")
        ses[c] = np.nan if se is None else se
        loglik += ll
        flags += fit_flags
    alphas, betas, mus, sigmas = est.T.copy()
    pool, conds = _residual_pool(L, u, [j], alphas, betas)
    return HtParams(alphas, betas, GaussianDiag(mus, sigmas), u, pool, conds,
                    j, False, loglik, None, ses, flags)


def _fit_exchangeable(L, threshold, threshold_quantile, law) -> HtParams:
    """Exchangeable fit of residual law class ``law``: the pair driver over
    every conditioner's exceedances against each of its companions, under
    shared parameters.  Pooling residuals over conditioners enlarges the
    empirical pool roughly m-fold."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    d = L.shape[1]
    if d < 2:
        raise ValueError("cluster size must be at least 2")
    u = _resolve_threshold(L.ravel(), threshold, threshold_quantile)
    if int(np.sum(L > u)) < 50:
        raise ValueError("need at least 50 pooled conditioning exceedances")
    sets = list(_conditioning_sets(L, u, range(d)))
    y0 = np.concatenate([np.tile(y0_j, d - 1) for y0_j, _, _ in sets])
    y = np.concatenate([comps.T.ravel() for _, comps, _ in sets])
    start = np.array([_slope_start(y0, y), 0.2, *law.fit_start])
    fit = _fit_pairs(y0, y, law, start, "alpha-boundary", "exchangeable conditional fit")
    t = fit[0]
    if law is SkewNormal and abs(t[4]) < 1e-3:
        # kappa = 0 at the Gaussian optimum is a stationary point of every
        # skew-normal likelihood, with a singular information (Azzalini
        # 1985), so Newton can stop there; the likelihood rises off it on
        # the side of the residuals' skewness (Pewsey 2000): refit from there
        w = ((y - t[0] * y0) / y0 ** t[1] - t[2]) / t[3]
        with contextlib.suppress(RuntimeError):
            refit = _fit_pairs(y0, y, law, np.array([*t[:4], np.sign(np.mean(w ** 3))]),
                               "alpha-boundary", "exchangeable conditional refit")
            fit = max(fit, refit, key=lambda f: f[1])
    t, loglik, cov, se, flags = fit
    fitted, law_flags = law.from_fit(t[2:])
    alpha, beta = float(t[0]), float(t[1])
    pool, conds = _residual_pool(L, u, range(d), alpha, beta)
    return HtParams(alpha, beta, fitted, u, pool, conds, None, True, loglik,
                    cov, se, flags + law_flags)


def fit_ht_exchangeable_skewnormal(L, threshold: float | None = None,
                                   threshold_quantile: float | None = None) -> HtParams:
    """Exchangeable skew-normal pseudo-likelihood over all conditionings.

    Maximizes the triple sum over conditioning variables, exceedances and
    companions of the skew-normal density with location alpha y0 + mu
    y0^beta and scale sigma y0^beta, under shared parameters (alpha, beta,
    mu, sigma, kappa).  The slant is capped at |kappa| = 50.
    """
    return _fit_exchangeable(L, threshold, threshold_quantile, SkewNormal)


def fit_ht_exchangeable_gaussian(L, threshold: float | None = None,
                                 threshold_quantile: float | None = None) -> HtParams:
    """Exchangeable fit with Gaussian residual margins (zero-slant reference)."""
    return _fit_exchangeable(L, threshold, threshold_quantile, GaussianDiag)


def _level_sets(z, alpha: float, beta: float, v: float) -> np.ndarray:
    """Each z's set {y in [v, v + ROOT_CAP] : alpha y + y^beta z >= v} as
    [a, b] u [d, inf), stacked (a, b, d): b = +inf where the set reaches the
    cap, d = +inf but past a trough's gap, and all three +inf where the set
    is empty.  Each end is bisected in 64 steps on one monotone side of g
    (module docstring); a half-line's, on [v, v + ROOT_CAP].
    """
    z = np.asarray(z, dtype=float)
    cap = v + ROOT_CAP
    g_v = alpha * v + v ** beta * z
    g_cap = alpha * cap + cap ** beta * z
    # a monotone g crosses v at most once: split it at its higher end
    m = np.where(g_v >= v, v, cap)
    g_m = np.where(g_v >= v, g_v, g_cap)
    turn = np.zeros(z.shape, dtype=bool)
    trough = (alpha > 0.0) == (beta < 1.0)  # whether g's one turn is a trough
    if alpha != 0.0 and beta != 1.0:
        # g' = 0 at y* = (-alpha / (beta z))^(1 / (beta - 1)); a trough with
        # g(v) < v crosses v once, so it splits like a monotone g
        turn = (alpha * beta * z < 0.0) & ((not trough) | (g_v >= v))
        with np.errstate(divide="ignore", over="ignore"):
            m[turn] = np.clip((-alpha / (beta * z[turn])) ** (1.0 / (beta - 1.0)), v, cap)
        g_m[turn] = alpha * m[turn] + m[turn] ** beta * z[turn]
    # a peak or monotone g holds [a, b] with its maximum g(m) inside; a
    # trough starting above v holds [v, b] and, past its minimum g(m), [d, inf)
    valley = turn & trough
    hill = ~valley & (g_m >= v)
    gap = valley & (g_m < v)
    find_a = hill & (g_v < v)
    find_b = (hill & (g_cap < v)) | gap
    find_d = gap & (g_cap >= v)
    # each end is bisected between a point of the set and one outside it
    inside = np.concatenate([m[find_a], np.where(gap, v, m)[find_b],
                             np.full(find_d.sum(), cap)])
    outside = np.concatenate([np.full(find_a.sum(), v), np.where(gap, m, cap)[find_b],
                              m[find_d]])
    zz = np.concatenate([z[find_a], z[find_b], z[find_d]])
    for _ in range(64):
        mid = 0.5 * (inside + outside)
        ge = alpha * mid + mid ** beta * zz >= v
        inside, outside = np.where(ge, mid, inside), np.where(ge, outside, mid)
    ends = np.full((3,) + z.shape, np.inf)
    ends[0, hill | valley] = v
    ends[0, find_a], ends[1, find_b], ends[2, find_d] = np.split(
        inside, np.cumsum([find_a.sum(), find_b.sum()]))
    return ends


def _shared_dependence(params: HtParams) -> tuple[float, float]:
    if params.exchangeable:
        return float(params.alpha), float(params.beta)
    a = np.atleast_1d(np.asarray(params.alpha, dtype=float))
    b = np.atleast_1d(np.asarray(params.beta, dtype=float))
    if np.ptp(a) > 1e-12 or np.ptp(b) > 1e-12:
        raise ValueError("estimator needs shared alpha, beta across "
                         "companions; use the exchangeable fit")
    return float(a[0]), float(b[0])


def ht_root_v(z: float, params: HtParams, v: float) -> float:
    """Scalar root level: smallest y >= v with alpha y + y^beta z >= v."""
    a, b = _shared_dependence(params)
    if v <= 0.0:
        raise ValueError("v must be positive")
    return float(_level_sets(np.array([z]), a, b, v)[0][0])


@dataclass
class HtProbability:
    """A joint tail probability on the log scale, with its counts.

    From :func:`ht_prob_analytic`, ``n_used`` counts the residual rows whose
    conditioner can meet the event and ``n_unreachable`` the rows whose
    cannot.  From :func:`ht_prob_two_level`, ``n_used`` counts the label
    assignments averaged over that keep at least one row, 1 where the
    estimator reduces to the one-level event (s1 == s2, or an empty first
    group), and ``n_unreachable`` is 0.
    """

    log_prob: float
    n_used: int
    n_unreachable: int
    flags: list[str] = field(default_factory=list)

    @property
    def prob(self) -> float:
        return float(np.exp(self.log_prob))


def _log_tail(v: float) -> float:
    """log P(Y0 > v) on the standard Laplace margin."""
    if v > 0.0:
        return float(-v - np.log(2.0))
    return float(np.log(max(1.0 - float(MarginSpec("laplace").cdf(v)), 1e-300)))


def _row_terms(lo: np.ndarray, gaps, s: float) -> np.ndarray:
    """Each row's e^-(y - s) mass on [lo, inf) less its disjoint gaps (b, d),
    summed over the stretches between the gaps sorted by b, each as
    e^-(start - s) (1 - e^-(end - start)) with both ends clipped to lo: a gap
    with d <= b is empty, and a row with lo = +inf gives 0."""
    b, d = np.broadcast_arrays(*(np.stack(ends) for ends in zip(*gaps)))
    d = np.fmax(d, b)  # an empty gap keeps no width, (+inf, +inf) on a half-line
    if len(b) == 2:  # the callers pass at most two gaps
        swap = b[1] < b[0]
        b, d = (np.where(swap, e[::-1], e) for e in (b, d))
    start = np.fmax(np.concatenate([lo[None], d[:-1]]), lo)  # lo, then each gap's end
    end = np.fmax(b, lo)
    keep = end > start
    with np.errstate(invalid="ignore"):
        mass = np.negative(np.expm1(np.subtract(start, end, out=end), out=end), out=end)
    mass *= np.exp(np.subtract(s, start, out=start), out=start)
    mass[~keep] = 0.0
    last = np.fmax(d[-1], lo)
    return mass.sum(axis=0) + np.exp(np.subtract(s, last, out=last), out=last)


def _log_mean(total: float, count: int, s: float, paper_literal: bool) -> float:
    """log(total / count) plus log P(Y0 > s), or less s when ``paper_literal``."""
    with np.errstate(divide="ignore"):
        return float(np.log(total / count)) + (-s if paper_literal else _log_tail(s))


def ht_prob_analytic(params: HtParams, v: float,
                     paper_literal: bool = False) -> HtProbability:
    """Joint upper-tail probability from each residual row's level set.

    A row's conditioner must lie in its row minimum's set [a, b] u [d, inf)
    (module docstring), where it has mass e^-(a - v) - e^-(b - v) +
    e^-(d - v).  The mean of that mass over every row, in pool order and in
    linear space, times the Laplace margin's tail P(Y0 > v) is the estimate.
    ``paper_literal`` takes e^-v for that tail instead, the convention that
    treats exp(-v) P(Y0 > v)^-1 as one (exact on exponential margins; on
    Laplace margins it differs by the factor 1/2).
    """
    alpha, beta = _shared_dependence(params)
    if v <= params.threshold:
        raise ValueError("v must sit above the fitting threshold")
    level, upper, rejoin = _level_sets(np.fmin.reduce(params.residual_pool, axis=1),
                                       alpha, beta, v)
    n_used = int(np.isfinite(level).sum())
    log_prob = _log_mean(_row_terms(level, [(upper, rejoin)], v).sum(), level.size, v,
                         paper_literal)
    return HtProbability(log_prob, n_used, level.size - n_used,
                         ["all-contributions-zero"] if np.isneginf(log_prob) else [])


def ht_prob_simulation(params: HtParams, lower, upper, v: float, N: int,
                       seed: int, cond: int | None = None,
                       pool_rows: str = "cond"):
    """Forward-simulation estimate of P(Y in region, Y_cond > v).

    Simulates the conditioner exponentially above v, draws residual rows
    with replacement from the empirical pool, reconstructs companions, and
    multiplies the hit rate by the Laplace conditioning margin's tail.  Region
    bounds are per-variable on the Laplace scale (use +-inf for
    unconstrained sides); bounds on the conditioner apply on top of the
    exceedance event.  With ``pool_rows="all"`` an exchangeable fit draws
    from the whole pooled residual set (valid only when the companion
    bounds are symmetric, since residual slots lose variable identity).
    Returns (probability, standard error, flags).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    d = params.dim
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (d,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (d,)).copy()
    cond = params.cond_index if cond is None else cond
    if cond is None:
        cond = 0
    rng = derive_rng(seed)
    others = np.flatnonzero(np.arange(d) != cond)
    if pool_rows == "all":
        if not params.exchangeable:
            raise ValueError("pool_rows='all' needs an exchangeable fit")
        sym = (np.all(lower[others] == lower[others][0])
               and np.all(upper[others] == upper[others][0]))
        if not sym:
            raise ValueError("pool_rows='all' needs symmetric companion bounds")
        mask = ~np.isnan(params.residual_pool)
        zpool = params.residual_pool[mask].reshape(params.residual_pool.shape[0], d - 1)
    elif pool_rows == "cond":
        rows_ok = np.flatnonzero(params.pool_cond == cond)
        if rows_ok.size == 0:
            raise ValueError(f"no pooled residuals condition on variable {cond}")
        zpool = params.residual_pool[rows_ok][:, others]
    else:
        raise ValueError("pool_rows must be 'cond' or 'all'")
    alpha, beta = params.dependence(cond)
    hits = 0
    done = 0
    batch = min(N, 1_000_000)
    while done < N:
        m = min(batch, N - done)
        y0 = v + rng.exponential(size=m)
        z = zpool[rng.integers(0, zpool.shape[0], size=m)]
        y = alpha * y0[:, None] + y0[:, None] ** beta * z
        ok = (y0 >= lower[cond]) & (y0 <= upper[cond])
        ok &= np.all((y >= lower[others]) & (y <= upper[others]), axis=1)
        hits += int(ok.sum())
        done += m
    p_hit = hits / N
    tail = np.exp(_log_tail(v))
    prob = tail * p_hit
    se = tail * math.sqrt(max(p_hit * (1.0 - p_hit), 0.0) / N)
    flags = []
    if hits == 0:
        flags.append("zero-hits")
        se = tail * (1.0 - (0.05) ** (1.0 / N))  # one-sided 95% bound scale
    return prob, se, flags


def ht_prob_two_level(params: HtParams, groups, s1: float, s2: float,
                      exchangeable: bool = True, paper_literal: bool = False,
                      seed: int = 0) -> HtProbability:
    """Unequal-level joint tail probability with permutation averaging.

    Variables in the first group must exceed s1, those in the second s2
    (s1 >= s2).  Per residual row the conditioner must fall in every
    entry's level set at its group's level, and above s1.  Under
    exchangeability the probability is averaged over every assignment of
    the second-group labels (rows whose conditioner falls in the second
    group are left out of that assignment).

    Cost: one ``_level_sets`` pass over the pool entries at s1 and one at
    s2, then, per block of at most BLOCK_CELLS (assignment, row) cells, d
    column passes that take each cell's lower end as the largest a of its
    entries and, only where some b is finite, d more for the gaps (2 d per
    end once some gap closes; module docstring).  The terms are summed in
    linear space, one row sum per assignment.  Each assignment's mean
    divides by its own row count, which is why the assignments are
    enumerated rather than counted.  On half-line tables an empty second
    group gives ``ht_prob_analytic``'s value bit for bit.
    """
    if s1 < s2:
        raise ValueError("s1 must be at least s2")
    if not params.exchangeable:
        raise ValueError("two-level estimator expects an exchangeable fit")
    if s1 == s2:
        # equal levels merge the groups: the one-level estimator over the
        # full pool is the exact reduction, and stands for one assignment
        return replace(ht_prob_analytic(params, s1, paper_literal), n_used=1,
                       n_unreachable=0)
    g1, g2 = (np.asarray(sorted(g), dtype=int) for g in groups)
    if g1.size == 0:
        # no variable carries the higher level: one-level event at s2
        return replace(ht_prob_analytic(params, s2, paper_literal), n_used=1,
                       n_unreachable=0)
    if s1 <= params.threshold:
        raise ValueError("s1 must sit above the fitting threshold")
    d = params.dim
    if sorted(np.concatenate([g1, g2]).tolist()) != list(range(d)):
        raise ValueError("groups must partition the cluster variables")
    assignments, flags = label_assignments(d, g2, exchangeable, seed)

    alpha, beta = _shared_dependence(params)
    pool = params.residual_pool
    n = pool.shape[0]
    filled = ~np.isnan(pool)
    # each table stacks column i's ends over the rows at s1 and at s2, so an
    # assignment's pick (0 or 1 per column) gathers each level as one row
    a, b, c = sets = np.full((3, d, 2, n), np.nan)
    for j, s in enumerate((s1, s2)):
        sets[:, :, j][:, filled.T] = _level_sets(pool.T[filled.T], alpha, beta, s)
    gapped = np.isfinite(b).any()
    c[np.isinf(b)] = -np.inf  # a half-line's empty gap loses both reductions
    # gaps open to +inf always overlap, so one reduction over every column
    # is their union; once some gap closes, each group reduces apart,
    # reading its own level's slot and the empty gap in the other's
    apart = np.isfinite(c).any()
    own = (np.eye(2, dtype=bool) if apart else np.ones((1, 2), dtype=bool))[:, None, :, None]
    b, c = np.where(own, b, np.inf), np.where(own, c, -np.inf)  # (group, column, level, row)
    pick = np.zeros((len(assignments), d), dtype=np.intp)  # 1: the column is in group 2
    pick[np.arange(len(assignments))[:, None], np.asarray(assignments)] = 1
    n_rows = n - pick @ np.bincount(params.pool_cond, minlength=d)
    sums = np.empty(len(assignments))
    step = max(1, BLOCK_CELLS // n)
    for k in range(0, len(assignments), step):
        block = pick[k:k + step]
        # fmax and fmin skip each row's NaN conditioner slot
        level = np.full((block.shape[0], n), s1)
        for i in range(d):
            np.fmax(level, a[i][block[:, i]], out=level)
        if not gapped:
            terms = np.exp(s1 - level)
        else:
            lo = np.full((len(b),) + level.shape, np.inf)
            hi = np.full_like(lo, -np.inf) if apart else [np.inf]
            for j, i in np.ndindex(len(b), d):
                np.fmin(lo[j], b[j, i][block[:, i]], out=lo[j])
                if apart:
                    np.fmax(hi[j], c[j, i][block[:, i]], out=hi[j])
            if apart:  # the groups' gaps merge where they overlap
                join = np.fmax(*lo) <= np.fmin(*hi)
                np.fmin(*lo, where=join, out=lo[0])
                np.fmax(*hi, where=join, out=hi[0])
                lo[1][join] = np.inf
            terms = _row_terms(level, zip(lo, hi), s1)
        terms[block[:, params.pool_cond] == 1] = 0.0
        sums[k:k + step] = terms.sum(axis=1)
    used = n_rows > 0
    n_used = int(used.sum())
    log_prob = (_log_mean(np.sum(sums[used] / n_rows[used]), n_used, s1, paper_literal)
                if n_used else -np.inf)
    return HtProbability(log_prob, n_used, 0,
                         flags + (["all-contributions-zero"] if np.isneginf(log_prob) else []))


def ht_model_chi(params: HtParams, k: int, level: float, N: int = 1_000_000,
                 seed: int = 0) -> float:
    """Model-implied k-variate tail correlation by forward simulation.

    Simulates the parametric residual law (k-1 iid companion components),
    reconstructs companions above the Laplace v = quantile(level), and
    returns P(all k above v)/(1 - level).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    lap = MarginSpec("laplace")
    v = float(lap.quantile(level))
    rng = derive_rng(seed)
    y0 = v + rng.exponential(size=N)
    z = params.residual_law.sample((N, k - 1), rng)
    alpha = float(params.alpha) if params.exchangeable else float(np.mean(params.alpha))
    beta = float(params.beta) if params.exchangeable else float(np.mean(params.beta))
    y = alpha * y0[:, None] + y0[:, None] ** beta * z
    p_joint = float(np.mean(np.all(y > v, axis=1))) * np.exp(_log_tail(v))
    return p_joint / (1.0 - level)
