"""Interval scoring and fold-based cross-validation of interval forecasts.

The cross-validation scheme splits the exceedances into train-1, train-2
and test folds.  Train-1 supplies each test point's probability level;
train-2, with Gaussian draws around its coefficient estimates, supplies the
equitailed interval at that level; the interval score sums the width and
miscoverage charges.  Test points whose train-1 probability level reaches 1
(a finite-endpoint fit overtaken by the observation) are excluded and
counted, never silently dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..core import derive_rng
from .gpd import (RegressionSpec, _design, fit_gpd_regression, gpd_cdf,
                  gpd_quantile)

# bounds for (sigma, xi) drawn from a fit's Gaussian approximation
SIGMA_MIN = 1e-8
XI_MIN, XI_MAX = -0.99, 4.99


@dataclass(frozen=True)
class IntervalForecast:
    """Equitailed interval forecast at miscoverage level alpha."""

    lower: float
    upper: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.lower > self.upper:
            raise ValueError("lower must not exceed upper")


def interval_score(f: IntervalForecast, y: float) -> float:
    """(u-l) + (2/alpha)(l-y) 1{y<l} + (2/alpha)(y-u) 1{y>u}."""
    return float(_interval_scores(f.lower, f.upper, f.alpha, y))


def _interval_scores(lower, upper, alpha: float, y):
    return (upper - lower) + (2.0 / alpha) * (np.maximum(lower - y, 0.0)
                                              + np.maximum(y - upper, 0.0))


def sample_params_gaussian(fit, n_draws: int, seed: int) -> np.ndarray:
    """Draw coefficient vectors from Normal(estimate, covariance).

    Accepts any fit with ``coefficients`` and ``cov``, such as
    :class:`GpdRegression`, :class:`GpdFit` or :class:`AldParams`.  The
    covariance is symmetrized and factored spectrally with eigenvalues
    clipped at zero; materially negative eigenvalues are an error.
    """
    mean, cov = np.asarray(fit.coefficients, float), fit.cov
    if cov is None:
        raise ValueError("fit carries no covariance")
    cov = 0.5 * (np.asarray(cov, float) + np.asarray(cov, float).T)
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < -1e-8 * max(vals.max(), 1.0):
        raise ValueError("covariance is not positive semi-definite")
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rng = derive_rng(seed)
    z = rng.standard_normal((n_draws, mean.size))
    return mean + z @ root.T


def predictive_quantiles(fit, coef, X, p, alpha: float, thresholds):
    """Predictive quantiles of a GPD regression per coefficient draw.

    Each row of ``coef`` is one draw of ``fit.coefficients``.  Its scale and
    shape at the rows of ``X`` are clipped to sigma >= 1e-8 and xi in
    [-0.99, 4.99]; its quantile is the next item of ``thresholds`` (one
    threshold row per draw) plus the GPD excess quantile at level ``p``.
    The design matrices are built once; the draws are evaluated one at a
    time.  Returns ``(draws, lower, upper)``: the (n_draws, n_rows) draws
    and their alpha/2 and 1 - alpha/2 quantiles over draws, each (n_rows,).
    """
    Xs = _design(X, fit.spec.sigma_columns)
    Xx = _design(X, fit.spec.xi_columns)
    k = Xs.shape[1]
    draws = np.empty((len(coef), Xs.shape[0]))
    for i, (c, u) in enumerate(zip(coef, thresholds, strict=True)):
        sigma = np.clip(np.exp(Xs @ c[:k]), SIGMA_MIN, None)
        xi = np.clip(Xx @ c[k:], XI_MIN, XI_MAX)
        draws[i] = u + gpd_quantile(p, (sigma, xi))
    lower, upper = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return draws, lower, upper


@dataclass
class CvModelSummary:
    """Per-repeat interval scores and coverage for one model specification."""

    spec: RegressionSpec
    scores: np.ndarray          # summed test score per successful repeat
    coverages: np.ndarray       # empirical coverage per successful repeat
    n_excluded: int             # test points with train-1 probability level 1
    n_dropped_repeats: int      # repeats lost to fold-fit non-convergence

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores)) if self.scores.size else np.nan

    @property
    def mean_coverage(self) -> float:
        return float(np.mean(self.coverages)) if self.coverages.size else np.nan


def preset_model_specs(names, season: str, regime: str) -> list[RegressionSpec]:
    """Bundled ladder of seven scale/shape covariate selections.

    From the constant model through seasonal effects to a fully saturated
    scale with seasonal/regime shape terms: (1) constant; (2) season in
    both; (3) season and regime in both; (4) everything in the scale only;
    (5) saturated scale, season shape; (6) saturated scale, regime shape;
    (7) saturated scale, season and regime shape.
    """
    names = list(names)
    s, r = names.index(season), names.index(regime)
    allc = tuple(range(len(names)))
    return [
        RegressionSpec((), (), tuple(names)),
        RegressionSpec((s,), (s,), tuple(names)),
        RegressionSpec((s, r), (s, r), tuple(names)),
        RegressionSpec(allc, (), tuple(names)),
        RegressionSpec(allc, (s,), tuple(names)),
        RegressionSpec(allc, (r,), tuple(names)),
        RegressionSpec(allc, (s, r), tuple(names)),
    ]


def _split_folds(n: int, rng: np.random.Generator,
                 train_fraction):
    """Random train-1/train-2/test split.

    Equal thirds by default; ``train_fraction`` may be a single share used
    for both training folds or a (train-1, train-2) pair for unequal folds
    (useful at high thresholds, where more data should go to fitting).
    """
    perm = rng.permutation(n)
    if train_fraction is None:
        f1 = f2 = 1.0 / 3.0
    elif np.isscalar(train_fraction):
        f1 = f2 = float(train_fraction)
    else:
        f1, f2 = (float(v) for v in train_fraction)
    if not (0.0 < f1 and 0.0 < f2 and f1 + f2 < 1.0):
        raise ValueError("train fractions must be positive and sum below 1")
    a = int(round(f1 * n))
    b = a + int(round(f2 * n))
    return perm[:a], perm[a:b], perm[b:]


def cv_interval_score(X, y, u, spec_list, alpha: float = 0.5,
                      repeats: int = 1, seed: int = 0,
                      n_draws: int = 1000,
                      train_fraction=None) -> list[CvModelSummary]:
    """Cross-validate interval forecasts for competing GPD regressions.

    For every repeat the exceedances are split at random into train-1,
    train-2 and test folds.  Identical folds are reused across models so
    score comparisons are paired.  Returns one summary per specification.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    exc = y > u
    if not exc.any():
        raise ValueError("no exceedances to cross-validate")
    Xe, ye, ue = X[exc], y[exc], u[exc]
    n = ye.size
    scores_per = [[] for _ in spec_list]
    cover_per = [[] for _ in spec_list]
    excluded = [0 for _ in spec_list]
    dropped = [0 for _ in spec_list]

    for rep in range(repeats):
        rng = derive_rng(seed, rep)
        i1, i2, it = _split_folds(n, rng, train_fraction)
        if min(i1.size, i2.size, it.size) == 0:
            raise ValueError("fold too small; reduce model size")
        draw_seed = int(rng.integers(0, 2**63 - 1))
        for mi, spec in enumerate(spec_list):
            try:
                fit1 = fit_gpd_regression(Xe[i1], ye[i1], ue[i1], spec)
                fit2 = fit_gpd_regression(Xe[i2], ye[i2], ue[i2], spec)
                # raises when fit2 has no covariance to draw from
                coef = sample_params_gaussian(fit2, n_draws, draw_seed)
            except (ValueError, RuntimeError):
                dropped[mi] += 1
                continue
            sig1, xi1 = fit1.predict(Xe[it])
            p = gpd_cdf(ye[it] - ue[it], (sig1, xi1))
            keep = p < 1.0
            excluded[mi] += int(np.count_nonzero(~keep))
            if not keep.any():
                dropped[mi] += 1
                continue
            pt = np.clip(p[keep], 1e-12, 1.0 - 1e-12)
            _, lowers, uppers = predictive_quantiles(
                fit2, coef, Xe[it][keep], pt, alpha, repeat(ue[it][keep], n_draws))
            yt = ye[it][keep]
            s = _interval_scores(lowers, uppers, alpha, yt)
            scores_per[mi].append(float(s.sum()))
            cover_per[mi].append(float(np.mean((yt >= lowers) & (yt <= uppers))))

    return [CvModelSummary(spec, np.asarray(scores_per[mi]), np.asarray(cover_per[mi]),
                           excluded[mi], dropped[mi])
            for mi, spec in enumerate(spec_list)]
