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

import numpy as np

from ..core import derive_rng
from .gpd import (RegressionSpec, _design, _linear_predictors,
                  fit_gpd_regression, gpd_cdf, gpd_quantile)

# bounds for (sigma, xi) drawn from a fit's Gaussian approximation
SIGMA_MIN = 1e-8
XI_MIN, XI_MAX = -0.99, 4.99
# draws held at once by predictive_quantiles: 512 kB of float64 per array.
# At most four such arrays are live (scale, shape, quantiles and the previous
# block's sorted draws), 2 MB, which stays in L2 (2^16 measured as fast as
# 2^17 and faster than 2^14 and 2^18)
BLOCK_FLOATS = 2**16


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
    [-0.99, 4.99]; its quantile is its threshold plus the GPD excess
    quantile at level ``p`` (a scalar or one level per row).
    ``thresholds(rows)`` returns, for a slice of the rows of ``X``, the
    thresholds as an array that broadcasts to (rows, n_draws): a column
    ``u[rows, None]`` for one threshold per row, or one per row and draw.
    The rows are evaluated in blocks of about BLOCK_FLOATS draws in all,
    every draw of a block at once, so the (n_rows, n_draws) draw matrix is
    never held; an intercept-only scale or shape is evaluated once, as one
    row for every block (:func:`_clipped_predictor`).  Each linear
    predictor is summed left to right over the design columns
    (:func:`_linear_predictors`), so the output does not depend on the
    block size or draw count.  Returns ``(lower, upper)``: the
    alpha/2 and 1 - alpha/2 quantiles over draws, each (n_rows,), by
    numpy's default ``linear`` rule, with its limits where a draw is
    infinite (``_sorted_quantiles``).
    """
    Xs = np.ascontiguousarray(_design(X, fit.spec.sigma_columns).T)
    Xx = np.ascontiguousarray(_design(X, fit.spec.xi_columns).T)
    k, n = Xs.shape
    coef = np.asarray(coef, dtype=float)
    if len(coef) == 0:
        raise ValueError("no coefficient draws")
    Cs, Cx = np.ascontiguousarray(coef[:, :k].T), np.ascontiguousarray(coef[:, k:].T)
    sigma_at = _clipped_predictor(Xs, Cs, SIGMA_MIN, None, np.exp)
    xi_at = _clipped_predictor(Xx, Cx, XI_MIN, XI_MAX)
    p = np.asarray(p, dtype=float)
    levels = np.array([alpha / 2.0, 1.0 - alpha / 2.0])
    step = max(1, BLOCK_FLOATS // len(coef))
    out = np.empty((2, n))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        q = p if p.ndim == 0 else p[rows, None]
        b = gpd_quantile(q, (sigma_at(rows), xi_at(rows)))
        if len(b) < rows.stop - start:  # one row for all: q, sigma, xi constant
            b = b.repeat(rows.stop - start, axis=0)
        b += thresholds(rows)
        out[:, rows] = _sorted_quantiles(b, levels)
    return out[0], out[1]


def _clipped_predictor(design_t, coef_t, lo, hi, link=None):
    """rows -> the clipped predictor of the draws ``coef_t`` at ``rows`` of
    ``design_t``, (rows, draws), with ``link`` (in place) before the clip.
    An intercept-only predictor is 1.0 c = c at every row, exactly, so it is
    one (1, draws) row, built once and returned for every block."""
    def at(rows):
        eta = _linear_predictors(design_t[:, rows], coef_t)
        if link is not None:
            link(eta, out=eta)
        return np.clip(eta, lo, hi, out=eta)
    if len(design_t) > 1:
        return at
    row = at(slice(0, 1))
    return lambda rows: row


def _sorted_quantiles(b, levels) -> np.ndarray:
    """``np.quantile(b, levels, axis=1)`` by one in-place sort.

    numpy's default ``linear`` rule (Hyndman & Fan 1996, type 7) with its
    own floor and ceiling indices and its ``_lerp``, which interpolates
    from the upper neighbour when the weight is at least 1/2; a row holding
    a NaN gives NaN.  It departs from numpy only where a neighbour is
    infinite and numpy's arithmetic gives NaN: there it returns the type-7
    value (1 - t) below + t above with 0 x inf taken as 0, so two equal
    neighbours give their value, a neighbour of weight 0 drops out, and
    one infinite neighbour of weight t > 0 gives itself; -inf and +inf
    together stay NaN.  Every finite output is numpy's bit for bit.  ``b``
    is (rows, n) and is sorted in place; returns (len(levels), rows).
    """
    n = b.shape[1]
    b.sort(axis=1)
    virtual = (n - 1) * levels
    lo = np.floor(virtual)
    hi = lo + 1.0
    top = virtual >= n - 1
    lo[top] = hi[top] = -1.0
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    t = (virtual - lo)[:, None]
    below, above = b[:, lo].T, b[:, hi].T
    with np.errstate(invalid="ignore"):
        diff = above - below
        out = below + diff * t
        np.subtract(above, diff * (1.0 - t), out=out, where=t >= 0.5)
    edge = np.isinf(below) | np.isinf(above)
    if edge.any():
        from_below = edge & ((below == above) | (t == 0.0) | np.isfinite(above))
        from_above = edge & ~from_below & np.isfinite(below)
        out[from_below] = below[from_below]
        out[from_above] = above[from_above]
    nan_rows = np.isnan(b[:, -1])
    out[:, nan_rows] = b[nan_rows, -1]
    return out


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
            ut = ue[it][keep]
            lowers, uppers = predictive_quantiles(
                fit2, coef, Xe[it][keep], pt, alpha, lambda rows: ut[rows, None])
            yt = ye[it][keep]
            s = _interval_scores(lowers, uppers, alpha, yt)
            scores_per[mi].append(float(s.sum()))
            cover_per[mi].append(float(np.mean((yt >= lowers) & (yt <= uppers))))

    return [CvModelSummary(spec, np.asarray(scores_per[mi]), np.asarray(cover_per[mi]),
                           excluded[mi], dropped[mi])
            for mi, spec in enumerate(spec_list)]
