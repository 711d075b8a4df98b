"""Composition sampling for standard R-Pareto vectors and synthetic fixtures.

A sample is built in three stages: draw a pivot index from the
functional-specific weights (known up to proportionality), draw the
generator vector conditionally on the pivot being the extreme coordinate,
then scale the pivot-normalized angle by an independent unit Pareto radius.
Each family in ``mgpd`` supplies its own pivot-block sampler.  Logistic
and negative logistic generators are independent powers c T^p of unit
exponentials, so the blocks are exact: the pivot's T is a gamma draw
(when the companions cap T, log T by rejection under tangents of its
concave log-density, at least 1/e kept in any dimension) and the
companions are truncated exponentials.  The Huesler-Reiss
family draws its log-Gaussian angle exactly for the sum and max
functionals (max by plain rejection, at most n D proposals expected for
n samples in D dimensions) and does not sample the min functional.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, derive_rng
from .mgpd import (MgpdModel, _check_u, check_model, exponent_measure_v,
                   pivot_weights)


@dataclass(frozen=True)
class RiskFunctional:
    """Risk functional (min, max or sum) with positive thresholds."""

    kind: str
    u: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("min", "max", "sum"):
            raise ValueError("kind must be one of min, max, sum")
        u = np.asarray(self.u, dtype=float).ravel()
        if np.any(u <= 0.0):
            raise ValueError("thresholds must be positive")
        object.__setattr__(self, "u", u)


@dataclass
class CompositionSample:
    """Samples Y = R * omega with pivot indices and radii.

    The rows are pivot-normalized (omega_pivot = 1, R >= 1); for ``min`` and
    ``max``, ``samples * u[pivot][:, None]`` has the law on {r(Y / u) > 1}.
    """

    samples: np.ndarray
    pivot: np.ndarray
    radius: np.ndarray


def composition_sample(model: MgpdModel, functional: RiskFunctional, n: int,
                       seed: int) -> CompositionSample:
    """Composition sampling of standard R-Pareto vectors.

    Draws the pivot index with probability proportional to the
    functional-specific weights, the generator conditionally on the pivot
    being the scaled extreme, and an independent Pareto(1) radius; every
    sample satisfies omega_pivot = 1 and radius >= 1.  The samples are on
    the pivot's scale: for ``min`` and ``max`` with unequal thresholds,
    multiplying each row by ``u[pivot]`` gives the limit measure restricted
    to {r(Y / u) > 1} (r the min or max) and normalized, so those rows have
    r(Y / u) >= 1 while the returned ones need not.
    """
    if functional.kind not in check_model(model).sample_kinds:
        raise ValueError(model.sample_error)
    if n < 1:
        raise ValueError(f"sample size n must be at least 1 (got {n})")
    u = _check_u(functional.u, model.dim)
    d = u.size
    rng = derive_rng(seed)
    if functional.kind == "sum":
        weights = np.ones(d)
    else:
        weights = pivot_weights(model, u, functional.kind, seed=seed)
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise ValueError("invalid pivot weights")
    pivot = rng.choice(d, size=n, p=weights / weights.sum())
    omega = np.empty((n, d))
    for j in range(d):
        rows = pivot == j
        nj = int(rows.sum())
        if nj == 0:
            continue
        omega[rows] = model.pivot_block(j, u / u[j], nj, rng, functional.kind)
    radius = 1.0 / (1.0 - rng.random(n))
    return CompositionSample(np.multiply(radius[:, None], omega, out=omega), pivot, radius)


def simulate_mgpd_dataset(model: MgpdModel, margin, n: int,
                          exceed_fraction: float, seed: int,
                          names=None) -> Dataset:
    """Synthetic dataset embedding max-functional tail samples.

    A fraction ``exceed_fraction`` of rows are composition samples for the
    max functional at unit thresholds, mapped into the margin's tail above
    the quantile level 1 - exceed_fraction/V(1_D); the remaining rows and
    all sub-threshold components are independent sub-threshold noise.  The
    construction keeps every column exactly distributed by the declared
    margin.  Intended as a fitting fixture, not a max-stable simulator.
    """
    if not 0.0 <= exceed_fraction < 1.0:
        raise ValueError("exceed_fraction must be in [0, 1)")
    dim = check_model(model).dim
    if isinstance(margin, (list, tuple)):
        margins = list(margin)
    elif dim is not None:
        margins = [margin] * dim
    else:
        raise ValueError("pass one margin per column (a list) for "
                         "logistic/negative logistic models")
    d = len(margins)
    if dim is not None and d != dim:
        raise ValueError("margin count must match the model dimension")
    rng = derive_rng(seed, 1)
    n_exc = int(round(n * exceed_fraction))
    u01 = rng.random((n, d))
    if n_exc > 0:
        v1 = exponent_measure_v(model, np.ones(d))
        q0 = 1.0 - exceed_fraction / v1
        comp = composition_sample(model, RiskFunctional("max", np.ones(d)),
                                  n_exc, seed)
        y = comp.samples
        tail = y >= 1.0
        u01[:n_exc][tail] = 1.0 - (1.0 - q0) / y[tail]
        u01[:n_exc][~tail] = rng.random(int((~tail).sum())) * q0
        u01[n_exc:] *= q0
    perm = rng.permutation(n)
    u01 = np.clip(u01[perm], 1e-15, 1.0 - 1e-15)
    values = np.column_stack([np.asarray(m.quantile(u01[:, j]))
                              for j, m in enumerate(margins)])
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(d))
    return Dataset(values, tuple(names), tuple(margins))


def sample_positive_stable(alpha: float, n: int, rng) -> np.ndarray:
    """Totally skewed positive-stable draws with E exp(-tS) = exp(-t^alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    theta = rng.uniform(0.0, np.pi, n)
    w = rng.exponential(size=n)
    return ((np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha))
            * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))


def sample_logistic_max_stable(alpha: float, n: int, d: int, rng) -> np.ndarray:
    """Unit-Frechet logistic max-stable vectors via the positive-stable frailty."""
    s = sample_positive_stable(alpha, n, rng)
    e = rng.exponential(size=(n, d))
    return (e / s[:, None]) ** (-alpha)


@dataclass
class MixtureShareTable:
    """Per-component share of threshold exceedances at each quantile level."""

    alpha_grid: np.ndarray
    levels: np.ndarray
    counts: np.ndarray  # (n_components, n_levels) exceedance counts
    shares: np.ndarray  # counts normalized per level


def mixture_threshold_experiment(alpha_grid, n_per_component: int, levels,
                                 seed: int, d: int = 8) -> MixtureShareTable:
    """Exceedance shares across an equibalanced logistic max-stable mixture.

    Simulates ``n_per_component`` d-variate logistic max-stable vectors for
    every dependence value in ``alpha_grid`` and counts, per quantile level
    q, how many rows satisfy max_j Y_j > F^{-1}(q) on the unit-Frechet
    scale.  Shares at each level sum to one.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float).ravel()
    if alpha_grid.size == 0:
        raise ValueError("alpha grid must be non-empty")
    levels = np.asarray(levels, dtype=float).ravel()
    z = -1.0 / np.log(levels)
    counts = np.empty((alpha_grid.size, levels.size), dtype=np.int64)
    for i, alpha in enumerate(alpha_grid):
        rng = derive_rng(seed, i)
        y = sample_logistic_max_stable(alpha, n_per_component, d, rng)
        ymax = y.max(axis=1)
        counts[i] = [(ymax > zq).sum() for zq in z]
    totals = counts.sum(axis=0)
    shares = counts / np.maximum(totals, 1)[None, :]
    return MixtureShareTable(alpha_grid, levels, counts, shares)
