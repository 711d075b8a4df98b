"""Marginal scales, rank utilities, dataset container, and the seeded RNG contract.

All tail methods in this package move data between a handful of standard
scales (Gumbel, unit exponential, unit Laplace, unit Frechet, standard
Pareto, uniform) or work on empirical ranks.  The closed forms are pinned
here once so every downstream formula agrees bit for bit:

* Gumbel:       F(x) = exp(-exp(-x))
* Exponential:  F(x) = 1 - exp(-x),          x >= 0
* Laplace:      F(x) = exp(x)/2 for x < 0,   1 - exp(-x)/2 otherwise
* Frechet:      F(x) = exp(-1/x),            x > 0
* Pareto:       F(x) = 1 - 1/x,              x >= 1
* Uniform:      F(x) = x on (0, 1)

Probabilities are clamped to [1e-15, 1 - 1e-15] before quantile transforms;
clamping events are counted when a :class:`ClampCounter` is supplied.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

PROB_FLOOR = 1e-15
PROB_CEIL = 1.0 - 1e-15

# exchangeable label assignments enumerated before a seeded subsample
MAX_ASSIGNMENTS = 1_000_000

MARGIN_KINDS = ("gumbel", "exponential", "laplace", "frechet", "pareto",
                "uniform", "empirical")


class ClampCounter:
    """Counts probability clamping events during margin transforms."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


@dataclass(frozen=True)
class MarginSpec:
    """Declares the known marginal law of a column.

    Parameters
    ----------
    kind : str
        One of ``gumbel``, ``exponential``, ``laplace``, ``frechet``,
        ``pareto``, ``uniform``, ``empirical``.
    reference : ndarray, optional
        Reference sample for the ``empirical`` kind (length >= 2).  Ignored
        for parametric kinds.  The empirical CDF is the piecewise-linear
        interpolation of (sorted value, rank/(n+1)) pairs with linear tail
        extrapolation, which makes it a bijection on the real line.
    """

    kind: str
    reference: np.ndarray | None = None
    _knots: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in MARGIN_KINDS:
            raise ValueError(f"unknown margin kind {self.kind!r}")
        if self.kind == "empirical":
            if self.reference is None:
                raise ValueError("empirical margin needs a reference sample")
            ref = np.asarray(self.reference, dtype=float).ravel()
            if ref.size < 2:
                raise ValueError("empirical reference sample needs length >= 2")
            if not np.all(np.isfinite(ref)):
                raise ValueError("empirical reference sample must be finite")
            object.__setattr__(self, "reference", ref)
            object.__setattr__(self, "_knots", _empirical_knots(ref))
        elif self.reference is not None:
            raise ValueError(f"{self.kind} margin takes no reference sample")

    def cdf(self, x):
        """Evaluate the distribution function (vectorized)."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite input to margin cdf")
        return _MARGIN_CDF[self.kind](self, x)

    def quantile(self, p):
        """Evaluate the quantile function for p in (0, 1) (vectorized)."""
        p = np.asarray(p, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite probability")
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("probability outside (0, 1)")
        return _MARGIN_QUANTILE[self.kind](self, p)

    def in_support(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return False
        lo, hi = _SUPPORT[self.kind]
        return bool(np.all(x > lo) and np.all(x < hi))


def _tie_ranks(x: np.ndarray):
    """Sorted distinct values of x, their average 1-based ranks and the index
    of each x among them.  A tie block holds ranks end - count + 1 .. end, so
    its average is the exact half-integer end - (count - 1) / 2."""
    ux, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    return ux, np.cumsum(counts) - (counts - 1) / 2.0, inv


def _empirical_knots(ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ties collapse to one knot at the average rank so the CDF stays strictly
    # increasing and invertible.
    ux, rank, _ = _tie_ranks(ref)
    if ux.size < 2:
        raise ValueError("empirical reference sample is constant")
    return ux, rank / (ref.size + 1.0)


def _emp_cdf(m: MarginSpec, x):
    xs, ps = m._knots
    p = np.interp(x, xs, ps)
    # linear tail extrapolation keeps the map bijective
    slope_lo = (ps[1] - ps[0]) / (xs[1] - xs[0])
    slope_hi = (ps[-1] - ps[-2]) / (xs[-1] - xs[-2])
    p = np.where(x < xs[0], ps[0] + (x - xs[0]) * slope_lo, p)
    p = np.where(x > xs[-1], ps[-1] + (x - xs[-1]) * slope_hi, p)
    return p


def _emp_quantile(m: MarginSpec, p):
    xs, ps = m._knots
    q = np.interp(p, ps, xs)
    slope_lo = (xs[1] - xs[0]) / (ps[1] - ps[0])
    slope_hi = (xs[-1] - xs[-2]) / (ps[-1] - ps[-2])
    q = np.where(p < ps[0], xs[0] + (p - ps[0]) * slope_lo, q)
    q = np.where(p > ps[-1], xs[-1] + (p - ps[-1]) * slope_hi, q)
    return q


def _laplace_cdf(_m, x):
    return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)),
                    1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))


def _laplace_quantile(_m, p):
    return np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))


_MARGIN_CDF = {
    "gumbel": lambda m, x: np.exp(-np.exp(-x)),
    "exponential": lambda m, x: -np.expm1(-x),
    "laplace": _laplace_cdf,
    "frechet": lambda m, x: np.exp(-1.0 / np.maximum(x, 1e-300)),
    "pareto": lambda m, x: (x - 1.0) / np.maximum(x, 1e-300),
    "uniform": lambda m, x: x,
    "empirical": _emp_cdf,
}

_MARGIN_QUANTILE = {
    "gumbel": lambda m, p: -np.log(-np.log(p)),
    "exponential": lambda m, p: -np.log1p(-p),
    "laplace": _laplace_quantile,
    "frechet": lambda m, p: -1.0 / np.log(p),
    "pareto": lambda m, p: 1.0 / (1.0 - p),
    "uniform": lambda m, p: p,
    "empirical": _emp_quantile,
}

_SUPPORT = {
    "gumbel": (-np.inf, np.inf),
    "exponential": (0.0 - 1e-12, np.inf),
    "laplace": (-np.inf, np.inf),
    "frechet": (0.0, np.inf),
    "pareto": (1.0 - 1e-12, np.inf),
    "uniform": (0.0, 1.0),
    "empirical": (-np.inf, np.inf),
}


def transform_margin(x, from_margin: MarginSpec, to_margin: MarginSpec,
                     clamp: ClampCounter | None = None):
    """Map values from one marginal scale to another.

    Computes ``to_margin.quantile(from_margin.cdf(x))`` with the probability
    clamped to [1e-15, 1 - 1e-15].  Clamping is not fatal; events are counted
    on ``clamp`` when given.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input to transform_margin")
    p = np.asarray(from_margin.cdf(x), dtype=float)
    clipped = np.clip(p, PROB_FLOOR, PROB_CEIL)
    if clamp is not None:
        clamp.add(np.count_nonzero(clipped != p))
    out = to_margin.quantile(clipped)
    return float(out) if np.isscalar(x) or x.ndim == 0 else out


def empirical_cdf(column, x):
    """Rank-based empirical probability rank(x)/(n+1), rank counting values <= x.

    The (n+1) denominator keeps the output below 1; values under the sample
    minimum are floored at 1/(n+1) so the output stays in (0, 1).
    """
    col = np.asarray(column, dtype=float).ravel()
    if col.size == 0:
        raise ValueError("empty column")
    xs = np.sort(col)
    rank = np.searchsorted(xs, np.asarray(x, dtype=float), side="right")
    rank = np.maximum(rank, 1)
    out = rank / (col.size + 1.0)
    return float(out) if np.ndim(x) == 0 else out


def rank_transform(values: np.ndarray) -> np.ndarray:
    """Columnwise ranks/(n+1), mapping an (n, D) matrix to the uniform scale."""
    values = np.asarray(values, dtype=float)
    one_dim = values.ndim == 1
    if one_dim:
        values = values[:, None]
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        _, rank, inv = _tie_ranks(values[:, j])  # ties share their average rank
        out[:, j] = rank[inv] / (values.shape[0] + 1.0)
    return out[:, 0] if one_dim else out


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric dataset with named columns and declared margins."""

    values: np.ndarray
    names: tuple[str, ...]
    margins: tuple[MarginSpec, ...]

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("values must be an n x D matrix with n, D >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("dataset contains non-finite entries")
        names = tuple(str(s) for s in self.names)
        margins = tuple(self.margins)
        if len(names) != vals.shape[1] or len(margins) != vals.shape[1]:
            raise ValueError("names/margins length must match column count")
        for j, m in enumerate(margins):
            if m.kind != "empirical" and not m.in_support(vals[:, j]):
                raise ValueError(
                    f"column {names[j]!r} has values outside the "
                    f"{m.kind} support")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "margins", margins)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, column_index(self.names, name)]

    def to_uniform(self, clamp: ClampCounter | None = None) -> np.ndarray:
        """Transform all columns to the uniform scale via declared margins."""
        out = np.empty_like(self.values)
        uniform = MarginSpec("uniform")
        for j, m in enumerate(self.margins):
            if m.kind == "empirical":
                out[:, j] = rank_transform(self.values[:, j])
            else:
                out[:, j] = transform_margin(self.values[:, j], m, uniform,
                                             clamp)
        return out

    def to_margin(self, target: MarginSpec,
                  clamp: ClampCounter | None = None) -> np.ndarray:
        """Transform all columns to one common target scale."""
        u = self.to_uniform(clamp)
        return np.asarray(target.quantile(np.clip(u, PROB_FLOOR, PROB_CEIL)))


def column_index(names, name: str) -> int:
    """Position of column ``name`` in ``names``."""
    if name not in names:
        raise ValueError(f"unknown column {name!r}")
    return names.index(name)


class CsvFormatError(ValueError):
    """An input CSV that is not a header plus rectangular numeric rows."""


# np.loadtxt options for a CSV body: a quoted field is read as csv.reader
# reads it, and "#" is a non-numeric entry, not a comment
_CSV_BODY = dict(delimiter=",", ndmin=2, comments=None, quotechar='"')


def read_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a UTF-8, comma-separated, header-first numeric CSV.

    The header goes through ``csv``, the body through one ``np.loadtxt``
    parse; empty lines are skipped.  Only a body that parse rejects is read
    again, line by line, to name the fault.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise CsvFormatError(f"{path}: empty file")
        try:
            with warnings.catch_warnings():  # a body without rows is reported below
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, **_CSV_BODY)
        except ValueError as exc:
            raise _csv_fault(path) from exc
    if values.shape[0] == 0:
        raise CsvFormatError(f"{path}: no data rows")
    if values.shape[1] != len(header):
        raise CsvFormatError(f"{path}: ragged rows")
    return tuple(h.strip() for h in header), values


def _csv_fault(path) -> CsvFormatError:
    """Why ``np.loadtxt`` rejected the body of ``path``: the first line that
    does not parse on its own, or else rows of differing lengths."""
    with open(path, newline="", encoding="utf-8") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip("\r\n"):
                continue
            try:
                np.loadtxt([line], **_CSV_BODY)
            except ValueError:
                return CsvFormatError(f"{path}:{lineno}: non-numeric entry")
    return CsvFormatError(f"{path}: ragged rows")


def load_dataset(path, margins) -> Dataset:
    """Load a CSV and attach margin declarations.

    ``margins`` is a single declaration applied to every column or a
    sequence with one entry per column; entries are :class:`MarginSpec`
    instances or kind strings.  The string ``"empirical"`` builds the
    reference sample from the column itself.
    """
    return make_dataset(*read_csv(path), margins)


def make_dataset(names, values, margins) -> Dataset:
    """:func:`load_dataset` for a table already read."""
    if isinstance(margins, (str, MarginSpec)):
        margins = [margins] * values.shape[1]
    if len(margins) != values.shape[1]:
        raise ValueError("one margin declaration per column required")
    specs = []
    for j, m in enumerate(margins):
        if isinstance(m, MarginSpec):
            specs.append(m)
        elif m == "empirical":
            specs.append(MarginSpec("empirical", reference=values[:, j]))
        else:
            specs.append(MarginSpec(m))
    return Dataset(values=values, names=names, margins=tuple(specs))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, replicate-index) streams.

    Identical (seed, key) pairs produce identical streams on one platform,
    independent of scheduling order, so parallel replicates stay
    reproducible.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative 64-bit integer")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key)))


def label_assignments(d: int, group, exchangeable: bool, seed: int,
                      max_assignments: int | None = None
                      ) -> tuple[list[np.ndarray], list[str]]:
    """Column sets carrying a group's label under permutation averaging, and
    flags: ``group`` alone when not exchangeable or holding no or all ``d``
    columns; else every subset of its size in lexicographic order, or past
    ``max_assignments`` (default ``MAX_ASSIGNMENTS``) that many sorted draws
    from ``derive_rng(seed)``, flagged ``assignment-subsample``."""
    if max_assignments is None:
        max_assignments = MAX_ASSIGNMENTS
    group = np.asarray(group, dtype=int)
    m = group.size
    if not exchangeable or m in (0, d):
        return [group], []
    if math.comb(d, m) <= max_assignments:
        return [np.asarray(c, dtype=int) for c in combinations(range(d), m)], []
    rng = derive_rng(seed)
    return ([np.sort(rng.choice(d, size=m, replace=False))
             for _ in range(max_assignments)], ["assignment-subsample"])
