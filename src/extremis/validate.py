"""Dependence diagnostics and model selection for exchangeable clusters.

Covers the Kendall's tau matrix with a leave-one-out jackknife covariance,
Ward clustering of the induced dissimilarity, partial-exchangeability tests
with Monte Carlo and chi-square calibration, the leave-subset-out tail
correlation cross-validation score, the unequal-level joint exceedance
ratio omega2, and threshold-stability scans of parametric dependence fits.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import chdtrc

from .condex import HtParams, fit_ht_exchangeable_gaussian, ht_model_chi
from .core import MarginSpec, derive_rng, rank_transform
from .mgpd import (MgpdModel, exponent_measure_v, fitted_family, model_chi,
                   xi_measure)
from .taildep import chi_estimate


def kendall_tau_matrix(Y) -> np.ndarray:
    """Pairwise Kendall's tau-b with unit diagonal.

    Constant columns make tau undefined and raise.  Built from the exact
    concordance counts of :func:`_concordance_counts` (O(n^2 p / 64) word
    operations for the p = d(d-1)/2 pairs, run on every CPU the process
    may use, with O(n p) bytes for the counts and O(d n) bytes of masks and
    buffers per CPU) and per-column tie totals.  The result is the same for
    any number of CPUs.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    return tau_b_matrix(Y, _concordance_counts(Y).sum(axis=0) / (n * (n - 1.0)))


def tau_b_matrix(Y, tau) -> np.ndarray:
    """Kendall's tau-b matrix of ``Y`` from its stacked tau-a vector ``tau``.

    ``tau`` is in :func:`stack_pairs` order, as :func:`tau_jackknife`
    returns it; each entry is divided by the geometric mean of its two
    columns' shares of untied pairs, so untied columns keep tau-a exactly.
    Constant columns make tau undefined and raise.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    untied = np.empty(d)
    for j in range(d):
        t = np.unique(Y[:, j], return_counts=True)[1].astype(float)
        untied[j] = 1.0 - np.sum(t * (t - 1.0)) / (n * (n - 1.0))
        if untied[j] <= 0.0:
            raise ValueError(f"column {j} is constant; tau undefined")
    a, b = np.triu_indices(d, 1)
    out = np.eye(d)
    out[a, b] = out[b, a] = np.clip(tau / np.sqrt(untied[a] * untied[b]), -1.0, 1.0)
    return out


def _block_masks(ranks: np.ndarray, word: np.ndarray, bit: np.ndarray,
                 out: np.ndarray) -> None:
    """Pack one row block's sets {j : pos_k(j) < ranks[k, i]}, word-major.

    ``word[k, t]`` and ``bit[k, t]`` locate the observation at position t
    of column k's sort order; ``out[k, w, i]`` receives word w of row i's
    set.  The block's m ranks split each column's positions into m + 1
    segments; every position's bit is added into its (segment, word) cell,
    where all bits differ, so add is OR, and one OR-accumulate down the
    segments leaves row i's set at i's place among the sorted ranks.  That
    costs O(n + m n / 64) per column, where a prefix table over all n
    positions costs O(n^2 / 64).
    """
    d, n = word.shape
    m = ranks.shape[1]
    table = np.empty((m + 1, out.shape[1]), dtype=np.uint64)
    for k in range(d):
        hist = np.bincount(ranks[k], minlength=n + 1)
        below = np.cumsum(hist) - hist  # below[t] = #{i : ranks[k, i] < t}
        table.fill(0)
        # position t lies in segment #{i : ranks[k, i] <= t}, which is below[t + 1]
        np.add.at(table.reshape(-1), below[1:] * table.shape[1] + word[k], bit[k])
        np.bitwise_or.accumulate(table, axis=0, out=table)
        out[k] = table[below[ranks[k]]].T


def _concordance_counts(Y: np.ndarray, chunk: int = 256, *,
                        workers: int | None = None) -> np.ndarray:
    """Per-observation net concordance for every pair, as exact integers.

    c[i, pair] = sum_j sgn(x_i - x_j) sgn(y_i - y_j) in :func:`stack_pairs`
    order; ties contribute zero.  For a block of ``chunk`` rows, each
    column's set {j : x_j < x_i} is packed into uint64 words by
    :func:`_block_masks`, and so is {j : x_j > x_i} for columns with ties;
    the ranks r = #{x_j < x_i} and g = #{x_j > x_i} are the ends of x_i's
    tie run in the column's one sort.  Writing LG = #{x_j < x_i, y_j > y_i}
    and so on, c = LL - LG - GL + GG; the ranks give the cross terms of an
    untied column (LG = r_x - LL when y is untied), so an untied pair needs
    one popcount, c = 4 LL + (n - 1) - 2 r_x - 2 r_y.  The masks are stored
    (column, word, row), so the sum of the popcounts over words adds whole
    rows of the block at a time.

    Costs O(n^2 p / 64) word operations and O(workers d n chunk / 8) bytes
    of masks, beside the O(n p) result.  The blocks are split across
    ``workers`` threads, the calling one included (default: the CPUs this
    process may run on), each with its own buffers, writing its own rows
    of the result, so the result does not depend on the worker count.
    """
    n, d = Y.shape
    n_words = -(-n // 64)
    X = np.ascontiguousarray(Y.T)
    order = np.argsort(X, axis=1, kind="stable")
    srt = np.take_along_axis(X, order, axis=1)
    # a tie run starts at each new value; NaNs sort last and tie with each other
    new = np.ones((d, n + 1), dtype=bool)
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:n])
    new[:, 1:n] &= ~np.isnan(srt[:, :-1])
    pos = np.arange(n + 1)
    run_start = np.maximum.accumulate(np.where(new, pos, 0)[:, :n], axis=1)
    run_end = np.minimum.accumulate(np.where(new, pos, n)[:, :0:-1], axis=1)[:, ::-1]
    lo = np.empty((d, n), dtype=np.intp)  # #{j : x_j < x_i}
    hi = np.empty((d, n), dtype=np.intp)  # #{j : x_j <= x_i}
    np.put_along_axis(lo, order, run_start, axis=1)
    np.put_along_axis(hi, order, run_end, axis=1)
    tied = (hi - lo > 1).any(axis=1)
    n_tied = int(tied.sum())
    slot = np.cumsum(tied) - 1  # row of a tied column in ``gt``
    word = order >> 6
    bit = np.left_shift(np.uint64(1), (order & 63).astype(np.uint64))
    full = np.full(n_words, ~np.uint64(0))
    full[-1] >>= np.uint64(-n % 64)
    p = d * (d - 1) // 2
    c = np.empty((n, p), dtype=np.int64)

    def buffers():
        return (np.empty(d * n_words * chunk, dtype=np.uint64),
                np.empty(n_tied * n_words * chunk, dtype=np.uint64),
                np.empty((d - 1) * n_words * chunk, dtype=np.uint64),
                np.empty((d - 1) * n_words * chunk, dtype=np.uint8))

    def work(starts: range, bufs) -> None:
        lt_buf, gt_buf, and_buf, bits_buf = bufs

        def popcount(x, y):
            # sum over words of popcount(x & y), shaped (len(y), rows)
            both = np.bitwise_and(x, y, out=and_buf[:y.size].reshape(y.shape))
            bits = np.bitwise_count(both, out=bits_buf[:y.size].reshape(y.shape))
            return bits.sum(axis=1, dtype=np.int32).astype(np.int64)

        for a in starts:
            m = min(chunk, n - a)
            rows = slice(a, a + m)
            lt = lt_buf[:d * n_words * m].reshape(d, n_words, m)
            _block_masks(lo[:, rows], word, bit, lt)
            gt = gt_buf[:n_tied * n_words * m].reshape(n_tied, n_words, m)
            _block_masks(hi[tied, rows], word[tied], bit[tied], gt)
            gt ^= full[:, None]
            r, g = lo[:, rows], n - hi[:, rows]
            col = 0
            for k in range(d - 1):
                later = slice(k + 1, d)
                cols = slice(col, col + d - k - 1)
                ll = popcount(lt[k], lt[later])
                t = np.flatnonzero(tied[later])
                if tied[k] or t.size:
                    lg = r[k] - ll
                    gl = r[later] - ll
                    gg = (n - 1) - r[k] - r[later] + ll
                    if t.size:
                        gt_t = gt[slot[k + 1 + t]]
                        lg[t] = popcount(lt[k], gt_t)
                        gg[t] = g[later][t] - lg[t]
                    if tied[k]:
                        gl = popcount(gt[slot[k]], lt[later])
                        gg = g[k] - gl
                        if t.size:
                            gg[t] = popcount(gt[slot[k]], gt_t)
                    net = ll - lg - gl + gg
                else:
                    net = 4 * ll + (n - 1) - 2 * r[k] - 2 * r[later]
                c[rows, cols] = net.T
                col = cols.stop

    blocks = range(0, n, chunk)
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(blocks)))
    shares = [blocks[w::workers] for w in range(workers)]
    # the calling thread makes every buffer, and runs one share itself:
    # memory that a worker thread frees stays in that thread's malloc
    # arena, which the process's later allocations do not reuse; buffers
    # made in the workers added 16 MB to the peak RSS of a ``panel`` bench run
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        rest = [pool.submit(work, share, buffers()) for share in shares[1:]]
        work(shares[0], buffers())
        for job in rest:
            job.result()
    return c


def tau_jackknife(Y):
    """Leave-one-out pseudo-values of the stacked upper-triangle tau vector.

    Returns (tau_hat, pseudo) with pseudo of shape (n, p), pair order
    (0,1), (0,2), ..., matching :func:`stack_pairs`; tau_hat is tau-a.
    One pass of :func:`_concordance_counts` gives both, at O(n^2 p / 64)
    word operations split across the process's CPUs, and O(n p) bytes for
    the counts and pseudo-values plus O(d n) bytes of masks and buffers per
    CPU; the result is the same for any number of CPUs.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    if n < 50:
        raise ValueError("jackknife infeasible for n < 50")
    denom_full = n * (n - 1) / 2.0
    denom_loo = (n - 1) * (n - 2) / 2.0
    c = _concordance_counts(Y)
    s_total = c.sum(axis=0) / 2.0
    tau = s_total / denom_full
    pseudo = (s_total[None, :] - c) / denom_loo
    return tau, pseudo


def stack_pairs(d: int) -> list[tuple[int, int]]:
    return list(combinations(range(d), 2))


@dataclass(frozen=True)
class ClusterSpec:
    """Partition of variable indices into exchangeable blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        flat = [i for b in blocks for i in b]
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be non-empty")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("blocks must partition 0..D-1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.blocks)

    def labels(self) -> np.ndarray:
        lab = np.empty(self.dim, dtype=int)
        for g, b in enumerate(self.blocks):
            lab[list(b)] = g
        return lab


def ward_cluster(tau: np.ndarray, k: int) -> ClusterSpec:
    """Agglomerative Ward clustering of the dissimilarity 1 - tau.

    Lance-Williams recurrence on squared dissimilarities; merge ties break
    deterministically toward the smallest index pair.
    """
    tau = np.asarray(tau, dtype=float)
    d = tau.shape[0]
    if not 1 <= k <= d:
        raise ValueError("k must be within [1, D]")
    dist2 = (1.0 - tau) ** 2
    np.fill_diagonal(dist2, np.inf)
    members: list[list[int] | None] = [[i] for i in range(d)]
    sizes = np.ones(d)
    active = list(range(d))
    while len(active) > k:
        best = (np.inf, -1, -1)
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                i, j = active[ai], active[bi]
                val = dist2[i, j]
                if val < best[0] - 1e-15:
                    best = (val, i, j)
        _, i, j = best
        ni, nj = sizes[i], sizes[j]
        for h in active:
            if h in (i, j):
                continue
            nh = sizes[h]
            new = ((ni + nh) * dist2[h, i] + (nj + nh) * dist2[h, j]
                   - nh * dist2[i, j]) / (ni + nj + nh)
            dist2[h, i] = dist2[i, h] = new
        sizes[i] = ni + nj
        members[i] = members[i] + members[j]
        members[j] = None
        active.remove(j)
    blocks = tuple(tuple(sorted(members[i])) for i in active)
    blocks = tuple(sorted(blocks, key=lambda b: b[0]))
    return ClusterSpec(blocks)


@dataclass
class ExchTestResult:
    """Partial-exchangeability test statistics and p-values."""

    e_n: float
    m_n: float
    p_e: float
    p_m: float
    p_e_chi2: float
    L: int
    df: int
    flags: list[str] = field(default_factory=list)


def _structure_matrix(clusters: ClusterSpec, pairs) -> np.ndarray:
    """Pair-class indicator matrix.

    One column per within-block pair class plus a single pooled
    between-block class.  Empty classes are dropped.
    """
    lab = clusters.labels()
    li, lj = lab[np.asarray(pairs)].T
    blocks = np.arange(len(clusters.blocks))
    B = np.hstack([(li == lj)[:, None] & (li[:, None] == blocks),
                   (li != lj)[:, None]])
    return B[:, B.any(axis=0)].astype(float)


def _orbit_average(S: np.ndarray, clusters: ClusterSpec, pairs) -> np.ndarray:
    """Average the tau covariance over block-permutation orbits.

    Cell (a, b) of pairs a = (i, j), b = (k, l) is keyed by the label
    classes of a and b and by the label of an index they share; a == b
    (two shared indices) gets a key of its own.  Returns the symmetrized
    matrix of orbit means.
    """
    lab = clusters.labels()
    g = len(clusters.blocks)
    i, j = np.asarray(pairs).T
    cls = np.minimum(lab[i], lab[j]) * g + np.maximum(lab[i], lab[j])
    I, J = i[:, None], j[:, None]
    shared = np.where((I == i) | (I == j), lab[I] + 1,
                      np.where((J == i) | (J == j), lab[J] + 1, 0))
    np.fill_diagonal(shared, g + 1)
    key = (cls[:, None] * g * g + cls) * (g + 2) + shared
    _, orbit = np.unique(key.ravel(), return_inverse=True)
    orbit = orbit.ravel()
    mean = np.bincount(orbit, weights=S.ravel()) / np.bincount(orbit)
    out = mean[orbit].reshape(S.shape)
    return 0.5 * (out + out.T)


def exch_test(Y, clusters: ClusterSpec, n_mc: int = 2000, seed: int = 0,
              jackknife: tuple[np.ndarray, np.ndarray] | None = None
              ) -> ExchTestResult:
    """Test partial exchangeability of the dependence structure.

    Projects the stacked Kendall's tau vector onto the orthocomplement of
    the cluster-structure column space and standardizes by the jackknife
    covariance S, entry-averaged over block-permutation orbits.  Monte Carlo
    p-values draw from the implied Gaussian null; the chi-square p-value
    uses the p - L degrees of freedom of the quadratic statistic.

    It works in S's eigenbasis, S = V diag(lam) V', with eigenvalues at or
    below 1e-12 of the largest given weight 0 (flag ``sigma-singular``).
    The structure columns B are disjoint class indicators, so with
    Q = B / sqrt(class sizes) the projector is I - Q Q', and V' P V is
    I - R R' with R = V'Q of shape (p, L).  Past the eigendecomposition the
    statistic costs O(p^2) and the null draws O(n_mc p^2), in two
    (n_mc, p) x (p, p) products.  Every p-value is NaN when p - L is 0
    (flag ``no-degrees-of-freedom``), and when every eigenvector v above
    the cutoff lies in span(B), 1 - |Q'v|^2 <= 1e-10, where the statistic
    and its null draws are rounding (flag ``no-null-variance``).
    ``jackknife`` takes a ``(tau, pseudo)`` pair already computed by
    :func:`tau_jackknife` on ``Y``.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    if clusters.dim != d:
        raise ValueError("clusters must cover all columns")
    if d > 60:
        raise ValueError("dimension capped at 60 (p grows quadratically)")
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000")
    pairs = stack_pairs(d)
    tau, pseudo = tau_jackknife(Y) if jackknife is None else jackknife
    if np.shape(tau) != (len(pairs),) or np.shape(pseudo) != (n, len(pairs)):
        raise ValueError("jackknife does not match Y")
    resid = pseudo - pseudo.mean(axis=0)
    del pseudo  # the (n, p) arrays go before the orbit keys and the draws
    S = (n - 1) / n * (resid.T @ resid)
    del resid
    S = _orbit_average(S, clusters, pairs)
    flags: list[str] = []
    B = _structure_matrix(clusters, pairs)
    L = B.shape[1]
    Q = B / np.sqrt(B.sum(axis=0))
    vals, V = np.linalg.eigh(S)
    bad = vals <= 1e-12 * max(vals.max(), 1e-300)
    if bad.any():
        flags.append("sigma-singular")
    magnitude = np.where(bad, 1.0, np.abs(vals))
    half, inv_sqrt, inv_full = (np.where(bad, 0.0, magnitude ** q)
                                for q in (0.5, -0.5, -1.0))
    R = V.T @ Q
    vpt = V.T @ tau - R @ (Q.T @ tau)
    e_n = float(np.linalg.norm(inv_sqrt * vpt))
    m_n = float(np.linalg.norm(V @ (inv_full * vpt), np.inf))
    df = len(pairs) - L
    outside = 1.0 - np.einsum("kl,kl->k", R, R)[~bad]  # 1 - |Q'v|^2
    if df == 0 or np.all(outside <= 1e-10):
        # the statistic and every null draw are 0 when p - L = 0
        # (chdtrc(0, x > 0) is 0, and every draw ties), and rounding when
        # none of S's variance lies outside span(B)
        flags.append("no-null-variance" if df else "no-degrees-of-freedom")
        return ExchTestResult(e_n, m_n, math.nan, math.nan, math.nan, L, df, flags)

    # standard normal draws x give the null's projected draws x S^(1/2) P,
    # which are w V' with w = x V diag(half) (I - R R'); x's buffer takes
    # the later products
    x = derive_rng(seed).standard_normal((n_mc, len(pairs)))
    w = x @ V
    w *= half
    w -= np.matmul(w @ R, R.T, out=x)
    np.multiply(w, inv_sqrt, out=x)
    e_null = np.sqrt(np.einsum("ij,ij->i", x, x))
    w *= inv_full
    m_null = np.max(np.abs(np.matmul(w, V.T, out=x), out=x), axis=1)
    p_e = float((1 + np.sum(e_null >= e_n)) / (n_mc + 1))
    p_m = float((1 + np.sum(m_null >= m_n)) / (n_mc + 1))
    return ExchTestResult(e_n, m_n, p_e, p_m, float(chdtrc(df, e_n ** 2)), L, df,
                          flags)


@dataclass
class SubsetChiScore:
    score: float
    n_subsets: int
    n_failed: int
    empirical: np.ndarray
    model: np.ndarray
    flags: list[str] = field(default_factory=list)


def _fit_model_chi(Ysub, family, k: int, level: float,
                   fit_quantile: float, mc_n: int, seed: int) -> float:
    """Fit a family (None for the HT model) to the given columns and return
    its k-variate chi."""
    u01 = rank_transform(Ysub)
    if family is None:
        lap = np.asarray(MarginSpec("laplace").quantile(u01))
        params = fit_ht_exchangeable_gaussian(lap, threshold_quantile=fit_quantile)
        return ht_model_chi(params, k, level, N=mc_n, seed=seed)
    fre = np.asarray(MarginSpec("frechet").quantile(u01))
    u = np.full(Ysub.shape[1], float(MarginSpec("frechet").quantile(fit_quantile)))
    fit = family.fit(fre, u, censor=u)
    return model_chi(family.model(fit.estimate, k), k, seed=seed)


def subset_chi_cv(Y, k: int, u: float, fitter: str,
                  fit_quantile: float = 0.95, mc_n: int = 1_000_000,
                  seed: int = 0, max_subsets: int = 100_000) -> SubsetChiScore:
    """Leave-subset-out cross-validation of the model-implied tail correlation.

    For every size-k subset of the cluster, compares the empirical
    rank-based tail correlation at level ``u`` against the k-variate chi
    implied by the model fitted to the complementary variables, and
    returns n_k^{-1} [sum of squared gaps]^{1/2}.  Subsets whose
    complementary fit fails are skipped and counted.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    m = Y.shape[1]
    if not 2 <= k < m:
        raise ValueError("need cluster size m > k >= 2")
    n_k = math.comb(m, k)
    if n_k > max_subsets:
        raise ValueError(f"{n_k} subsets exceed the cap {max_subsets}")
    # resolved before the loop, so an unknown name is an error of its own
    # rather than a failure of every complementary fit
    family = None if fitter == "ht" else fitted_family(fitter)
    U = rank_transform(Y)
    emp, mod = [], []
    failed = 0
    for s_idx, subset in enumerate(combinations(range(m), k)):
        rest = [c for c in range(m) if c not in subset]
        emp_chi = chi_estimate(U[:, subset], u).chi
        try:
            mc = _fit_model_chi(Y[:, rest], family, k, u, fit_quantile,
                                mc_n, derive_rng(seed, s_idx).integers(2**31))
        except (ValueError, RuntimeError):
            failed += 1
            continue
        emp.append(emp_chi)
        mod.append(mc)
    if not emp:
        raise RuntimeError("every complementary fit failed")
    emp_arr, mod_arr = np.asarray(emp), np.asarray(mod)
    score = float(np.sqrt(np.sum((emp_arr - mod_arr) ** 2)) / n_k)
    return SubsetChiScore(score, n_k, failed, emp_arr, mod_arr,
                          ["subset-fits-failed"] if failed else [])


def omega2_empirical(U, u1: float, u2: float, t: float) -> float:
    """Empirical joint-exceedance ratio on the uniform scale.

    P(U1 > u1, U2 > u2) / P(max(U1, U2) > t) with t <= u2 and u1 <= u2.
    """
    _omega2_check(u1, u2, t)
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != 2:
        raise ValueError("omega2 is a pairwise measure")
    num = np.mean((U[:, 0] > u1) & (U[:, 1] > u2))
    den = np.mean(np.max(U, axis=1) > t)
    if den == 0.0:
        raise ValueError("no observations exceed the conditioning level t")
    return float(num / den)


def omega2_model(model: MgpdModel, u1: float, u2: float, t: float) -> float:
    """Model form Xi(x(u1), x(u2)) / V(x(t) 1_2) on the Frechet scale."""
    _omega2_check(u1, u2, t)
    x = lambda q: -1.0 / np.log(q)
    xi = xi_measure(model, np.array([x(u1), x(u2)]))
    v = exponent_measure_v(model, np.full(2, x(t)))
    return float(xi / v)


def omega2_ht(params: HtParams, u1: float, u2: float, t: float,
              N: int = 1_000_000, seed: int = 0) -> float:
    """Conditional-extremes Monte Carlo form of the unequal-level ratio.

    Simulates the conditioning variable exponentially above the Laplace
    level of u2, reconstructs the companion with residual draws from the
    pooled scalar residual distribution, and normalizes by the same
    scheme's estimate of P(max > t).
    """
    _omega2_check(u1, u2, t)
    lap = MarginSpec("laplace")
    alpha, beta = float(params.alpha), float(params.beta)
    zpool = params.residual_pool[~np.isnan(params.residual_pool)]
    rng = derive_rng(seed)

    def joint(level_hi: float, level_lo: float) -> float:
        # P(conditioner > hi, companion > lo), conditioning at hi
        q_hi = float(lap.quantile(level_hi))
        q_lo = float(lap.quantile(level_lo))
        y0 = q_hi + rng.exponential(size=N)
        z = zpool[rng.integers(0, zpool.size, size=N)]
        y1 = alpha * y0 + y0 ** beta * z
        return (1.0 - level_hi) * float(np.mean(y1 > q_lo))

    num = joint(u2, u1)
    p_both_t = joint(t, t)
    den = 2.0 * (1.0 - t) - p_both_t
    return float(num / den)


def _omega2_check(u1: float, u2: float, t: float) -> None:
    for q in (u1, u2, t):
        if not 0.0 < q < 1.0:
            raise ValueError("levels must be in (0, 1)")
    if u1 > u2 or t > u2:
        raise ValueError("require u1 <= u2 and t <= u2")


@dataclass
class StabilityRow:
    level: float
    estimate: float
    se: float | None
    lower: float
    upper: float
    n_rows: int
    failed: bool = False


def threshold_stability_scan(Y, levels, fitter: str = "logistic",
                             censor_quantile: float | None = None) -> list[StabilityRow]:
    """Refit the dependence model across threshold levels.

    ``Y`` lives on the unit-Frechet scale; each level sets per-column
    thresholds at the empirical quantile, censoring below the censor
    quantile (the threshold itself when unset).  Emits the estimate with a
    95% pointwise normal interval per level; failures are recorded rows,
    not fatal.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = []
    for q in np.asarray(levels, dtype=float).ravel():
        if not 0.5 < q < 0.999:
            raise ValueError("levels must lie in (0.5, 0.999)")
        u = np.quantile(Y, q, axis=0)
        cq = q if censor_quantile is None else censor_quantile
        censor = np.quantile(Y, cq, axis=0)
        try:
            fit = fitted_family(fitter).fit(Y, u, censor)
        except (ValueError, RuntimeError):
            out.append(StabilityRow(float(q), np.nan, None, np.nan, np.nan,
                                    0, failed=True))
            continue
        se = fit.se if fit.se is not None else np.nan
        out.append(StabilityRow(float(q), fit.estimate, fit.se,
                                fit.estimate - 1.96 * se,
                                fit.estimate + 1.96 * se, fit.n_rows))
    return out
