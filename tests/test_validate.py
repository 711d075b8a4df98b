import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc
from scipy.stats import chi2, kendalltau

from helpers import exch_test_dense
from extremis.core import derive_rng
from extremis.mgpd import Logistic
from extremis.simulate import sample_logistic_max_stable
from extremis.validate import (ClusterSpec, _concordance_counts,
                               _orbit_average, _structure_matrix, exch_test,
                               kendall_tau_matrix, omega2_empirical, omega2_ht,
                               omega2_model, stack_pairs, subset_chi_cv,
                               tau_b_matrix, tau_jackknife,
                               threshold_stability_scan, ward_cluster)


def block_gauss(n, blocks, rho_in, rho_out, rng, tweak=None):
    d = sum(len(b) for b in blocks)
    lab = np.empty(d, int)
    for g, b in enumerate(blocks):
        lab[list(b)] = g
    R = np.where(lab[:, None] == lab[None, :], rho_in, rho_out)
    np.fill_diagonal(R, 1.0)
    if tweak is not None:
        (i, j), rho = tweak
        R[i, j] = R[j, i] = rho
    return rng.standard_normal((n, d)) @ np.linalg.cholesky(R).T


def test_kendall_tau_examples():
    x = np.array([1.0, 2.0, 3.0])
    tau = kendall_tau_matrix(np.column_stack([x, np.array([1.0, 3.0, 2.0])]))
    assert tau[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    mono = kendall_tau_matrix(np.column_stack([x, np.exp(x)]))
    assert mono[0, 1] == pytest.approx(1.0)
    anti = kendall_tau_matrix(np.column_stack([x, -x]))
    assert anti[0, 1] == pytest.approx(-1.0)
    assert np.allclose(np.diag(tau), 1.0)


def test_kendall_tau_invariance_and_symmetry():
    rng = derive_rng(1)
    Y = rng.normal(size=(300, 3))
    tau = kendall_tau_matrix(Y)
    np.testing.assert_allclose(tau, tau.T)
    Y2 = np.column_stack([np.exp(Y[:, 0]), Y[:, 1] ** 3, 2 * Y[:, 2] + 5])
    np.testing.assert_allclose(kendall_tau_matrix(Y2), tau, atol=1e-12)
    with pytest.raises(ValueError, match="constant"):
        kendall_tau_matrix(np.column_stack([Y[:, 0], np.ones(300)]))


def test_ward_cluster_block_diagonal():
    tau = np.array([
        [1.0, 0.6, 0.6, 0.0, 0.0],
        [0.6, 1.0, 0.6, 0.0, 0.0],
        [0.6, 0.6, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.7],
        [0.0, 0.0, 0.0, 0.7, 1.0],
    ])
    cs = ward_cluster(tau, 2)
    assert cs.blocks == ((0, 1, 2), (3, 4))
    singletons = ward_cluster(tau, 5)
    assert singletons.blocks == ((0,), (1,), (2,), (3,), (4,))


def test_ward_cluster_recovery_simulated():
    blocks = ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9), (10, 11, 12))
    hits = 0
    reps = 20
    for r in range(reps):
        rng = derive_rng(404, r)
        Y = block_gauss(10_000, blocks, 0.52, 0.03, rng)
        tau = kendall_tau_matrix(Y)
        cs = ward_cluster(tau, 5)
        hits += cs.blocks == blocks
    assert hits >= 0.95 * reps


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        ClusterSpec(((0, 2),))


def test_exch_test_exact_structure_gives_small_statistic():
    # build data whose tau matrix satisfies the structure, then p ~ 1
    rng = derive_rng(7)
    blocks = ((0, 1, 2), (3, 4, 5))
    Y = block_gauss(3000, blocks, 0.45, 0.05, rng)
    res = exch_test(Y, ClusterSpec(blocks), n_mc=2000, seed=1)
    assert res.p_e > 0.2 and res.p_m > 0.2
    assert res.L == 3
    assert res.df == 15 - 3


def test_exch_test_invariance_under_block_permutation():
    rng = derive_rng(9)
    blocks = ((0, 1, 2), (3, 4, 5))
    Y = block_gauss(800, blocks, 0.4, 0.1, rng)
    res1 = exch_test(Y, ClusterSpec(blocks), n_mc=1000, seed=2)
    Yp = Y[:, [1, 2, 0, 4, 3, 5]]  # permute within blocks only
    res2 = exch_test(Yp, ClusterSpec(blocks), n_mc=1000, seed=2)
    assert res1.e_n == pytest.approx(res2.e_n, rel=1e-9)
    assert res1.m_n == pytest.approx(res2.m_n, rel=1e-9)


def test_exch_test_detects_perturbed_pair():
    rng = derive_rng(11)
    blocks = ((0, 1, 2), (3, 4, 5))
    Y = block_gauss(10_000, blocks, 0.522, 0.05, rng,
                    tweak=((0, 1), 0.760))
    res = exch_test(Y, ClusterSpec(blocks), n_mc=2000, seed=3)
    assert res.p_e < 0.05 and res.p_m < 0.05


def test_exch_test_mc_chi2_agreement():
    rng = derive_rng(13)
    blocks = ((0, 1, 2), (3, 4, 5))
    Y = block_gauss(2000, blocks, 0.45, 0.05, rng)
    res = exch_test(Y, ClusterSpec(blocks), n_mc=4000, seed=4)
    assert abs(res.p_e - res.p_e_chi2) < 0.02


@pytest.mark.parametrize("df", [1, 2, 3, 5, 12, 40, 1770])
def test_chi2_kernel_is_scipy_chi2_sf_bitwise(df):
    # exch_test's p-value calls the ufunc scipy.stats.chi2.sf wraps
    x = np.concatenate([derive_rng(43).exponential(size=2000) * 2.0 * df,
                        [0.0, -0.0, np.inf, np.nan, 1e-300, 1e300]])
    np.testing.assert_array_equal(chdtrc(df, x).view(np.uint64),
                                  chi2.sf(x, df).view(np.uint64))


def test_exch_test_chi2_p_value_is_scipy_chi2_sf():
    rng = derive_rng(13)
    blocks = ((0, 1, 2), (3, 4, 5))
    res = exch_test(block_gauss(400, blocks, 0.45, 0.05, rng), ClusterSpec(blocks),
                    n_mc=1000, seed=4)
    assert res.df == 12 and res.p_e_chi2 == chi2.sf(res.e_n ** 2, res.df)


def test_exch_test_chi2_p_value_is_nan_without_degrees_of_freedom():
    # two columns: one pair and one class, so p - L = 0 and the projected
    # statistic is exactly 0.  chi2.sf is NaN there; its kernel chdtrc(0, x)
    # is NaN only at x = 0 and 0 for any x > 0, which would read as a
    # rejection at every level, so the test keeps NaN by its own guard.
    # Every Monte Carlo null draw ties the statistic at 0 as well, so the
    # Monte Carlo p-values are NaN too, and the result says why
    Y = block_gauss(300, ((0, 1),), 0.5, 0.0, derive_rng(17))
    for blocks in ([[0, 1]], [[0], [1]]):
        res = exch_test(Y, ClusterSpec(blocks), n_mc=1000, seed=5)
        assert res.df == 0 and res.e_n == 0.0 and np.isnan(res.p_e_chi2)
        assert np.isnan(res.p_e) and np.isnan(res.p_m)
        assert res.flags == ["no-degrees-of-freedom"]
    assert np.isnan(chi2.sf(1e-12, 0)) and chdtrc(0, 1e-12) == 0.0


@pytest.mark.parametrize("columns", ["xxz", "xxx"])
def test_exch_test_flags_a_null_without_variance(columns):
    # p - L = 1, but every eigenvector of the tau covariance above its
    # cutoff lies in the structure's span, or none is above it: the
    # statistic is rounding, where the dense form gave p-values of 0.64
    # and 1.0 with only ``sigma-singular`` to say so
    x, z = derive_rng(3).standard_normal((2, 200))
    Y = np.column_stack([x, x, z if columns == "xxz" else x])
    res = exch_test(Y, ClusterSpec([[0, 1], [2]]), n_mc=1000)
    assert res.df == 1 and res.L == 2
    assert res.e_n < 1e-14 and res.m_n < 1e-13
    assert math.isnan(res.p_e) and math.isnan(res.p_m) and math.isnan(res.p_e_chi2)
    assert res.flags == ["sigma-singular", "no-null-variance"]


def test_subset_chi_cv_pinned_model_scores_zero():
    # when the model chi equals the empirical chi for every subset the
    # score vanishes; emulate by comparing the empirical values to
    # themselves through the returned arrays
    rng = derive_rng(17)
    y = sample_logistic_max_stable(0.5, 20_000, 4, rng)
    out = subset_chi_cv(y, k=2, u=0.95, fitter="logistic", fit_quantile=0.9)
    assert out.n_subsets == 6
    assert out.score >= 0.0
    pinned = np.sqrt(np.sum((out.empirical - out.empirical) ** 2)) / out.n_subsets
    assert pinned == 0.0


def test_subset_chi_cv_well_specified_wins():
    # exact tail samples from the logistic model: its fitter is unbiased
    # while the matched Huesler-Reiss extrapolates the triple chi too low
    from extremis.core import MarginSpec
    from extremis.mgpd import exponent_measure_v
    from extremis.simulate import simulate_mgpd_dataset
    model = Logistic(2.0)
    f = 0.1
    q0 = 1.0 - f / exponent_measure_v(model, np.ones(5))
    lo_scores, hr_scores = [], []
    for r in range(8):
        ds = simulate_mgpd_dataset(model, [MarginSpec("uniform")] * 5,
                                   30_000, f, seed=700 + r)
        lo_scores.append(subset_chi_cv(ds.values, k=3, u=0.98,
                                       fitter="logistic", fit_quantile=q0,
                                       seed=r).score)
        hr_scores.append(subset_chi_cv(ds.values, k=3, u=0.98, fitter="hr",
                                       fit_quantile=q0, seed=r).score)
    assert np.mean(lo_scores) < np.mean(hr_scores)


def test_subset_chi_cv_relabel_invariance():
    rng = derive_rng(23)
    y = sample_logistic_max_stable(0.6, 8000, 4, rng)
    a = subset_chi_cv(y, k=2, u=0.95, fitter="logistic", fit_quantile=0.9, seed=0)
    b = subset_chi_cv(y[:, ::-1], k=2, u=0.95, fitter="logistic",
                      fit_quantile=0.9, seed=0)
    assert a.score == pytest.approx(b.score, rel=1e-6)


def test_omega2_comonotone_and_independent():
    rng = derive_rng(29)
    base = rng.uniform(size=100_000)
    U = np.column_stack([base, base])
    got = omega2_empirical(U, 0.90, 0.95, 0.92)
    assert got == pytest.approx((1 - 0.95) / (1 - 0.92), abs=0.01)
    V = rng.uniform(size=(400_000, 2))
    u = 0.97
    got_ind = omega2_empirical(V, u, u, u)
    target = (1 - u) ** 2 / (2 * (1 - u) - (1 - u) ** 2)
    assert got_ind == pytest.approx(target, rel=0.25)
    assert target == pytest.approx((1 - u) / 2.0, rel=0.02)


def test_omega2_model_logistic_ratio():
    got = omega2_model(Logistic(2.0), 0.97, 0.97, 0.97)
    assert got == pytest.approx((2.0 - np.sqrt(2.0)) / np.sqrt(2.0), rel=1e-9)
    assert got == pytest.approx(0.41421, abs=1e-4)


def test_omega2_ht_sane_and_in_unit_interval():
    import sys
    sys.path.insert(0, "tests")
    from test_condex import simulate_ht
    from extremis.condex import fit_ht_exchangeable_gaussian
    L = simulate_ht(0.6, 0.2, 4000, 2, seed=31, u=2.5)
    fit = fit_ht_exchangeable_gaussian(L, threshold=2.5)
    w = omega2_ht(fit, 0.96, 0.99, 0.97, N=200_000, seed=5)
    assert 0.0 < w < 1.0


def test_omega2_validation():
    with pytest.raises(ValueError):
        omega2_model(Logistic(2.0), 0.99, 0.96, 0.95)
    with pytest.raises(ValueError):
        omega2_empirical(np.random.default_rng(0).uniform(size=(100, 2)),
                         0.9, 0.95, 0.97)


def test_threshold_stability_single_level_matches_direct_fit():
    rng = derive_rng(37)
    y = sample_logistic_max_stable(0.5, 30_000, 3, rng)
    rows = threshold_stability_scan(y, [0.9], fitter="logistic")
    assert len(rows) == 1 and not rows[0].failed
    from extremis.mgpd import fit_logistic_censored
    u = np.quantile(y, 0.9, axis=0)
    direct = fit_logistic_censored(y, u, u)
    assert rows[0].estimate == pytest.approx(direct.estimate, rel=1e-9)
    assert rows[0].lower < rows[0].estimate < rows[0].upper


@pytest.mark.slow
def test_threshold_stability_correct_model_is_stable():
    # exact logistic tail samples: estimates across levels fall within
    # mutually overlapping 95% intervals in most seeds
    from extremis.core import MarginSpec
    from extremis.mgpd import exponent_measure_v
    from extremis.simulate import simulate_mgpd_dataset
    model = Logistic(2.0)
    # exceed_fraction high enough that every scan level sits above the
    # exact-tail embedding level (~0.827)
    f = 0.3
    good = 0
    reps = 10
    for r in range(reps):
        ds = simulate_mgpd_dataset(model, [MarginSpec("frechet")] * 3,
                                   40_000, f, seed=4100 + r)
        rows = threshold_stability_scan(ds.values, [0.85, 0.9, 0.95],
                                        fitter="logistic")
        ok = all(not row.failed for row in rows)
        if ok:
            los = [row.lower for row in rows]
            his = [row.upper for row in rows]
            ok = max(los) <= min(his)
        good += ok
    assert good >= 0.9 * reps


# ------------------------------------------------ fast kernels vs references

def mixed_sample(n, levels, seed):
    """n x len(levels) sample: column j holds integers in [0, levels[j])
    (heavily tied) or, where levels[j] is 0, continuous normals."""
    rng = derive_rng(seed)
    cols = [rng.integers(0, m, n).astype(float) if m else rng.normal(size=n)
            for m in levels]
    return np.column_stack(cols)


sizes = st.integers(2, 150) | st.sampled_from([64, 128, 192])
column_kinds = st.lists(st.sampled_from([0, 0, 2, 3, 8]), min_size=2, max_size=5)


@settings(max_examples=60, deadline=None)
@given(n=sizes, levels=column_kinds, seed=st.integers(0, 2**31),
       chunk=st.sampled_from([7, 64, 1024]))
def test_concordance_counts_match_brute_force(n, levels, seed, chunk):
    Y = mixed_sample(n, levels, seed)
    sgn = np.sign(Y[:, None, :] - Y[None, :, :])
    brute = np.column_stack([np.sum(sgn[:, :, i] * sgn[:, :, j], axis=1)
                             for i, j in stack_pairs(Y.shape[1])])
    np.testing.assert_array_equal(_concordance_counts(Y, chunk), brute)


@settings(max_examples=40, deadline=None)
@given(n=sizes, levels=column_kinds, seed=st.integers(0, 2**31))
def test_kendall_tau_matrix_is_scipy_tau_b(n, levels, seed):
    Y = mixed_sample(n, levels, seed)
    assume(all(np.ptp(Y[:, j]) > 0 for j in range(Y.shape[1])))
    tau = kendall_tau_matrix(Y)
    for i, j in stack_pairs(Y.shape[1]):
        ref = kendalltau(Y[:, i], Y[:, j], variant="b").statistic
        assert abs(tau[i, j] - ref) <= 1e-12
        assert tau[j, i] == tau[i, j]


def test_tau_b_from_jackknife_matches_kendall_tau_matrix():
    Y = mixed_sample(300, [0, 3, 0, 8], 5)
    tau, pseudo = tau_jackknife(Y)
    assert pseudo.shape == (300, 6)
    np.testing.assert_allclose(tau_b_matrix(Y, tau), kendall_tau_matrix(Y),
                               rtol=0, atol=1e-15)
    # untied columns keep tau-a exactly
    assert tau_b_matrix(Y, tau)[0, 2] == tau[1]


def sign_products(Y):
    """c[i, pair] = sum_j sgn(x_i - x_j) sgn(y_i - y_j), pair by pair."""
    sgn = np.sign(Y[:, None, :] - Y[None, :, :])
    return np.column_stack([np.sum(sgn[:, :, i] * sgn[:, :, j], axis=1)
                            for i, j in stack_pairs(Y.shape[1])])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 200), levels=st.permutations([0, 0, 2, 8]),
       seed=st.integers(0, 2**31), chunk=st.integers(2, 100),
       workers=st.sampled_from([1, 2]))
def test_concordance_blocks_and_workers_match_sign_products(n, levels, seed, chunk,
                                                            workers):
    # row blocks that leave a short last block, some narrower than one
    # 64-bit word, on one or two threads; the two tied columns fall on
    # either side of an untied one, and on both sides of one pair
    assume(n % chunk)
    Y = mixed_sample(n, levels, seed)
    np.testing.assert_array_equal(_concordance_counts(Y, chunk, workers=workers),
                                  sign_products(Y))


def test_concordance_counts_tie_nans_past_every_number():
    # NaNs sort last and tie with each other, like one value above the rest
    Y = mixed_sample(150, [0, 3, 0], 9)
    Y[derive_rng(10).random(Y.shape) < 0.1] = np.nan
    above = np.where(np.isnan(Y), 1e300, Y)
    np.testing.assert_array_equal(_concordance_counts(Y, 32, workers=2),
                                  sign_products(above))


PANEL_BLOCKS = tuple(tuple(range(8 * g, 8 * g + 8)) for g in range(5))


def test_concordance_counts_do_not_depend_on_the_worker_count():
    Y = block_gauss(3000, PANEL_BLOCKS, 0.7, 0.1, derive_rng(31))
    one = _concordance_counts(Y, workers=1)
    np.testing.assert_array_equal(_concordance_counts(Y, workers=2), one)
    upper = np.triu_indices(40, 1)
    for i in derive_rng(32).choice(3000, 20, replace=False):
        sgn = np.sign(Y[i] - Y)
        np.testing.assert_array_equal(one[i], (sgn.T @ sgn)[upper])


def test_concordance_counts_peak_memory_at_panel_size():
    # the prefix-table kernel this one replaced peaked at 54.6 MiB on this
    # input, 17.9 MiB of it the counts; two workers' masks stay below that
    Y = block_gauss(3000, PANEL_BLOCKS, 0.7, 0.1, derive_rng(31))
    tracemalloc.start()
    try:
        _concordance_counts(Y, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 54.6 * 2**20


def test_exch_test_reuses_a_given_jackknife():
    rng = derive_rng(21)
    blocks = ((0, 1, 2), (3, 4))
    Y = block_gauss(400, blocks, 0.4, 0.1, rng)
    own = exch_test(Y, ClusterSpec(blocks), n_mc=1000, seed=5)
    jack = tau_jackknife(Y)
    assert exch_test(Y, ClusterSpec(blocks), n_mc=1000, seed=5,
                     jackknife=jack) == own
    with pytest.raises(ValueError, match="jackknife"):
        exch_test(Y[:300], ClusterSpec(blocks), n_mc=1000, jackknife=jack)


def orbit_keys_reference(clusters, pairs):
    """Loop form of the block-permutation orbits of the tau covariance."""
    lab = clusters.labels()
    keys = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            shared = {i, j} & {k, l}
            key = (tuple(sorted((lab[i], lab[j]))),
                   tuple(sorted((lab[k], lab[l]))),
                   tuple(sorted(lab[s] for s in shared)),
                   a == b)
            keys.setdefault(key, []).append((a, b))
    return keys


def orbit_average_reference(S, clusters, pairs):
    out = np.empty_like(S)
    for cells in orbit_keys_reference(clusters, pairs).values():
        idx = tuple(np.array(t) for t in zip(*cells))
        out[idx] = S[idx].mean()
    return 0.5 * (out + out.T)


def structure_matrix_reference(clusters, pairs):
    lab = clusters.labels()
    g = len(clusters.blocks)
    classes = [lambda a, b, h=h: a == b == h for h in range(g)]
    classes.append(lambda a, b: a != b)
    cols = [np.array([float(c(lab[i], lab[j])) for i, j in pairs])
            for c in classes]
    return np.column_stack([c for c in cols if c.any()])


@st.composite
def cluster_specs(draw, max_dim=9):
    d = draw(st.integers(2, max_dim))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    blocks = [tuple(i for i in range(d) if labels[i] == g) for g in sorted(set(labels))]
    return ClusterSpec(tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(clusters=cluster_specs(), seed=st.integers(0, 2**31))
def test_orbit_average_matches_loop_reference(clusters, seed):
    pairs = stack_pairs(clusters.dim)
    A = derive_rng(seed).normal(size=(len(pairs), len(pairs)))
    S = A @ A.T
    fast = _orbit_average(S, clusters, pairs)
    ref = orbit_average_reference(S, clusters, pairs)
    np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12 * np.abs(S).max())
    np.testing.assert_array_equal(_structure_matrix(clusters, pairs),
                                  structure_matrix_reference(clusters, pairs))


@settings(max_examples=40, deadline=None)
@given(clusters=cluster_specs(max_dim=40))
def test_class_basis_projects_like_the_pseudoinverse(clusters):
    # exch_test's Q = B / sqrt(class sizes): disjoint 0/1 columns make
    # Q orthonormal and Q Q' the projector B pinv(B)
    B = _structure_matrix(clusters, stack_pairs(clusters.dim))
    Q = B / np.sqrt(B.sum(axis=0))
    assert set(np.unique(B)) <= {0.0, 1.0} and np.all(B.sum(axis=1) == 1.0)
    np.testing.assert_allclose(Q.T @ Q, np.eye(B.shape[1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(Q @ Q.T, B @ np.linalg.pinv(B), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(clusters=cluster_specs(max_dim=12), n=st.integers(60, 400),
       rho=st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 1.0)),
       tweak=st.booleans(), seed=st.integers(0, 2**31))
def test_exch_test_matches_the_dense_reference(clusters, n, rho, tweak, seed):
    # the eigenbasis algebra against P = I - B pinv(B) and three matrix
    # powers of S on the same draws.  ``tweak`` raises one pair's
    # correlation, so the alternative is covered too: the block
    # correlation's smallest eigenvalue is at least 1 - rho_in, so moving
    # one entry by half that keeps it positive definite
    rho_in, rho_out = rho[0], rho[0] * rho[1]
    base = rho_in if clusters.labels()[0] == clusters.labels()[1] else rho_out
    pair = ((0, 1), base + 0.5 * (1.0 - rho_in)) if tweak else None
    Y = block_gauss(n, clusters.blocks, rho_in, rho_out, derive_rng(seed),
                    tweak=pair)
    jack = tau_jackknife(Y)
    fast = exch_test(Y, clusters, n_mc=1000, seed=seed % 7, jackknife=jack)
    ref = exch_test_dense(Y, clusters, n_mc=1000, seed=seed % 7, jackknife=jack)
    assert (fast.L, fast.df) == (ref.L, ref.df)
    assert [f for f in fast.flags if f != "no-null-variance"] == ref.flags
    if "no-null-variance" in fast.flags:
        assert math.isnan(fast.p_e) and math.isnan(fast.p_m)
        return
    assert fast.e_n == pytest.approx(ref.e_n, rel=1e-12, abs=0)
    assert fast.m_n == pytest.approx(ref.m_n, rel=1e-12, abs=0)
    if fast.df:
        one_draw = 1.0 / (1000 + 1)
        assert abs(fast.p_e - ref.p_e) <= one_draw * (1 + 1e-9)
        assert abs(fast.p_m - ref.p_m) <= one_draw * (1 + 1e-9)
        assert fast.p_e_chi2 == pytest.approx(ref.p_e_chi2, rel=1e-9, abs=1e-15)


def test_exch_test_peak_memory_at_panel_size():
    # the dense form (P = I - B pinv(B), three p x p powers of S, four
    # (n_mc, p) x (p, p) products) peaked at 88.8 MiB on this input; the
    # eigenbasis form holds two (n_mc, p) arrays, and its 37.8 MiB peak is
    # in the orbit average
    Y = block_gauss(3000, PANEL_BLOCKS, 0.7, 0.1, derive_rng(31))
    jack = tau_jackknife(Y)
    tracemalloc.start()
    try:
        exch_test(Y, ClusterSpec(PANEL_BLOCKS), jackknife=jack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 88.8 * 2**20
