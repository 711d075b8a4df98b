import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremis.core import (ClampCounter, Dataset, MarginSpec, _empirical_knots,
                           derive_rng, empirical_cdf, load_dataset,
                           rank_transform, transform_margin)

PARAMETRIC = ["gumbel", "exponential", "laplace", "frechet", "pareto", "uniform"]


def margin(kind, rng=None):
    if kind == "empirical":
        rng = rng or np.random.default_rng(5)
        return MarginSpec("empirical", reference=rng.normal(size=40))
    return MarginSpec(kind)


def test_gumbel_median_to_uniform():
    x = -np.log(np.log(2.0))  # ~0.36651, the Gumbel median
    assert transform_margin(x, margin("gumbel"), margin("uniform")) == pytest.approx(0.5, rel=1e-12)


def test_identity_and_median_cases():
    assert transform_margin(1.0, margin("exponential"), margin("exponential")) == pytest.approx(1.0, rel=1e-12)
    assert transform_margin(0.5, margin("uniform"), margin("laplace")) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind_a", PARAMETRIC + ["empirical"])
@pytest.mark.parametrize("kind_b", PARAMETRIC + ["empirical"])
def test_round_trip_all_pairs(kind_a, kind_b):
    a, b = margin(kind_a), margin(kind_b)
    grid = np.concatenate([
        np.logspace(-10, -1, 12),
        np.linspace(0.1, 0.9, 9),
        1.0 - np.logspace(-10, -1, 12),
    ])
    x = a.quantile(grid)
    z = transform_margin(x, a, b)
    back = b.cdf(z)
    # tolerance: 1e-10 relative plus the float representation limit of the
    # intermediate value on b's scale (dominant for the Pareto lower tail,
    # where information lives in z - 1)
    dz = np.spacing(np.abs(z)) + 1e-300
    eps = 64.0 * dz * _density(b, z) + 1e-15
    assert np.all(np.abs(back - grid) <= 1e-10 * grid + eps)


def _density(m, z):
    h = 1e-6 * np.maximum(np.abs(z), 1.0)
    return np.abs(m.cdf(z + h) - m.cdf(z - h)) / (2.0 * h)


@pytest.mark.parametrize("kind", PARAMETRIC + ["empirical"])
def test_transform_monotone(kind):
    a = margin("gumbel")
    b = margin(kind)
    # stay inside the clamp-free region: gumbel cdf(-3) ~ 2e-9 > 1e-15
    x = np.linspace(-3.0, 3.0, 200)
    z = transform_margin(x, a, b)
    assert np.all(np.diff(z) > 0)


def test_clamp_counter_flags_out_of_range():
    c = ClampCounter()
    transform_margin(np.array([0.5, 2.0]), margin("frechet"), margin("uniform"), clamp=c)
    assert c.count == 0
    transform_margin(-1.0, margin("frechet"), margin("gumbel"), clamp=c)
    assert c.count == 1


def test_empirical_cdf_examples():
    assert empirical_cdf([1.0, 2.0, 3.0], 2.0) == pytest.approx(0.5)
    assert empirical_cdf([1.0, 2.0, 3.0], 10.0) == pytest.approx(0.75)
    assert empirical_cdf([5.0], 5.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        empirical_cdf([], 1.0)


def test_empirical_cdf_never_hits_bounds():
    rng = np.random.default_rng(0)
    col = rng.normal(size=57)
    xs = np.concatenate([[col.min() - 10.0, col.max() + 10.0], col])
    p = empirical_cdf(col, xs)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_rank_transform_open_interval_and_ties():
    x = np.array([[1.0, 3.0], [1.0, 2.0], [2.0, 1.0]])
    u = rank_transform(x)
    assert np.all(u > 0) and np.all(u < 1)
    assert u[0, 0] == u[1, 0]  # tied values share the averaged rank


def test_dataset_validation_and_immutability(tmp_path):
    vals = np.array([[0.2, 1.5], [0.8, 2.5]])
    ds = Dataset(vals, ("a", "b"), (MarginSpec("uniform"), MarginSpec("pareto")))
    with pytest.raises(ValueError):
        ds.values[0, 0] = 0.9
    with pytest.raises(ValueError):
        Dataset(np.array([[2.0]]), ("a",), (MarginSpec("uniform"),))
    p = tmp_path / "d.csv"
    p.write_text("a,b\n0.2,1.5\n0.8,2.5\n", encoding="utf-8")
    ds2 = load_dataset(p, ["uniform", "pareto"])
    assert ds2.names == ("a", "b")
    np.testing.assert_allclose(ds2.values, vals)


def test_dataset_to_uniform_round_trip():
    rng = np.random.default_rng(3)
    g = MarginSpec("gumbel")
    vals = np.asarray(g.quantile(rng.uniform(0.01, 0.99, size=(50, 1))))
    ds = Dataset(vals, ("y",), (g,))
    u = ds.to_uniform()
    np.testing.assert_allclose(u[:, 0], g.cdf(vals[:, 0]), rtol=1e-12)


def test_derive_rng_deterministic_and_stream_separated():
    a = derive_rng(42, 3).standard_normal(5)
    b = derive_rng(42, 3).standard_normal(5)
    c = derive_rng(42, 4).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_label_assignments_order_and_subsample():
    from itertools import combinations

    from extremis.core import label_assignments
    got, flags = label_assignments(5, [3, 4], True, seed=0, max_assignments=10)
    assert [a.tolist() for a in got] == [list(c) for c in combinations(range(5), 2)]
    assert flags == []
    for group, exchangeable in (([1, 3], False), ([], True), ([0, 1, 2, 3, 4], True)):
        got, flags = label_assignments(5, group, exchangeable, 0, 10)
        assert [a.tolist() for a in got] == [group] and flags == []
    got, flags = label_assignments(5, [3, 4], True, seed=6, max_assignments=4)
    rng = derive_rng(6)
    want = [sorted(rng.choice(5, size=2, replace=False).tolist()) for _ in range(4)]
    assert [a.tolist() for a in got] == want
    assert flags == ["assignment-subsample"]


def _knots_by_block_means(ref):
    """The tie-averaged knots as a mean over each tie block's ranks, the
    form the closed-form half-integer ranks replaced."""
    n = ref.size
    xs = np.sort(ref)
    ranks = np.arange(1, n + 1, dtype=float)
    ux, start = np.unique(xs, return_index=True)
    end = np.append(start[1:], n)
    return ux, np.array([ranks[a:b].mean() for a, b in zip(start, end)]) / (n + 1.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 3000),
       kind=st.sampled_from(["integers", "rounded", "continuous"]),
       levels=st.integers(2, 40))
def test_empirical_knots_match_block_means(seed, n, kind, levels):
    rng = derive_rng(seed)
    if kind == "integers":  # heavy ties: a few values, many copies each
        ref = rng.integers(0, levels, n).astype(float)
    elif kind == "rounded":
        ref = np.round(rng.normal(size=n), levels % 3)
    else:
        ref = rng.normal(size=n)
    if np.unique(ref).size < 2:
        ref[0] = ref.max() + 1.0
    got, want = _empirical_knots(ref), _knots_by_block_means(ref)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
