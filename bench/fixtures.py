"""Seeded synthetic inputs for the benchmark workloads.

Built from numpy/scipy only, never from ``extremis.simulate``, so a change to
the program cannot change what the benchmark feeds it.  Every generator takes
the workload seed and returns the same bytes for the same seed.
"""
from __future__ import annotations

import io

import numpy as np
from scipy import special, stats

POT_N = 20_000
PANEL_N, PANEL_BLOCKS, PANEL_BLOCK_SIZE = 3000, 5, 8
PANEL_RHO_WITHIN, PANEL_RHO_BETWEEN = 0.7, 0.1


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                        spawn_key=(key,)))


def _gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    return -np.log(-np.log(u))


def _gaussian_copula_gumbel(corr: np.ndarray, n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, corr.shape[0])) @ np.linalg.cholesky(corr).T
    return _gumbel_from_uniform(special.ndtr(z))


def _student_copula_gumbel(corr: np.ndarray, df: float, n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, corr.shape[0])) @ np.linalg.cholesky(corr).T
    w = rng.chisquare(df, size=n) / df
    return _gumbel_from_uniform(stats.t.cdf(z / np.sqrt(w)[:, None], df))


def _equicorrelation(d: int, rho: float) -> np.ndarray:
    return np.full((d, d), rho) + (1.0 - rho) * np.eye(d)


def panel_blocks() -> list[list[int]]:
    """The true column blocks of the ``panel`` fixture."""
    b = PANEL_BLOCK_SIZE
    return [list(range(g * b, (g + 1) * b)) for g in range(PANEL_BLOCKS)]


def pot_table(seed: int) -> tuple[list[str], np.ndarray]:
    """y = 10 + 2 x1 + exp(0.3 x2) G, G standard Gumbel, x1..x6 iid U(-1, 1)."""
    rng = _rng(seed, 0)
    x = rng.uniform(-1.0, 1.0, size=(POT_N, 6))
    g = _gumbel_from_uniform(rng.random(POT_N))
    y = 10.0 + 2.0 * x[:, 0] + np.exp(0.3 * x[:, 1]) * g
    return ["y"] + [f"x{j}" for j in range(1, 7)], np.column_stack([y, x])


def panel_table(seed: int) -> tuple[list[str], np.ndarray]:
    """Gaussian copula with correlation 0.7 within and 0.1 between five
    contiguous blocks of eight columns, Gumbel margins."""
    d = PANEL_BLOCKS * PANEL_BLOCK_SIZE
    corr = np.full((d, d), PANEL_RHO_BETWEEN)
    for block in panel_blocks():
        corr[np.ix_(block, block)] = PANEL_RHO_WITHIN
    np.fill_diagonal(corr, 1.0)
    values = _gaussian_copula_gumbel(corr, PANEL_N, _rng(seed, 1))
    return [f"v{j}" for j in range(d)], values


def joint_tables(seed: int) -> dict[str, tuple[list[str], np.ndarray]]:
    """t3: Student-t copula (df 4, rho 0.6, d 3); t5: the same with rho 0.5
    and d 5; c12: Gaussian copula (rho 0.7, d 12).  Gumbel margins."""
    t3 = _student_copula_gumbel(_equicorrelation(3, 0.6), 4.0, 20_000, _rng(seed, 2))
    t5 = _student_copula_gumbel(_equicorrelation(5, 0.5), 4.0, 20_000, _rng(seed, 3))
    c12 = _gaussian_copula_gumbel(_equicorrelation(12, 0.7), 5000, _rng(seed, 4))
    return {name: ([f"y{j + 1}" for j in range(v.shape[1])], v)
            for name, v in (("t3", t3), ("t5", t5), ("c12", c12))}


TABLES = {
    "pot": lambda seed: {"pot": pot_table(seed)},
    "panel": lambda seed: {"panel": panel_table(seed)},
    "joint": joint_tables,
}


def csv_bytes(names: list[str], values: np.ndarray) -> bytes:
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")
    return buf.getvalue().encode("utf-8")

