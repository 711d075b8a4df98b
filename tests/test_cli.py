import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import extremis
from extremis.cli import build_parser, run
from extremis.core import MarginSpec, derive_rng
from extremis.mgpd import Logistic, exponent_measure_v, xi_measure
from extremis.simulate import simulate_mgpd_dataset
from extremis.univariate import gpd_quantile


@pytest.fixture(scope="module")
def pot_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pot.csv"
    rng = derive_rng(99)
    n = 4000
    x = rng.uniform(-1, 1, size=n)
    season = (rng.random(n) > 0.5).astype(float)
    y = 50.0 + 5.0 * x + gpd_quantile(rng.uniform(size=n),
                                      (np.exp(1.0 + 0.2 * season), np.full(n, 0.1)))
    rows = ["y,x,season"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}"
            for a, b, c in zip(y, x, season)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def gumbel3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tri.csv"
    rng = derive_rng(123)
    n = 21_000
    # moderately dependent gaussian copula mapped to gumbel margins
    R = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.45], [0.4, 0.45, 1.0]])
    z = rng.standard_normal((n, 3)) @ np.linalg.cholesky(R).T
    from scipy.stats import norm
    u = norm.cdf(z)
    g = np.asarray(MarginSpec("gumbel").quantile(np.clip(u, 1e-12, 1 - 1e-12)))
    rows = ["y1,y2,y3"] + [",".join(repr(float(v)) for v in row) for row in g]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def _run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_return_level_smoke(pot_csv, capsys, tmp_path):
    doc = _run_json(capsys, [
        "return-level", "--input", pot_csv, "--response", "y",
        "--T", "200", "--ny", "300", "--threshold-quantile", "0.9",
    ])
    res = doc["result"]
    assert np.isfinite(res["return_level"]) and res["return_level"] > res["threshold"]
    assert res["profile_interval"]["lower"] < res["return_level"] < res["profile_interval"]["upper"]
    assert "inputs" in doc["manifest"] and "seed" in doc["manifest"]


def test_fit_gpd_and_threshold(pot_csv, capsys):
    doc = _run_json(capsys, [
        "fit-gpd", "--input", pot_csv, "--response", "y",
        "--threshold-quantile", "0.9", "--sigma-covariates", "season",
    ])
    res = doc["result"]
    assert len(res["coefficients"]["log_sigma"]) == 2
    doc2 = _run_json(capsys, [
        "fit-threshold", "--input", pot_csv, "--response", "y",
        "--tau", "0.9",
    ])
    assert abs(doc2["result"]["below_fraction"] - 0.9) < 0.02
    assert doc2["result"]["flags"] == []


def test_mgpd_prob_pipeline_identity(capsys, tmp_path):
    model = Logistic(2.0)
    f = 0.08
    ds = simulate_mgpd_dataset(model, [MarginSpec("uniform")] * 2, 30_000, f,
                               seed=5)
    path = tmp_path / "mg.csv"
    rows = ["a,b"] + [",".join(repr(float(v)) for v in row) for row in ds.values]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    q0 = 1.0 - f / exponent_measure_v(model, np.ones(2))
    doc = _run_json(capsys, [
        "mgpd", "prob", "--input", str(path), "--family", "logistic",
        "--threshold-quantile", repr(q0), "--margins", "uniform",
        "--level-quantile", repr(q0),
    ])
    res = doc["result"]
    # s = u: probability equals Xi(u)/V(u) x empirical fraction
    beta = res["estimate"]
    u = np.asarray(res["thresholds"])
    expect = (xi_measure(Logistic(beta), u)
              / exponent_measure_v(Logistic(beta), u))
    got_ratio = res["prob"]
    assert got_ratio == pytest.approx(expect * f, rel=0.05)


def test_cli_determinism_byte_identical(pot_csv, capsys, tmp_path):
    argv = ["task2", "--input", pot_csv, "--response", "y",
            "--threshold-quantile", "0.9", "--n-draws", "500",
            "--seed", "42", "--out", str(tmp_path / "a.json")]
    assert run(argv) == 0
    argv[-1] = str(tmp_path / "b.json")
    assert run(argv) == 0
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    del a["manifest"]["timestamp"], b["manifest"]["timestamp"]
    a["manifest"]["flags"].pop("out")
    b["manifest"]["flags"].pop("out")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_seed_changes_output(pot_csv, capsys):
    doc1 = _run_json(capsys, ["task2", "--input", pot_csv, "--response", "y",
                              "--n-draws", "500", "--seed", "1"])
    doc2 = _run_json(capsys, ["task2", "--input", pot_csv, "--response", "y",
                              "--n-draws", "500", "--seed", "2"])
    assert doc1["result"]["loss_minimizer"] != doc2["result"]["loss_minimizer"]


def test_cli_usage_and_computation_errors(tmp_path, capsys):
    assert run(["return-level"]) == 2  # missing required flags
    bad = tmp_path / "bad.csv"
    bad.write_text("y\n1.0\n2.0\n", encoding="utf-8")
    code = run(["return-level", "--input", str(bad), "--response", "y",
                "--T", "200", "--ny", "300"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_malformed_csv_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("y,x\n1.0,2.0\n3.0\n", encoding="utf-8")
    code = run(["return-level", "--input", str(bad), "--response", "y",
                "--T", "200", "--ny", "300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"extremis return-level: error: {bad}: ragged rows\n"


def test_unknown_margins_column_is_a_computation_error(gumbel3_csv, capsys):
    code = run(["taildep", "--input", gumbel3_csv, "--margins", "zz=gumbel"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert ("extremis taildep: error: unknown column 'zz' in --margins"
            in captured.err)


def test_simulate_sum_checks_u_against_model_dimension(capsys):
    code = run(["simulate", "--family", "hr", "--dim", "3", "--u", "1,1",
                "--functional", "sum", "--n", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert ("extremis simulate: error: model dimension 3 does not match u (2)"
            in captured.err)


@pytest.mark.parametrize("n", ["0", "-5"])
def test_simulate_rejects_a_sample_size_below_one(n, capsys):
    code = run(["simulate", "--family", "hr", "--functional", "max", "--dim", "3",
                "--n", n])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (f"extremis simulate: error: sample size n must be "
                            f"at least 1 (got {n})\n")


def test_simulate_hr_rejects_one_variable(capsys):
    code = run(["simulate", "--family", "hr", "--dim", "1", "--n", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("extremis simulate: error: Huesler-Reiss gamma must "
                            "cover at least two variables\n")


def test_model_select_names_an_unknown_fitter(gumbel3_csv, capsys):
    code = run(["model-select", "--input", gumbel3_csv, "--fitters", "nope"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "extremis model-select: error: unknown fitter 'nope'" in captured.err


def test_taildep_csv_output(gumbel3_csv, capsys, tmp_path):
    out = tmp_path / "td.csv"
    code = run(["taildep", "--input", gumbel3_csv, "--margins", "gumbel",
                "--levels", "0.9,0.95", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["level", "chi"]
    assert len(lines) == 3


def test_mvn_tail_diagnostic(capsys):
    doc = _run_json(capsys, [
        "mvn-tail", "--lower", "0,0", "--upper", "inf,inf",
        "--sigma", "1,0;0,1", "--n-points", "20000",
    ])
    assert doc["result"]["prob"] == pytest.approx(0.25, abs=0.001)


def test_simulate_command_writes_csv(capsys, tmp_path):
    out = tmp_path / "sim.csv"
    doc = _run_json(capsys, [
        "simulate", "--family", "logistic", "--beta", "2.0", "--dim", "3",
        "--functional", "min", "--n", "2000", "--seed", "3",
        "--out-samples", str(out),
    ])
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (2000, 3)
    assert np.all(data.min(axis=1) >= 1.0 - 1e-9)
    freq = doc["result"]["pivot_frequencies"]
    assert sum(freq) == pytest.approx(1.0)


# One simulate command in a child whose address space is capped at 1 GiB, so
# that a runaway allocation fails there as MemoryError instead of bringing
# in the machine's out-of-memory killer; it prints the result payload and
# the model's pivot weights for the command's functional.
_SIMULATE_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from extremis.cli import build_parser, run
from extremis.mgpd import FAMILIES, pivot_weights
argv = sys.argv[2:]
code = run(argv)
if code == 0:
    args = build_parser().parse_args(argv)
    family = FAMILIES[args.family]
    model = family.model(getattr(args, family.parameter), args.dim)
    u = [float(v) for v in args.u.split(",")] if args.u else [1.0] * args.dim
    print(json.dumps(pivot_weights(model, u, args.functional).tolist()))
sys.exit(code)
"""

U9 = "0.0812,8.4263,8.7382,9.5756,0.8449,0.2578,0.052,2.3973,3.7414"


@pytest.mark.parametrize("argv", [
    "--family neglogistic --functional max --dim 50",
    "--family logistic --functional min --dim 21",
    f"--family logistic --beta 2.115459131160021 --functional min --dim 9 --u {U9}",
])
def test_simulate_iid_families_in_many_dimensions(argv):
    # the power-set pivot weights ran out of memory at --dim 50, were capped
    # at 20 dimensions, and lost every digit of the smallest 9-d weight
    src = str(Path(extremis.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _SIMULATE_CHILD, src, "simulate",
                          *shlex.split(argv), "--n", "1000"],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    doc, _, weights_line = out.stdout.strip().rpartition("\n")
    freq = np.array(json.loads(doc)["result"]["pivot_frequencies"])
    weights = np.array(json.loads(weights_line))
    assert freq.sum() == pytest.approx(1.0)
    assert np.all(np.isfinite(weights)) and np.all(weights > 0.0)


def test_cluster_and_exch_test_commands(capsys, tmp_path):
    rng = derive_rng(777)
    lab = np.array([0, 0, 1, 1])
    R = np.where(lab[:, None] == lab[None, :], 0.5, 0.05)
    np.fill_diagonal(R, 1.0)
    Y = rng.standard_normal((600, 4)) @ np.linalg.cholesky(R).T
    path = tmp_path / "cl.csv"
    rows = ["a,b,c,d"] + [",".join(repr(float(v)) for v in row) for row in Y]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = _run_json(capsys, ["cluster", "--input", str(path), "--k", "2"])
    assert sorted(map(tuple, doc["result"]["blocks"])) == [(0, 1), (2, 3)]
    doc2 = _run_json(capsys, ["exch-test", "--input", str(path),
                              "--blocks", "0,1|2,3", "--n-mc", "1000"])
    assert 0.0 <= doc2["result"]["p_E"] <= 1.0


def test_loss_min_command(capsys, tmp_path):
    path = tmp_path / "post.csv"
    path.write_text("q\n100.0\n200.0\n", encoding="utf-8")
    doc = _run_json(capsys, ["loss-min", "--input", str(path)])
    assert doc["result"]["minimizer"] == pytest.approx(198.0)
    doc2 = _run_json(capsys, ["loss-min", "--input", str(path),
                              "--bootstrap", "bayesian", "--seed", "5"])
    assert doc2["result"]["bootstrap"] == "bayesian"


def test_cv_score_command(pot_csv, capsys):
    doc = _run_json(capsys, [
        "cv-score", "--input", pot_csv, "--response", "y",
        "--threshold-quantile", "0.9", "--models", "sigma:&xi:;sigma:season&xi:",
        "--repeats", "2", "--n-draws", "100", "--seed", "11",
    ])
    models = doc["result"]["models"]
    assert len(models) == 2
    assert models[1]["spec"]["sigma"] == ["season"]


def test_condex_fit_and_prob_commands(gumbel3_csv, capsys):
    doc = _run_json(capsys, [
        "condex", "fit", "--input", gumbel3_csv, "--margins", "gumbel",
        "--threshold-quantile", "0.95", "--gaussian",
    ])
    assert -1.0 <= doc["result"]["alpha"] <= 1.0
    assert set(doc["result"]["residual_law"]) == {"kind", "mu", "sigma"}
    sn = _run_json(capsys, [
        "condex", "fit", "--input", gumbel3_csv, "--margins", "gumbel",
        "--threshold-quantile", "0.95",
    ])
    assert set(sn["result"]["residual_law"]) == {"kind", "nu", "omega", "kappa"}
    doc2 = _run_json(capsys, [
        "condex", "prob", "--input", gumbel3_csv, "--margins", "gumbel",
        "--threshold-quantile", "0.95", "--gaussian", "--level", "0.999",
        "--level-is-quantile", "--n-sim", "100000", "--seed", "3",
    ])
    res = doc2["result"]
    assert res["log_prob_analytic"] < 0.0
    assert res["prob_simulation"] >= 0.0
    doc3 = _run_json(capsys, [
        "condex", "prob2", "--input", gumbel3_csv, "--margins", "gumbel",
        "--threshold-quantile", "0.95", "--gaussian", "--s1", "0.999",
        "--s2", "0.99", "--level-is-quantile", "--groups", "0,1|2",
    ])
    assert doc3["result"]["log_prob"] >= res["log_prob_analytic"] - 1e-9


def test_condex_fit_rejects_paper_literal(gumbel3_csv, capsys):
    # the flag only changes the probability estimators, so fit has none
    code = run(["condex", "fit", "--input", gumbel3_csv, "--paper-literal"])
    assert code == 2
    assert "--paper-literal" in capsys.readouterr().err


def test_condex_fit_payload_on_the_kappa_cap(tmp_path, capsys):
    # half-normal residuals drive the slant to its cap, where the Newton
    # run holds it on the box face and converges
    from test_condex import half_normal_input
    path = tmp_path / "half.csv"
    rows = ["a,b,c"] + [",".join(repr(float(v)) for v in row)
                        for row in half_normal_input()]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = _run_json(capsys, ["condex", "fit", "--input", str(path), "--margins",
                             "laplace", "--threshold-quantile", "0.8"])
    assert doc["result"]["flags"] == ["kappa-capped"]
    assert doc["result"]["residual_law"]["kappa"] == 50.0


def test_mixture_experiment_command(capsys):
    doc = _run_json(capsys, [
        "mixture-experiment", "--alpha-grid", "0.4,0.9", "--n-per", "5000",
        "--levels", "0.9", "--dim", "4", "--seed", "2",
    ])
    shares = doc["result"]["table"]["share"]
    assert sum(shares) == pytest.approx(1.0)


def test_task3_preset(gumbel3_csv, capsys):
    doc = _run_json(capsys, [
        "task3", "--input", gumbel3_csv, "--margins", "gumbel",
        "--n-sim", "200000", "--threshold-quantile", "0.95",
    ])
    res = doc["result"]
    assert res["levels"]["median_gumbel"] == pytest.approx(0.36651, abs=1e-4)
    assert 0.0 <= res["p1"]["simulation"] < 1e-2
    assert res["p1"]["hrv"] > 0.0
    assert res["p2"]["analytic"] >= 0.0


def test_task1_preset(pot_csv, capsys):
    doc = _run_json(capsys, [
        "task1", "--input", pot_csv, "--response", "y", "--tau", "0.9",
        "--level", "0.9999", "--n-draws", "100",
        "--sigma-covariates", "season", "--seed", "7",
    ])
    res = doc["result"]["table"]
    assert len(res["point"]) == 4000
    point = np.asarray(res["point"])
    lo, hi = np.asarray(res["lower"]), np.asarray(res["upper"])
    assert np.all(lo <= hi)
    assert np.all(np.isfinite(point))
    assert doc["result"]["flags"] == []


def test_task1_reports_a_capped_threshold_fit(pot_csv, capsys, monkeypatch):
    from extremis.univariate import ald
    monkeypatch.setattr(ald, "PIVOT_CAP", 1)
    argv = ["--input", pot_csv, "--response", "y", "--tau", "0.9"]
    doc = _run_json(capsys, ["task1"] + argv + ["--n-draws", "20"])
    assert doc["result"]["flags"] == ["ald-pivot-cap"]
    doc = _run_json(capsys, ["fit-threshold"] + argv)
    assert doc["result"]["flags"] == ["ald-pivot-cap"]


def test_task4_preset(capsys, tmp_path):
    rng = derive_rng(31415)
    lab = np.array([0, 0, 0, 1, 1, 1])
    R = np.where(lab[:, None] == lab[None, :], 0.45, 0.03)
    np.fill_diagonal(R, 1.0)
    from scipy.stats import norm
    z = norm.cdf(rng.standard_normal((6000, 6)) @ np.linalg.cholesky(R).T)
    g = np.asarray(MarginSpec("gumbel").quantile(np.clip(z, 1e-12, 1 - 1e-12)))
    path = tmp_path / "t4.csv"
    rows = [",".join(f"s{i}" for i in range(6))]
    rows += [",".join(repr(float(v)) for v in row) for row in g]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    doc = _run_json(capsys, [
        "task4", "--input", str(path), "--margins", "gumbel", "--k", "2",
        "--threshold-quantile", "0.95", "--n-mc", "1000",
    ])
    res = doc["result"]
    assert len(res["clusters"]) == 2
    assert res["log_p1_total"] <= 0.0
    assert res["log_p2_total"] >= res["log_p1_total"] - 50.0


# task1 and task2 results on the pot fixture, recorded before the per-draw
# loops moved into the univariate helpers, re-recorded once when the GPD
# fits moved to analytic-derivative Newton (each fit's NLL no higher than
# before), once for task1 when the ALD threshold fit became the exact
# simplex (its check loss 1.7e-10 lower; the fit's basis rows lie on the
# threshold by rule, AldParams.fitted, so the three of them that exceeded
# the old threshold are no longer exceedances), and once when the GPD fits
# moved to the projected trust-region Newton: every fit's NLL equal or one
# ulp higher, at a Newton decrement below 2e-29 where the old fits stopped
# at 3e-16 or more, so the parameters are nearer the optimum (task2's
# random-threshold loss minimizer moves to another knot of its piecewise
# linear loss, 0.23 % away, on a 1.5e-9 relative move of the return
# levels).  The full task1
# table (4000 rows) is pinned by the SHA-256 of its JSON text.  Refactors
# must reproduce them exactly, except task2's posterior mean: task2
# evaluates its return levels with numpy's array power, which can differ
# from the scalar power in the last bit, so each level may move by up to
# about 6e-13 relative.
PINNED_TASK1_ROWS = {
    "lower": [86.6627260264858, 92.10060304043989, 92.35022492531554,
              96.10196233845417],
    "point": [89.75897993990327, 93.52735588414082, 95.42517579176314,
              97.60701689747992],
    "upper": [95.0601096737909, 98.25988580271513, 100.68989393897047,
              102.36569920969862],
}
PINNED_TASK1_TABLE_SHA256 = (
    "292b6cbc1e4ec0d0db6988ac5c1245fabd31ee073320683ba44bedde5be38b4b")
PINNED_TASK2 = {
    "fixed": {"loss_minimizer": 113.58810700404406,
              "mle_return_level": 101.41210465417072, "n_draws_used": 2000,
              "posterior_mean": 102.69598350908363,
              "threshold": 59.09062015510365, "zeta_u": 0.1},
    "random": {"loss_minimizer": 114.92749507551089,
               "mle_return_level": 101.41210465417072, "n_draws_used": 300,
               "posterior_mean": 103.13934679142687,
               "threshold": 59.09062015510365, "zeta_u": 0.1},
}


def test_task1_task2_pinned_values_are_bit_identical(pot_csv, capsys, tmp_path):
    import hashlib
    predict = tmp_path / "predict.csv"
    predict.write_text("x,season\n-0.5,0.0\n0.0,1.0\n0.75,0.0\n0.9,1.0\n",
                       encoding="utf-8")
    task1 = ["task1", "--input", pot_csv, "--response", "y", "--tau", "0.9",
             "--n-draws", "100", "--sigma-covariates", "season", "--seed", "7"]
    rows = _run_json(capsys, task1 + ["--predict", str(predict)])["result"]
    assert rows["table"] == PINNED_TASK1_ROWS
    table = _run_json(capsys, task1)["result"]["table"]
    digest = hashlib.sha256(json.dumps(table).encode()).hexdigest()
    assert digest == PINNED_TASK1_TABLE_SHA256
    task2 = ["task2", "--input", pot_csv, "--response", "y"]
    fixed = _run_json(capsys, task2 + ["--n-draws", "2000", "--seed", "42",
                                       "--bootstrap", "bayesian"])["result"]
    random = _run_json(capsys, task2 + ["--n-draws", "300", "--seed", "3",
                                        "--threshold-mode", "random"])["result"]
    for got, want in ((fixed, PINNED_TASK2["fixed"]),
                      (random, PINNED_TASK2["random"])):
        mean = got.pop("posterior_mean")
        assert mean == pytest.approx(want["posterior_mean"], rel=1e-12, abs=0)
        assert got == {k: v for k, v in want.items() if k != "posterior_mean"}


def _walk(obj):
    """The output path's element-wise walk from before it took finite float
    arrays whole, as the reference for its bytes."""
    if isinstance(obj, dict):
        return {str(k): _walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walk(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _walk(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def test_output_bytes_match_the_element_wise_walk(pot_csv, capsys):
    from extremis.cli import _sanitize
    rng = derive_rng(12)
    finite = rng.standard_normal(1000) * 10.0 ** rng.integers(-320, 300, 1000)
    finite[:4] = [0.0, -0.0, 5e-324, np.finfo(float).max]
    special = finite.copy()
    special[[4, 50, 999]] = [np.nan, np.inf, -np.inf]
    payload = {"finite": finite, "special": special, "grid": special.reshape(50, 20),
               "f32": rng.standard_normal(10).astype(np.float32),
               "f32_inf": np.array([1.5, np.inf], dtype=np.float32),
               "ints": np.arange(5), "bools": np.array([True, False]),
               "empty": np.array([]), "scalars": [np.float64(np.nan), np.int64(3), 2.5],
               "nested": {1: (finite[:3], special[:6])}}
    assert (json.dumps(_sanitize(payload), indent=2, sort_keys=True)
            == json.dumps(_walk(payload), indent=2, sort_keys=True))
    # the CSV path formats the task1 columns, now arrays, as it did lists
    task1 = ["task1", "--input", pot_csv, "--response", "y", "--tau", "0.9",
             "--n-draws", "50", "--sigma-covariates", "season", "--seed", "7"]
    table = _run_json(capsys, task1)["result"]["table"]
    assert run(task1 + ["--format", "csv"]) == 0
    csv = capsys.readouterr().out
    cols = ["point", "lower", "upper"]
    rows = zip(*[table[c] for c in cols])
    assert csv == "\n".join([",".join(cols)] + [",".join(repr(v) for v in row)
                                                 for row in rows]) + "\n"


def test_bootstrap_quantiles_in_blocks_match_one_draw():
    from extremis.cli import BOOTSTRAP_BLOCK, _bootstrap_quantiles
    y = derive_rng(3).gumbel(size=2001)
    for n_draws, block in ((50, 7), (130, BOOTSTRAP_BLOCK), (5, 16)):
        one = derive_rng(9)
        idx = one.integers(0, y.size, size=(n_draws, y.size))
        want = np.quantile(y[idx], 0.9, axis=1)
        blocked = derive_rng(9)
        got = _bootstrap_quantiles(y, 0.9, n_draws, blocked, block=block)
        assert np.array_equal(got, want)
        assert blocked.random() == one.random()  # the stream continues alike


def test_task3_rejects_wrong_column_count(tmp_path, capsys):
    path = tmp_path / "two.csv"
    rng = derive_rng(5)
    rows = ["a,b"] + [f"{float(a)!r},{float(b)!r}" for a, b in rng.gumbel(size=(200, 2))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = run(["task3", "--input", str(path), "--margins", "gumbel"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("extremis task3: error:")
    assert "3 columns" in err


def test_failed_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    import extremis.cli

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(extremis.cli.os, "replace", refuse)
    code = run(["simulate", "--family", "logistic", "--dim", "2", "--n", "50",
                "--out-samples", str(tmp_path / "samples.csv")])
    assert code == 1
    assert "rename refused" in capsys.readouterr().err
    code = run(["mvn-tail", "--lower", "0,0", "--upper", "inf,inf",
                "--sigma", "1,0.5;0.5,1", "--n-points", "1000",
                "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert "rename refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_input_csv_is_read_once(pot_csv, capsys, monkeypatch):
    import extremis.cli
    calls = []
    read = extremis.cli.read_csv

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(extremis.cli, "read_csv", counted)
    _run_json(capsys, ["return-level", "--input", pot_csv, "--response", "y",
                       "--T", "200", "--ny", "300"])
    assert calls == [pot_csv]


@pytest.mark.parametrize("argv, message", [
    (["mgpd", "prob", "--family", "hr"],
     "extremis mgpd: error: give exactly one of --level, --level-quantile"),
    (["mgpd", "prob", "--family", "hr", "--level", "20", "--level-quantile", "0.99"],
     "extremis mgpd: error: give exactly one of --level, --level-quantile"),
    (["fit-gpd", "--response", "zz"], "extremis fit-gpd: error: unknown column 'zz'"),
    (["loss-min", "--column", "zz"], "extremis loss-min: error: unknown column 'zz'"),
], ids=["mgpd-prob-no-level", "mgpd-prob-two-levels", "fit-gpd-response", "loss-min-column"])
def test_bad_flag_values_are_named_errors(gumbel3_csv, capsys, argv, message):
    code = run(argv + ["--input", gumbel3_csv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip() == message


@pytest.mark.parametrize("family", ["logistic", "hr"])
def test_mgpd_fit_without_exceedances_is_a_named_error(tmp_path, capsys, family):
    # every value in {0, 1, 2}: no row exceeds the thresholds, and the HR
    # composite likelihood is 0 for every gamma
    values = derive_rng(41).integers(0, 3, size=(200, 4))
    path = tmp_path / "ties.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(map(str, r)) + "\n" for r in values),
                    encoding="utf-8")
    code = run(["mgpd", "fit", "--input", str(path), "--family", family])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "extremis mgpd: error: no exceedance rows above the thresholds\n"


def test_seed_default_ignores_environment(monkeypatch):
    monkeypatch.setenv("EXTREMIS_SEED", "7")
    assert build_parser().parse_args(["simulate", "--family", "hr", "--n", "5"]).seed == 0


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert len(commands) == 17 and all(c[0] == "extremis" for c in commands)
    for argv in commands:
        build_parser().parse_args(argv[1:])


def _parser_pin(parser, path="extremis"):
    """Every action of every (sub)parser, its defaults and its subcommand helps."""
    pin = {path: [(a.option_strings, a.dest, a.default, getattr(a.type, "__name__", a.type),
                   a.required, a.choices if a.choices is None else list(a.choices), a.help,
                   a.const, type(a).__name__) for a in parser._actions]
           + [{k: v.__name__ for k, v in parser._defaults.items()}]}
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            pin[path].append([(c.dest, c.help) for c in a._choices_actions])
            for name, sub in a.choices.items():
                pin.update(_parser_pin(sub, f"{path} {name}"))
    return pin


def test_parser_matches_recorded_pin():
    assert _parser_pin(build_parser()) == PARSER_PIN


# Every option, default, help string and handler of the CLI; a change to the
# command table that alters --help or the parsed flags fails here.
PARSER_PIN = {
    'extremis': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        ([], 'command', None, None, True,
         ['fit-gpd', 'fit-threshold', 'return-level', 'cv-score', 'loss-min', 'taildep',
          'condex', 'mgpd', 'mvn-tail', 'simulate', 'mixture-experiment', 'cluster',
          'exch-test', 'model-select', 'task1', 'task2', 'task3', 'task4'], None, None,
         '_SubParsersAction'),
        {},
        [('fit-gpd', 'GPD regression above a constant threshold'),
         ('fit-threshold', 'asymmetric Laplace quantile regression'),
         ('return-level', 'binomial-GPD return level with profile CI'),
         ('cv-score', 'cross-validated interval scores'),
         ('loss-min', 'expected-loss return-level point estimate'),
         ('taildep', 'chi/eta tail dependence table'), ('condex', 'conditional extremes'),
         ('mgpd', 'multivariate generalized Pareto'),
         ('mvn-tail', 'normal/Student rectangle probability'),
         ('simulate', 'composition sampling'),
         ('mixture-experiment', 'exceedance shares across a dependence mixture'),
         ('cluster', 'Kendall tau matrix and Ward blocks'),
         ('exch-test', 'partial exchangeability test'),
         ('model-select', 'leave-subset-out chi scores'),
         ('task1', 'conditional quantile intervals preset'),
         ('task2', 'loss-based return level preset'), ('task3', 'trivariate joint tail preset'),
         ('task4', 'clustered high-dimensional tail preset')],
    ],
    'extremis fit-gpd': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--response'], 'response', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--sigma-covariates'], 'sigma_covariates', '', None, False, None, None, None,
         '_StoreAction'),
        (['--xi-covariates'], 'xi_covariates', '', None, False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_fit_gpd'},
    ],
    'extremis fit-threshold': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--response'], 'response', None, None, True, None, None, None, '_StoreAction'),
        (['--covariates'], 'covariates', None, None, False, None, None, None, '_StoreAction'),
        (['--tau'], 'tau', 0.95, 'float', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_fit_threshold'},
    ],
    'extremis return-level': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--response'], 'response', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.9, 'float', False, None, None, None,
         '_StoreAction'),
        (['--T'], 'T', None, 'float', True, None, None, None, '_StoreAction'),
        (['--ny'], 'ny', None, 'float', True, None, None, None, '_StoreAction'),
        (['--profile-level'], 'profile_level', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_return_level'},
    ],
    'extremis cv-score': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--response'], 'response', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--models'], 'models', None, None, True, None,
         "semicolon-separated: 'sigma:a,b&xi:c;sigma:&xi:'", None, '_StoreAction'),
        (['--alpha'], 'alpha', 0.5, 'float', False, None, None, None, '_StoreAction'),
        (['--repeats'], 'repeats', 10, 'int', False, None, None, None, '_StoreAction'),
        (['--n-draws'], 'n_draws', 1000, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_cv_score'},
    ],
    'extremis loss-min': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--column'], 'column', None, None, False, None, None, None, '_StoreAction'),
        (['--bootstrap'], 'bootstrap', None, None, False, ['nonparametric', 'bayesian'], None,
         None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        {'func': 'cmd_loss_min'},
    ],
    'extremis taildep': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--levels'], 'levels', '0.9,0.95,0.98,0.99', None, False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_taildep'},
    ],
    'extremis condex': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        ([], 'subcommand', None, None, True, ['fit', 'prob', 'prob2'], None, None,
         '_SubParsersAction'),
        {},
        [],
    ],
    'extremis condex fit': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--gaussian'], 'gaussian', False, None, False, None,
         'gaussian residual margins instead of skew-normal', True, '_StoreTrueAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_condex_fit'},
    ],
    'extremis condex prob': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--gaussian'], 'gaussian', False, None, False, None,
         'gaussian residual margins instead of skew-normal', True, '_StoreTrueAction'),
        (['--paper-literal'], 'paper_literal', False, None, False, None,
         'fold the margin tail into the exponent', True, '_StoreTrueAction'),
        (['--level'], 'level', None, 'float', True, None, None, None, '_StoreAction'),
        (['--level-is-quantile'], 'level_is_quantile', False, None, False, None, None, True,
         '_StoreTrueAction'),
        (['--n-sim'], 'n_sim', 1000000, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_condex_prob'},
    ],
    'extremis condex prob2': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--gaussian'], 'gaussian', False, None, False, None,
         'gaussian residual margins instead of skew-normal', True, '_StoreTrueAction'),
        (['--paper-literal'], 'paper_literal', False, None, False, None,
         'fold the margin tail into the exponent', True, '_StoreTrueAction'),
        (['--s1'], 's1', None, 'float', True, None, None, None, '_StoreAction'),
        (['--s2'], 's2', None, 'float', True, None, None, None, '_StoreAction'),
        (['--level-is-quantile'], 'level_is_quantile', False, None, False, None, None, True,
         '_StoreTrueAction'),
        (['--groups'], 'groups', None, None, True, None, "column indices 'i,j|k,l'", None,
         '_StoreAction'),
        (['--no-permute'], 'no_permute', False, None, False, None, None, True,
         '_StoreTrueAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_condex_prob2'},
    ],
    'extremis mgpd': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        ([], 'subcommand', None, None, True, ['fit', 'prob'], None, None, '_SubParsersAction'),
        {},
        [],
    ],
    'extremis mgpd fit': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--family'], 'family', None, None, True, ['logistic', 'hr'], None, None,
         '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--censor-quantile'], 'censor_quantile', 0.5, 'float', False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_mgpd_fit'},
    ],
    'extremis mgpd prob': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--family'], 'family', None, None, True, ['logistic', 'hr'], None, None,
         '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--level'], 'level', None, 'float', False, None, 'common Frechet-scale target level',
         None, '_StoreAction'),
        (['--level-quantile'], 'level_quantile', None, 'float', False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_mgpd_prob'},
    ],
    'extremis mvn-tail': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--lower'], 'lower', None, None, True, None, None, None, '_StoreAction'),
        (['--upper'], 'upper', None, None, True, None, None, None, '_StoreAction'),
        (['--sigma'], 'sigma', None, None, True, None, "rows 'a,b;c,d'", None, '_StoreAction'),
        (['--mu'], 'mu', None, None, False, None, None, None, '_StoreAction'),
        (['--df'], 'df', None, 'float', False, None, None, None, '_StoreAction'),
        (['--n-points'], 'n_points', 100000, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        {'func': 'cmd_mvn_tail'},
    ],
    'extremis simulate': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--family'], 'family', None, None, True, ['logistic', 'neglogistic', 'hr'], None,
         None, '_StoreAction'),
        (['--beta'], 'beta', 2.0, 'float', False, None, None, None, '_StoreAction'),
        (['--theta'], 'theta', 1.0, 'float', False, None, None, None, '_StoreAction'),
        (['--gamma'], 'gamma', 1.0, 'float', False, None, None, None, '_StoreAction'),
        (['--dim'], 'dim', 3, 'int', False, None, None, None, '_StoreAction'),
        (['--functional'], 'functional', 'min', None, False, ['min', 'max', 'sum'], None, None,
         '_StoreAction'),
        (['--u'], 'u', None, None, False, None, "thresholds 'a,b,c'", None, '_StoreAction'),
        (['--n'], 'n', None, 'int', True, None, None, None, '_StoreAction'),
        (['--out-samples'], 'out_samples', None, None, False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        {'func': 'cmd_simulate'},
    ],
    'extremis mixture-experiment': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--alpha-grid'], 'alpha_grid', '0.4:0.9:100', None, False, None,
         "'lo:hi:count' or comma list", None, '_StoreAction'),
        (['--n-per'], 'n_per', 10000, 'int', False, None, None, None, '_StoreAction'),
        (['--levels'], 'levels', '0.8,0.9,0.95', None, False, None, None, None, '_StoreAction'),
        (['--dim'], 'dim', 8, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        {'func': 'cmd_mixture_experiment'},
    ],
    'extremis cluster': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--k'], 'k', None, 'int', True, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_cluster'},
    ],
    'extremis exch-test': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--blocks'], 'blocks', None, None, True, None, "'0,1,2|3,4,5'", None, '_StoreAction'),
        (['--n-mc'], 'n_mc', 2000, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_exch_test'},
    ],
    'extremis model-select': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--k'], 'k', 2, 'int', False, None, None, None, '_StoreAction'),
        (['--level'], 'level', 0.99, 'float', False, None, None, None, '_StoreAction'),
        (['--fit-quantile'], 'fit_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--fitters'], 'fitters', 'logistic,hr', None, False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_model_select'},
    ],
    'extremis task1': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--response'], 'response', None, None, True, None, None, None, '_StoreAction'),
        (['--predict'], 'predict', None, None, False, None,
         'CSV of covariate rows to predict (default: input rows)', None, '_StoreAction'),
        (['--tau'], 'tau', 0.95, 'float', False, None, None, None, '_StoreAction'),
        (['--level'], 'level', 0.9999, 'float', False, None, None, None, '_StoreAction'),
        (['--alpha'], 'alpha', 0.5, 'float', False, None, None, None, '_StoreAction'),
        (['--n-draws'], 'n_draws', 1000, 'int', False, None, None, None, '_StoreAction'),
        (['--sigma-covariates'], 'sigma_covariates', '', None, False, None, None, None,
         '_StoreAction'),
        (['--xi-covariates'], 'xi_covariates', '', None, False, None, None, None,
         '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_task1'},
    ],
    'extremis task2': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--response'], 'response', None, None, True, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.9, 'float', False, None, None, None,
         '_StoreAction'),
        (['--threshold-mode'], 'threshold_mode', 'fixed', None, False, ['fixed', 'random'],
         'fixed threshold with unknown exceedance probability (default) or bootstrap-random threshold',
         None, '_StoreAction'),
        (['--T'], 'T', 200.0, 'float', False, None, None, None, '_StoreAction'),
        (['--ny'], 'ny', 300.0, 'float', False, None, None, None, '_StoreAction'),
        (['--n-draws'], 'n_draws', 10000, 'int', False, None, None, None, '_StoreAction'),
        (['--bootstrap'], 'bootstrap', None, None, False, ['nonparametric', 'bayesian'], None,
         None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_task2'},
    ],
    'extremis task3': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--y'], 'y', 6.0, 'float', False, None, None, None, '_StoreAction'),
        (['--v'], 'v', 7.0, 'float', False, None, None, None, '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.95, 'float', False, None, None, None,
         '_StoreAction'),
        (['--n-sim'], 'n_sim', 1000000, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_task3'},
    ],
    'extremis task4': [
        (['-h', '--help'], 'help', '==SUPPRESS==', None, False, None,
         'show this help message and exit', None, '_HelpAction'),
        (['--input'], 'input', None, None, True, None, None, None, '_StoreAction'),
        (['--k'], 'k', 5, 'int', False, None, None, None, '_StoreAction'),
        (['--phi1'], 'phi1', 0.0033333333333333335, 'float', False, None, None, None,
         '_StoreAction'),
        (['--phi2'], 'phi2', 0.04, 'float', False, None, None, None, '_StoreAction'),
        (['--u1'], 'u1', None, None, False, None, 'comma list of U1 column indices', None,
         '_StoreAction'),
        (['--threshold-quantile'], 'threshold_quantile', 0.98, 'float', False, None, None, None,
         '_StoreAction'),
        (['--n-mc'], 'n_mc', 2000, 'int', False, None, None, None, '_StoreAction'),
        (['--seed'], 'seed', 0, 'int', False, None, None, None, '_StoreAction'),
        (['--out'], 'out', None, None, False, None, 'output path (default stdout)', None,
         '_StoreAction'),
        (['--format'], 'format', 'json', None, False, ['json', 'csv'], None, None,
         '_StoreAction'),
        (['--margins'], 'margins', None, None, False, None,
         'margin kinds: one for all columns, a comma list, or name=kind pairs (default empirical)',
         None, '_StoreAction'),
        {'func': 'cmd_task4'},
    ],
}


# In a fresh interpreter: the CLI import, then one call through each site
# that once went through scipy.stats (the 1-D Student rectangle, the
# chi-square p-value of the exchangeability test, the profile cutoff), then
# the sites that once went through scipy.optimize (both censored mgpd fits
# and the covariate-averaged return level).
_IMPORT_GRAPH_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import extremis.cli
loaded = ["import", "scipy.stats" in sys.modules, "scipy.optimize" in sys.modules]
import numpy as np
from extremis.core import derive_rng
from extremis.mgpd import fit_hr_exchangeable, fit_logistic_censored
from extremis.mvnt import OrthantQuery, mvt_rect
from extremis.univariate import (BinGpdModel, GpdParams, gpd_quantile,
                                 profile_return_level_ci, solve_return_level)
from extremis.validate import ClusterSpec, exch_test
mvt_rect(OrthantQuery([-1.0], [2.0], [0.0], [[1.0]], df=3.0))
loaded += ["mvt_rect", "scipy.stats" in sys.modules]
exch_test(derive_rng(1).standard_normal((60, 3)), ClusterSpec([[0, 1], [2]]), n_mc=1000)
loaded += ["exch_test", "scipy.stats" in sys.modules]
x = gpd_quantile(derive_rng(2).uniform(size=50), GpdParams(1.0, 0.1))
profile_return_level_ci(x, 0.1, 10.0, 100.0)
loaded += ["profile_return_level_ci", "scipy.stats" in sys.modules]
f = -1.0 / np.log(derive_rng(3).uniform(size=(400, 4)))
y = np.maximum(0.5 * f[:, :1], 0.5 * f[:, 1:])  # unit Frechet, dependent
u = np.quantile(y, 0.9, axis=0)
fit_logistic_censored(y, u, u)
fit_hr_exchangeable(y, u, u)
solve_return_level([BinGpdModel(100.0, 0.05, GpdParams(10.0, 0.1))], 200.0, 300)
loaded += ["mgpd fits, solve_return_level", "scipy.optimize" in sys.modules,
           "scipy.stats" in sys.modules]
from extremis.mgpd import HuslerReiss, exponent_measure_v, xi_measure
hr = HuslerReiss.exchangeable(5, 1.8)
xi_measure(hr, [1.0, 2.0, 1.5, 3.0, 1.2])
exponent_measure_v(hr, np.ones(5))
loaded += ["one-factor Xi, V"] + [m in sys.modules for m in
                                  ("scipy.stats", "scipy.optimize", "scipy.integrate")]
print(loaded)
"""


def test_cli_import_graph_has_no_scipy_stats():
    # scipy.stats costs about 0.65 s and 170 modules of CLI start-up, and
    # scipy.optimize about 0.2 s more; the library imports only scipy.special,
    # and the one-factor orthant rule needs no quadrature module either
    src = str(Path(extremis.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_CHILD, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == str(["import", False, False, "mvt_rect", False,
                                        "exch_test", False, "profile_return_level_ci", False,
                                        "mgpd fits, solve_return_level", False, False,
                                        "one-factor Xi, V", False, False, False])
