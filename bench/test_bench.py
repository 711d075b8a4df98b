"""Tests of the benchmark's own pieces: ``python3 -m pytest bench``."""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fixtures  # noqa: E402
import tracer as tr  # noqa: E402
from tracer import Span, Tracer, self_times, span_stats  # noqa: E402


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8] and the first a child that overruns it, [3, 5]
    spans = [
        Span(0, "cli.op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 5.0, 9.0, 0, 0),
        Span(3, "c", 6.0, 8.0, 2, 0),
        Span(4, "d", 3.0, 5.0, 1, 0, failed=True),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 2.0, 2.0])
    stats = span_stats(spans)
    assert stats["cli.op.s"] == 10.0 and stats["cli.op.self_s"] == 3.0
    assert stats["d.fails"] == 1 and stats["a.fails"] == 0 and stats["b.calls"] == 1


def test_self_time_sums_repeated_names():
    spans = [Span(0, "x", 0.0, 2.0, None, None), Span(1, "y", 0.5, 1.0, 0, None),
             Span(2, "x", 3.0, 4.0, None, None)]
    stats = span_stats(spans)
    assert stats["x.s"] == 3.0 and stats["x.self_s"] == 2.5 and stats["x.calls"] == 2


def _bindings():
    import extremis  # noqa: F401

    out = {}
    for module_name, attr, _, _ in tr.TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[(id(getattr(owner, cls_name)), meth)] = getattr(owner, cls_name).__dict__[meth]
            continue
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("extremis"):
                for key, value in vars(module).items():
                    if value is original:
                        out[(id(module), key)] = value
    return out


def test_tracer_wraps_every_binding_and_restores_them():
    import extremis.univariate as uni
    from extremis import condex, mgpd
    from extremis.core import Dataset, MarginSpec
    from extremis.univariate import gpd, scoring

    before = _bindings()
    t = Tracer()
    t.install()
    try:
        assert len(t.patched_bindings()) == len(before)
        for owner in (gpd, scoring, uni):
            assert owner.gpd_quantile is not before[(id(gpd), "gpd_quantile")]
        assert scoring.fit_gpd_regression is gpd.fit_gpd_regression
        assert condex.minimize_nll.__name__ == "minimize_nll"
        assert mgpd.mvn_cdf is not before[(id(sys.modules["extremis.mvnt"]), "mvn_cdf")]

        rng = np.random.default_rng(0)
        fit = uni.fit_gpd_mle(rng.exponential(size=200))
        uni.gpd_quantile(0.5, fit.params)
        ds = Dataset(rng.random((60, 2)), ("a", "b"), (MarginSpec("uniform"),) * 2)
        ds.to_margin(MarginSpec("laplace"))
        with pytest.raises(ValueError):
            uni.fit_gpd_mle(np.array([1.0]))
    finally:
        t.uninstall()

    assert _bindings() == before
    assert t.patched_bindings() == []
    stats = span_stats(t.spans)
    assert stats["univariate.fit_gpd_mle.calls"] == 2
    assert stats["univariate.fit_gpd_mle.fails"] == 1
    assert stats["optim.minimize_nll.calls"] >= 1
    assert t.counts[tr.NLL_EVALS] > 0
    assert stats["core.to_margin.calls"] == 1
    assert stats["univariate.gpd_quantile.calls"] == 1


def test_traced_pass_records_spans_and_restores_bindings(tmp_path):
    import run
    import workloads
    from extremis import cli

    before = _bindings()
    op = next(o for o in workloads.JOINT if o.name == "simulate-hr-sum")
    t = Tracer()
    t.install()
    try:
        (rec,) = run.run_pass(cli, [op], [3], {}, {}, {}, tmp_path, t)
    finally:
        t.uninstall()
    assert _bindings() == before
    assert rec["exit"] == 0 and rec["errors"] == []
    names = [s.name for s in t.spans]
    assert names[0] == "cli.simulate-hr-sum" and "simulate.composition_sample" in names
    assert all(s.op == 0 for s in t.spans)
    assert t.counts["simulate.composition_sample.draws"] == 200_000


def _rec(op, code, digest="d", errors=(), stderr=""):
    return {"op": op, "exit": code, "digest": digest if code == 0 else None,
            "errors": list(errors), "stderr": stderr}


def test_verdict_separates_known_failures_from_new_ones():
    import run

    known = {"task4": "v must sit above the fitting threshold"}
    task4 = _rec("task4", 1, stderr="extremis task4: error: v must sit above the fitting threshold\n")
    # the seed commit's own task4 failure counts but is not incorrect
    passes = [[_rec("cluster", 0), dict(task4, errors=[])] for _ in range(2)]
    assert run.verdict(passes, known) == (4, 2, True)
    # so is fixing it
    passes = [[_rec("cluster", 0), _rec("task4", 0)] for _ in range(2)]
    assert run.verdict(passes, known) == (4, 0, True)
    # any other failure is incorrect: a new one, a raise, another message
    for rec in (_rec("cluster", 1), _rec("task4", -1, stderr=task4["stderr"]),
                _rec("task4", 1, stderr="extremis task4: error: other\n")):
        passes = [[rec]]
        assert run.verdict(passes, known) == (1, 1, False)
        assert rec["errors"] == [f"exit {rec['exit']}, not a failure the seed commit shows"]
    # as is a result or exit code that changes between passes, or a failed check
    passes = [[_rec("cluster", 0)], [_rec("cluster", 0, digest="e")]]
    assert run.verdict(passes, known) == (2, 1, False)
    passes = [[_rec("task4", 0)], [dict(task4, errors=[])]]
    assert run.verdict(passes, known) == (2, 1, False)
    passes = [[_rec("cluster", 0, errors=["bad"])]]
    assert run.verdict(passes, known) == (1, 1, False)


@pytest.mark.parametrize("workload", sorted(fixtures.TABLES))
def test_fixtures_repeat_for_a_seed(workload):
    a = fixtures.TABLES[workload](7)
    b = fixtures.TABLES[workload](7)
    c = fixtures.TABLES[workload](8)
    for name in a:
        assert fixtures.csv_bytes(*a[name]) == fixtures.csv_bytes(*b[name])
        assert not np.array_equal(a[name][1], c[name][1])
