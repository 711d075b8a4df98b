"""Spans around the calls into each ``extremis`` layer, recorded from outside.

:class:`Tracer` replaces each traced function at every module attribute that
binds it (``from .gpd import fit_gpd_regression`` makes a second binding in
``univariate.scoring``), plus ``Dataset.to_margin`` on its class, and puts
every original back on :meth:`Tracer.uninstall`.  Spans and counts stay in
memory until :meth:`Tracer.write_spans`.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    failed: bool = False


def _n_assignments(result, bound) -> int:
    return int(result.n_used)


def _qmc_points(result, bound) -> int:
    return int(bound.arguments["n_points"])


def _draws(result, bound) -> int:
    return int(bound.arguments["n"])


# (module, attribute, span name, {count name: f(result, bound arguments)})
TARGETS = (
    ("extremis.core", "read_csv", "core.read_csv", {}),
    ("extremis.core", "Dataset.to_margin", "core.to_margin", {}),
    ("extremis._optim", "minimize_nll", "optim.minimize_nll", {}),
    ("extremis._optim", "numeric_hessian", "optim.numeric_hessian", {}),
    ("extremis.univariate.ald", "fit_ald", "univariate.fit_ald", {}),
    ("extremis.univariate.gpd", "fit_gpd_regression", "univariate.fit_gpd_regression", {}),
    ("extremis.univariate.gpd", "fit_gpd_mle", "univariate.fit_gpd_mle", {}),
    ("extremis.univariate.gpd", "gpd_quantile", "univariate.gpd_quantile", {}),
    ("extremis.univariate.returns", "profile_return_level_ci",
     "univariate.profile_return_level_ci", {}),
    ("extremis.univariate.scoring", "sample_params_gaussian",
     "univariate.sample_params_gaussian", {}),
    ("extremis.univariate.scoring", "cv_interval_score", "univariate.cv_interval_score", {}),
    ("extremis.univariate.loss", "minimize_expected_loss",
     "univariate.minimize_expected_loss", {}),
    ("extremis.taildep", "hrv_extrapolate", "taildep.hrv_extrapolate", {}),
    ("extremis.condex", "fit_ht_exchangeable_skewnormal",
     "condex.fit_ht_exchangeable_skewnormal", {}),
    ("extremis.condex", "fit_ht_exchangeable_gaussian",
     "condex.fit_ht_exchangeable_gaussian", {}),
    ("extremis.condex", "ht_prob_analytic", "condex.ht_prob_analytic", {}),
    ("extremis.condex", "ht_prob_simulation", "condex.ht_prob_simulation", {}),
    ("extremis.condex", "ht_prob_two_level", "condex.ht_prob_two_level",
     {"condex.ht_prob_two_level.assignments": _n_assignments}),
    ("extremis.mgpd", "fit_logistic_censored", "mgpd.fit_logistic_censored", {}),
    ("extremis.mgpd", "fit_hr_exchangeable", "mgpd.fit_hr_exchangeable", {}),
    ("extremis.mgpd", "xi_measure", "mgpd.xi_measure", {}),
    ("extremis.mgpd", "exponent_measure_v", "mgpd.exponent_measure_v", {}),
    ("extremis.mgpd", "joint_exceedance_prob", "mgpd.joint_exceedance_prob", {}),
    ("extremis.mvnt", "mvn_cdf", "mvnt.mvn_cdf", {"mvnt.qmc_points": _qmc_points}),
    ("extremis.mvnt", "mvt_cdf", "mvnt.mvt_cdf", {"mvnt.qmc_points": _qmc_points}),
    ("extremis.simulate", "composition_sample", "simulate.composition_sample",
     {"simulate.composition_sample.draws": _draws}),
    ("extremis.validate", "kendall_tau_matrix", "validate.kendall_tau_matrix", {}),
    ("extremis.validate", "tau_jackknife", "validate.tau_jackknife", {}),
    ("extremis.validate", "exch_test", "validate.exch_test", {}),
    ("extremis.validate", "ward_cluster", "validate.ward_cluster", {}),
)

# the objective handed to minimize_nll is wrapped too, to count its calls
NLL_OWNER, NLL_EVALS = "optim.minimize_nll", "optim.nll_evals"


@dataclass
class Tracer:
    """In-memory span recorder that patches ``extremis`` from outside."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _op: int | None = None
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span.id)
        return span.id

    def end(self, span_id: int, failed: bool = False) -> None:
        span = self.spans[span_id]
        span.end = time.perf_counter()
        span.failed = failed
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")

    def begin_op(self, op_index: int, name: str) -> int:
        self._op = op_index
        return self.begin(name)

    def end_op(self, span_id: int, failed: bool = False) -> None:
        self.end(span_id, failed)
        self._op = None

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name: str, counters: dict):
        signature = inspect.signature(fn)
        counts_nll = name == NLL_OWNER
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_nll:
                bound = signature.bind(*args, **kwargs)
                bound.arguments["nll"] = tracer._counted(bound.arguments["nll"])
                args, kwargs = bound.args, bound.kwargs
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(sid, failed=True)
                raise
            tracer.end(sid)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, count in counters.items():
                    tracer.counts[key] += count(result, bound)
            return result

        return traced

    def _counted(self, nll):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[NLL_EVALS] += 1
            return nll(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every module attribute bound to a target, and the method."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "extremis" or n.startswith("extremis."))]
        for module_name, attr, name, counters in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def patched_bindings(self) -> list[tuple[object, str]]:
        return [(owner, key) for owner, key, _ in self._patched]

    # -- output ----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def span_stats(spans: list[Span]) -> dict[str, float]:
    """Per span name: ``.s`` total seconds, ``.calls``, ``.fails``, ``.self_s``."""
    stats: dict[str, float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        stats[f"{s.name}.s"] += s.end - s.start
        stats[f"{s.name}.calls"] += 1
        stats[f"{s.name}.fails"] += int(s.failed)
        stats[f"{s.name}.self_s"] += self_s
    return dict(stats)
