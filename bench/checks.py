"""Result checks for every benchmark op.

``check(op, result, tables, ref)`` returns a list of failure messages.  The
invariants hold for any workload seed.  ``ref`` is the op's entry in
``reference.json``, recorded from the seed commit for the default seed; its
tolerances come from each estimator's own error (reported standard errors,
interval widths, Monte Carlo counts), never from float noise:

* a fit's log-likelihood may not drop by more than 1e-6 relative;
* an estimate with a standard error (reported, or implied by its interval)
  may move by at most a quarter of it; a cross-validated mean score by one
  standard error of the mean over repeats; predictive-interval means by a
  tenth of the mean interval width;
* an estimate whose payload carries no error may move by 1 % (relative, or
  0.01 on the log scale), a tenth or less of its sampling error here;
* a Monte Carlo estimate may move by at most 4 combined standard errors, and
  its reported standard error may not grow by more than 5 %, which catches a
  change that quietly cuts samples.
"""
from __future__ import annotations

import math

import numpy as np

from fixtures import panel_blocks

LOGLIK_REL = 1e-6
SE_SHARE = 0.25
MC_SES = 4.0
SE_GROWTH = 1.05
REL_NO_SE = 0.01


def _num(v) -> float:
    """Payload numbers; non-finite floats arrive as their repr strings."""
    return float(v)


class Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def that(self, ok, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def finite(self, name: str, *values) -> None:
        arr = np.asarray([_num(v) for v in np.ravel(values)], dtype=float)
        self.that(np.all(np.isfinite(arr)), f"{name} not finite")

    def prob(self, name: str, v) -> None:
        self.that(0.0 <= _num(v) <= 1.0, f"{name}={v} outside [0, 1]")

    def loglik(self, name: str, value, ref_value) -> None:
        value, ref_value = _num(value), _num(ref_value)
        floor = ref_value - LOGLIK_REL * abs(ref_value)
        self.that(value >= floor, f"{name} loglik {value!r} dropped below {ref_value!r}")

    def near(self, name: str, value, ref_value, tol: float) -> None:
        value, ref_value = _num(value), _num(ref_value)
        self.that(abs(value - ref_value) <= tol,
                  f"{name}={value!r} differs from reference {ref_value!r} by more than {tol:.3g}")

    def mc(self, name: str, value, se, ref_value, ref_se) -> None:
        se, ref_se = _num(se), _num(ref_se)
        self.near(name, value, ref_value, MC_SES * math.hypot(se, ref_se))
        self.that(se <= SE_GROWTH * ref_se,
                  f"{name} standard error {se!r} grew from {ref_se!r}")


def _partition(c: Checker, blocks, d: int) -> None:
    flat = sorted(int(v) for b in blocks for v in b)
    c.that(flat == list(range(d)), f"blocks do not partition 0..{d - 1}")


def _quantile(tables, table: str, q: float) -> float:
    names, values = tables[table]
    return float(np.quantile(values[:, names.index("y")], q))


# -- pot -------------------------------------------------------------------


def _fit_threshold(c, r, tables, ref):
    c.that(r["tau"] == 0.95, "tau is not 0.95")
    c.that(len(r["coefficients"]) == 7, "expected 7 ALD coefficients")
    c.finite("ALD covariance", r["covariance"])
    c.that(abs(r["below_fraction"] - 0.95) <= 0.01, "below_fraction far from tau")
    if ref:
        c.loglik("fit-threshold", r["loglik"], ref["loglik"])


def _fit_gpd(c, r, tables, ref):
    u = _quantile(tables, "pot", 0.95)
    names, values = tables["pot"]
    c.that(math.isclose(r["threshold"], u, rel_tol=1e-12), "threshold is not the 0.95 quantile")
    c.that(r["n_exceed"] == int(np.sum(values[:, names.index("y")] > u)), "n_exceed miscounted")
    c.that(len(r["coefficients"]["log_sigma"]) == 3 and len(r["coefficients"]["xi"]) == 1,
           "wrong design size")
    c.that(r["covariance"] is not None and all(
        _num(r["covariance"][i][i]) > 0 for i in range(4)), "covariance missing or not positive")
    c.finite("fit-gpd loglik", r["loglik"])
    if ref:
        c.loglik("fit-gpd", r["loglik"], ref["loglik"])


def _task1(c, r, tables, ref):
    t = r["table"]
    n = tables["pot"][1].shape[0]
    c.that(all(len(t[k]) == n for k in ("point", "lower", "upper")), "table length is not n")
    lo, hi, pt = (np.asarray(t[k], dtype=float) for k in ("lower", "upper", "point"))
    c.finite("task1 table", lo, hi, pt)
    c.that(np.all(lo <= hi), "lower above upper")
    if ref:
        # the predictive interval width is the estimators' own error scale
        tol = 0.1 * ref["mean_width"]
        c.near("task1 mean point", pt.mean(), ref["mean_point"], tol)
        c.near("task1 mean lower", lo.mean(), ref["mean_lower"], tol)
        c.near("task1 mean upper", hi.mean(), ref["mean_upper"], tol)


def _cv_score(c, r, tables, ref):
    models = r["models"]
    c.that(len(models) == 3, "expected 3 models")
    for i, m in enumerate(models):
        c.that(len(m["scores"]) == 6 - m["n_dropped_repeats"], f"model {i}: score count")
        c.that(len(m["scores"]) > 0, f"model {i}: every repeat dropped")
        c.that(all(0.0 <= _num(v) <= 1.0 for v in m["coverages"]), f"model {i}: coverage")
        c.that(all(_num(v) > 0.0 for v in m["scores"]), f"model {i}: score not positive")
        c.finite(f"model {i} scores", m["scores"])
    if ref:
        for i, (m, mr) in enumerate(zip(models, ref["models"])):
            se = mr["score_sd"] / math.sqrt(mr["n_scores"])
            c.near(f"cv model {i} mean_score", m["mean_score"], mr["mean_score"], se)


def _return_level(c, r, tables, ref):
    pi = r["profile_interval"]
    lo, hi, q = _num(pi["lower"]), _num(pi["upper"]), _num(r["return_level"])
    c.that(lo <= q <= hi, f"return level {q} outside [{lo}, {hi}]")
    c.that(math.isclose(r["threshold"], _quantile(tables, "pot", 0.9), rel_tol=1e-12),
           "threshold is not the 0.9 quantile")
    c.prob("zeta_u", r["zeta_u"])
    if ref and math.isfinite(ref["upper"]):
        se = (ref["upper"] - ref["lower"]) / (2 * 1.959964)
        c.near("return level", q, ref["return_level"], SE_SHARE * se)


def _task2(c, r, tables, ref):
    u = _quantile(tables, "pot", 0.9)
    c.that(math.isclose(r["threshold"], u, rel_tol=1e-12), "threshold is not the 0.9 quantile")
    c.that(1 <= r["n_draws_used"] <= 10_000, "n_draws_used out of range")
    for k in ("loss_minimizer", "mle_return_level", "posterior_mean"):
        c.that(math.isfinite(_num(r[k])) and _num(r[k]) > u, f"{k} not above the threshold")
    if ref:
        for k in ("loss_minimizer", "mle_return_level"):
            c.near(k, r[k], ref[k], REL_NO_SE * abs(ref[k]))


# -- panel -----------------------------------------------------------------


def _cluster(c, r, tables, ref):
    d = tables["panel"][1].shape[1]
    _partition(c, r["blocks"], d)
    c.that(sorted(map(list, r["blocks"])) == panel_blocks(),
           "Ward blocks do not recover the fixture's blocks")
    tau = np.asarray(r["tau"], dtype=float)
    c.that(tau.shape == (d, d) and np.allclose(tau, tau.T) and np.allclose(np.diag(tau), 1.0),
           "tau is not a symmetric unit-diagonal matrix")
    c.that(np.all(np.abs(tau) <= 1.0), "tau outside [-1, 1]")
    if ref:
        n = tables["panel"][1].shape[0]
        se_tau = math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))
        c.that(r["blocks"] == ref["blocks"], "blocks differ from reference")
        c.near("max |tau - tau_ref|", float(np.max(np.abs(tau - np.asarray(ref["tau"])))),
               0.0, SE_SHARE * se_tau)


def _task4(c, r, tables, ref):
    _partition(c, r["clusters"], tables["panel"][1].shape[1])
    for k in ("p_E", "p_M", "p_E_chi2"):
        c.prob(k, r["exchangeability"][k])
    c.that(len(r["per_cluster"]) == len(r["clusters"]), "one entry per cluster expected")
    for k in ("log_p1_total", "log_p2_total"):
        c.that(_num(r[k]) <= 0.0, f"{k} is not a log probability")


# -- joint -----------------------------------------------------------------


def _task3(c, r, tables, ref):
    for p in ("p1", "p2"):
        sim, se, ana = _num(r[p]["simulation"]), _num(r[p]["se"]), _num(r[p]["analytic"])
        c.prob(f"{p} simulation", sim)
        c.prob(f"{p} analytic", ana)
        c.that(abs(sim - ana) <= MC_SES * se,
               f"{p}: analytic {ana!r} and simulated {sim!r} differ by more than {MC_SES} SE")
        if ref:
            c.mc(f"{p} simulation", sim, se, ref[p]["simulation"], ref[p]["se"])
            c.near(f"{p} analytic", ana, ref[p]["analytic"], ref[p]["se"])
    c.prob("p1 hrv", r["p1"]["hrv"])
    if ref:
        c.near("p1 hrv", r["p1"]["hrv"], ref["p1"]["hrv"], REL_NO_SE * ref["p1"]["hrv"])


def _mgpd_fit(lower_bound):
    def check(c, r, tables, ref):
        c.that(_num(r["estimate"]) > lower_bound, f"estimate not above {lower_bound}")
        c.that(r["se"] is not None and _num(r["se"]) > 0.0, "se missing")
        c.prob("model_chi", r["model_chi"])
        c.that(r["n_rows"] > 0, "no rows used")
        if ref:
            c.loglik("mgpd fit", r["loglik"], ref["loglik"])
            c.near("mgpd estimate", r["estimate"], ref["estimate"], SE_SHARE * ref["se"])
    return check


def _mgpd_prob(c, r, tables, ref):
    p = _num(r["prob"])
    c.that(0.0 < p <= 1.0, f"prob {p} outside (0, 1]")
    c.that(all(_num(s) >= _num(u) for s, u in zip(r["levels"], r["thresholds"])),
           "levels below thresholds")
    if ref:
        c.near("log_prob", r["log_prob"], ref["log_prob"], REL_NO_SE)


def _simulate(n: int, uniform: bool):
    def check(c, r, tables, ref):
        f = np.asarray(r["pivot_frequencies"], dtype=float)
        c.that(r["n"] == n and f.size == 5, "wrong sample size or dimension")
        c.that(np.all(f >= 0.0) and abs(f.sum() - 1.0) <= 1e-9, "frequencies do not sum to 1")
        if uniform:
            # sum functionals pick the pivot uniformly
            c.that(np.all(np.abs(f - 0.2) <= MC_SES * math.sqrt(0.16 / n)),
                   "pivot frequencies not uniform")
        if ref:
            fr = np.asarray(ref["pivot_frequencies"])
            tol = MC_SES * np.sqrt(2.0 * fr * (1.0 - fr) / n)
            c.that(np.all(np.abs(f - fr) <= tol), "pivot frequencies moved from reference")
    return check


def _condex_prob2(c, r, tables, ref):
    c.that(r["n_assignments"] == 924, f"n_assignments {r['n_assignments']} != C(12, 6)")
    c.prob("prob", r["prob"])
    c.finite("log_prob", r["log_prob"])
    c.that(_num(r["s1"]) > _num(r["s2"]), "s1 not above s2")
    c.that(r["fit"]["pool_size"] > 0, "empty residual pool")
    if ref:
        c.loglik("condex fit", r["fit"]["loglik"], ref["loglik"])
        c.near("log_prob", r["log_prob"], ref["log_prob"], REL_NO_SE)


CHECKS = {
    "fit-threshold": _fit_threshold, "fit-gpd": _fit_gpd, "task1": _task1,
    "cv-score": _cv_score, "return-level": _return_level, "task2": _task2,
    "cluster": _cluster, "task4": _task4,
    "task3": _task3, "mgpd-fit-logistic": _mgpd_fit(1.0), "mgpd-fit-hr": _mgpd_fit(0.0),
    "mgpd-prob-hr": _mgpd_prob,
    "simulate-logistic-min": _simulate(1_000_000, uniform=False),
    "simulate-hr-sum": _simulate(200_000, uniform=True),
    "condex-prob2": _condex_prob2,
}


def check(op: str, result: dict, tables, ref: dict | None) -> list[str]:
    c = Checker()
    try:
        CHECKS[op](c, result, tables, ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        c.errors.append(f"malformed result: {exc!r}")
    return c.errors

